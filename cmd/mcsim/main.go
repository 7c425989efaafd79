// Command mcsim partitions a mixed-criticality task set and executes
// the resulting partition in the event-driven EDF-VD + AMC runtime
// simulator, reporting per-core completions, mode switches, dropped
// work and — the property the analysis guarantees — deadline misses.
//
// Usage:
//
//	mcgen -nsu 0.5 | mcsim -m 8 -model worst
//	mcsim -in taskset.json -m 8 -scheme CA-TPA -model random -overrun 0.1
//
// Models:
//
//	worst    every job runs to its own-level WCET (adversarial)
//	nominal  every job runs to its level-1 WCET
//	level=k  every job runs to its level-k budget
//	random   uniform demands with sporadic overruns (-overrun)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"catpa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the process exit code —
// 0 for a clean simulation, 1 for bad flags or input, 2 when the
// scheme finds no feasible partition, 3 on deadline misses.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "", "task-set JSON file (default stdin)")
		m       = fs.Int("m", 8, "number of cores")
		k       = fs.Int("k", 0, "criticality levels (default: max in set)")
		scheme  = fs.String("scheme", "CA-TPA", "partitioning heuristic")
		model   = fs.String("model", "worst", "execution model: worst|nominal|random|level=K")
		overrun = fs.Float64("overrun", 0.1, "overrun probability (random model)")
		horizon = fs.Float64("horizon", 0, "simulated time (0 = 20x max period)")
		seed    = fs.Int64("seed", 1, "seed for the random model")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mcsim:", err)
		return 1
	}

	ts, err := readSet(*in, stdin)
	if err != nil {
		return fail(err)
	}
	levels, err := checkDims(ts, *m, *k)
	if err != nil {
		return fail(err)
	}
	sch, err := catpa.ParseScheme(*scheme)
	if err != nil {
		return fail(err)
	}
	// Resolve the model once up front so a bad name fails before the run.
	if _, err := buildModel(*model, *overrun, *seed); err != nil {
		return fail(err)
	}

	res := catpa.Partition(ts, *m, levels, sch, nil)
	if !res.Feasible {
		fmt.Fprintf(stderr, "mcsim: %s found no feasible partition (task %s); simulating anyway is meaningless\n",
			sch, ts.Tasks[res.FailedTask].Label())
		return 2
	}
	fmt.Fprintln(stdout, res)

	stats := catpa.SimulateSystem(catpa.SystemConfig{
		Subsets: res.Subsets(ts),
		K:       levels,
		Horizon: *horizon,
		ModelFor: func(core int) catpa.ExecModel {
			em, _ := buildModel(*model, *overrun, *seed+int64(core))
			return em
		},
	})
	fmt.Fprint(stdout, stats)
	if miss := stats.Missed(); miss > 0 {
		fmt.Fprintf(stdout, "DEADLINE MISSES: %d\n", miss)
		return 3
	}
	fmt.Fprintf(stdout, "no deadline misses (%d jobs completed, %d mode switches)\n",
		stats.Completed(), stats.ModeSwitches())
	return 0
}

// checkDims validates the core and level counts against the set and
// returns the level count to analyze under (k = 0 selects the set's
// maximum criticality), so bad flags are reported instead of the
// partitioner's panics.
func checkDims(ts *catpa.TaskSet, m, k int) (int, error) {
	if m < 1 {
		return 0, fmt.Errorf("-m %d: need at least one core", m)
	}
	maxCrit := ts.MaxCrit()
	if k == 0 {
		return maxCrit, nil
	}
	if k < maxCrit {
		return 0, fmt.Errorf("-k %d is below the task set's criticality %d", k, maxCrit)
	}
	return k, nil
}

func buildModel(name string, overrun float64, seed int64) (catpa.ExecModel, error) {
	switch {
	case name == "worst":
		return catpa.WorstCaseModel{}, nil
	case name == "nominal":
		return catpa.NominalModel{}, nil
	case name == "random":
		return catpa.NewRandomModel(0.3, overrun, seed), nil
	case strings.HasPrefix(name, "level="):
		var k int
		if _, err := fmt.Sscanf(name, "level=%d", &k); err != nil {
			return nil, fmt.Errorf("invalid model %q", name)
		}
		return catpa.LevelModel{Level: k}, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

func readSet(path string, stdin io.Reader) (*catpa.TaskSet, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var ts catpa.TaskSet
	if err := json.Unmarshal(data, &ts); err != nil {
		return nil, fmt.Errorf("parsing task set: %w", err)
	}
	return &ts, nil
}
