// Command catpa partitions a mixed-criticality task set onto M cores
// with one of the five heuristics of Han et al. (ICPP 2016) and
// reports the resulting per-core subsets, utilizations and EDF-VD
// parameters.
//
// Usage:
//
//	catpa -in taskset.json -m 8 -scheme CA-TPA
//	mcgen -nsu 0.55 | catpa -m 8 -scheme CA-TPA -trace
//	mcgen -k 2 | catpa -m 8 -fp -compare
//
// With no -in flag the task set is read from stdin. -compare runs all
// five schemes side by side; -fp swaps the EDF-VD analysis for
// partitioned fixed-priority AMC-rtb (dual-criticality sets).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"catpa"
	"catpa/internal/textplot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the process exit code —
// 0 for a feasible partition (or a -compare table), 1 for bad flags or
// input, 2 when the scheme finds no feasible partition.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("catpa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "", "task-set JSON file (default stdin)")
		m       = fs.Int("m", 8, "number of cores")
		k       = fs.Int("k", 0, "criticality levels (default: max in set)")
		scheme  = fs.String("scheme", "CA-TPA", "heuristic: WFD|FFD|BFD|Hybrid|CA-TPA")
		alpha   = fs.Float64("alpha", 0.7, "imbalance threshold (CA-TPA), > 0; +Inf disables the fallback")
		trace   = fs.Bool("trace", false, "print the allocation trace")
		compare = fs.Bool("compare", false, "run all five schemes")
		asJSON  = fs.Bool("json", false, "emit the result as JSON")
		useFP   = fs.Bool("fp", false, "use partitioned fixed-priority AMC-rtb instead of EDF-VD (dual-criticality sets, all five schemes)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "catpa:", err)
		return 1
	}
	// The options read 0 as "the default"; a negative threshold would
	// send every CA-TPA step to the fallback and NaN none of them.
	if !(*alpha > 0) {
		return fail(fmt.Errorf("-alpha %v: the imbalance threshold must be in (0, +Inf]", *alpha))
	}

	ts, err := readSet(*in, stdin)
	if err != nil {
		return fail(err)
	}
	p, err := newPartitioner(ts, *m, *k, *useFP)
	if err != nil {
		return fail(err)
	}
	opts := &catpa.PartitionOptions{Alpha: *alpha, Trace: *trace}

	if *compare {
		rows := [][]string{{"scheme", "feasible", "Usys", "Uavg", "imbalance"}}
		for _, s := range catpa.Schemes {
			r := p.Run(ts, s, opts)
			row := []string{s.String(), strconv.FormatBool(r.Feasible), "-", "-", "-"}
			if r.Feasible {
				row[2] = fmt.Sprintf("%.4f", r.Usys)
				row[3] = fmt.Sprintf("%.4f", r.Uavg)
				row[4] = fmt.Sprintf("%.4f", r.Imbalance)
			}
			rows = append(rows, row)
		}
		fmt.Fprint(stdout, textplot.AlignedTable(rows))
		return 0
	}

	sch, err := catpa.ParseScheme(*scheme)
	if err != nil {
		return fail(err)
	}
	r := p.Run(ts, sch, opts)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Fprintln(stdout, r)
	if *trace {
		fmt.Fprint(stdout, r.FormatTrace(ts))
	}
	if !r.Feasible {
		fmt.Fprintf(stdout, "first unplaceable task: %s\n", ts.Tasks[r.FailedTask].Label())
		return 2
	}
	for c, ci := range r.Cores {
		fmt.Fprintf(stdout, "P%-2d U=%.4f load=%.4f cond=k%d tasks:", c+1, ci.Util, ci.OwnLevelLoad, ci.FeasibleK)
		for _, ti := range ci.Tasks {
			fmt.Fprintf(stdout, " %s", ts.Tasks[ti].Label())
		}
		fmt.Fprintln(stdout)
		if lam := ci.Lambda; len(lam) > 1 && !math.IsNaN(lam[1]) {
			fmt.Fprintf(stdout, "     lambda:")
			for _, l := range lam {
				fmt.Fprintf(stdout, " %.4f", l)
			}
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// newPartitioner returns the engine every scheme runs on: the default
// EDF-VD analysis, or the AMC-rtb backend with fp. k = 0 selects the
// set's maximum criticality. Dimensions the analysis cannot take are
// reported as errors instead of the engine's panics.
func newPartitioner(ts *catpa.TaskSet, m, k int, fp bool) (*catpa.Partitioner, error) {
	if m < 1 {
		return nil, fmt.Errorf("-m %d: need at least one core", m)
	}
	maxCrit := ts.MaxCrit()
	if k == 0 {
		k = maxCrit
	}
	if k < maxCrit {
		return nil, fmt.Errorf("-k %d is below the task set's criticality %d", k, maxCrit)
	}
	name := catpa.DefaultBackend
	if fp {
		name = catpa.FPBackendName
	}
	be, err := catpa.NewAnalysisBackend(name)
	if err != nil {
		return nil, err
	}
	if maxK := be.MaxLevels(); maxK > 0 && k > maxK {
		return nil, fmt.Errorf("the %s analysis handles at most %d criticality levels, got %d", name, maxK, k)
	}
	return catpa.NewPartitionerWithBackend(m, k, be), nil
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
