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
	var (
		in      = flag.String("in", "", "task-set JSON file (default stdin)")
		m       = flag.Int("m", 8, "number of cores")
		k       = flag.Int("k", 0, "criticality levels (default: max in set)")
		scheme  = flag.String("scheme", "CA-TPA", "heuristic: WFD|FFD|BFD|Hybrid|CA-TPA")
		alpha   = flag.Float64("alpha", 0.7, "imbalance threshold (CA-TPA)")
		trace   = flag.Bool("trace", false, "print the allocation trace")
		compare = flag.Bool("compare", false, "run all five schemes")
		asJSON  = flag.Bool("json", false, "emit the result as JSON")
		useFP   = flag.Bool("fp", false, "use partitioned fixed-priority AMC-rtb instead of EDF-VD (dual-criticality sets, all five schemes)")
	)
	flag.Parse()

	ts, err := readSet(*in)
	if err != nil {
		fatal(err)
	}
	p, err := newPartitioner(ts, *m, *k, *useFP)
	if err != nil {
		fatal(err)
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
		fmt.Print(textplot.AlignedTable(rows))
		return
	}

	sch, err := catpa.ParseScheme(*scheme)
	if err != nil {
		fatal(err)
	}
	r := p.Run(ts, sch, opts)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(r)
	if *trace {
		fmt.Print(r.FormatTrace(ts))
	}
	if !r.Feasible {
		fmt.Printf("first unplaceable task: %s\n", ts.Tasks[r.FailedTask].Label())
		os.Exit(2)
	}
	for c, ci := range r.Cores {
		fmt.Printf("P%-2d U=%.4f load=%.4f cond=k%d tasks:", c+1, ci.Util, ci.OwnLevelLoad, ci.FeasibleK)
		for _, ti := range ci.Tasks {
			fmt.Printf(" %s", ts.Tasks[ti].Label())
		}
		fmt.Println()
		if lam := ci.Lambda; len(lam) > 1 && !math.IsNaN(lam[1]) {
			fmt.Printf("     lambda:")
			for _, l := range lam {
				fmt.Printf(" %.4f", l)
			}
			fmt.Println()
		}
	}
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

func readSet(path string) (*catpa.TaskSet, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catpa:", err)
	os.Exit(1)
}
