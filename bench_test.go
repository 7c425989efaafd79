package catpa_test

// Benchmark harness regenerating the paper's evaluation (one benchmark
// per figure) plus micro-benchmarks of the building blocks and the
// ablation study of DESIGN.md section 6.
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run a reduced population per iteration and
// report the paper's headline comparison (CA-TPA vs FFD schedulability
// ratio at the sweep's midpoint) as custom metrics, so `go test
// -bench=BenchmarkFig` both times the harness and regenerates the
// figures' shape. For publication-quality curves use cmd/mcexp with
// -sets 50000.

import (
	"fmt"
	"math"
	"testing"

	"catpa"
)

// benchSets is the population per figure-bench iteration; small enough
// to keep one iteration under a second, large enough that the ratio
// ordering is stable.
const benchSets = 60

// variantIndex resolves a variant's position in a sweep's variant list
// by canonical name ("FFD", "CA-TPA@amcrtb"), so benchmarks never
// hard-code presentation-order indices.
func variantIndex(b *testing.B, variants []catpa.Variant, name string) int {
	b.Helper()
	for vi, v := range variants {
		if v.String() == name {
			return vi
		}
	}
	b.Fatalf("variant %q not in %v", name, variants)
	return -1
}

// figureBench runs one reduced figure sweep per iteration and reports
// the midpoint schedulability ratios of CA-TPA and FFD.
func figureBench(b *testing.B, fig int) {
	b.ReportAllocs()
	var catpaRatio, ffdRatio float64
	for i := 0; i < b.N; i++ {
		sw := catpa.Figure(fig, benchSets, 2016)
		sw.Workers = 1
		variants := sw.ActiveVariants()
		res := sw.Run()
		mid := len(sw.Values) / 2
		ffdRatio = res.Value(mid, variantIndex(b, variants, "FFD"), catpa.SchedRatio)
		catpaRatio = res.Value(mid, variantIndex(b, variants, "CA-TPA"), catpa.SchedRatio)
	}
	b.ReportMetric(catpaRatio, "catpa_ratio")
	b.ReportMetric(ffdRatio, "ffd_ratio")
}

// BenchmarkFig1 regenerates Fig. 1 (varying NSU).
func BenchmarkFig1_NSU(b *testing.B) { figureBench(b, 1) }

// BenchmarkFig2 regenerates Fig. 2 (varying IFC).
func BenchmarkFig2_IFC(b *testing.B) { figureBench(b, 2) }

// BenchmarkFig3 regenerates Fig. 3 (varying alpha).
func BenchmarkFig3_Alpha(b *testing.B) { figureBench(b, 3) }

// BenchmarkFig4 regenerates Fig. 4 (varying M).
func BenchmarkFig4_Cores(b *testing.B) { figureBench(b, 4) }

// BenchmarkFig5 regenerates Fig. 5 (varying K).
func BenchmarkFig5_Levels(b *testing.B) { figureBench(b, 5) }

// benchPopulation pre-generates a default-parameter population near
// the schedulability boundary for per-scheme and ablation benchmarks.
func benchPopulation(n int) []*catpa.TaskSet {
	cfg := catpa.DefaultGenConfig()
	sets := make([]*catpa.TaskSet, n)
	for i := range sets {
		sets[i] = catpa.GenerateTaskSet(&cfg, 2016, i)
	}
	return sets
}

// BenchmarkPartition times one partitioning run per iteration for each
// scheme at the paper's default point (M=8, K=4, NSU=0.6) and reports
// the scheme's acceptance ratio over the cycled population. It uses
// the reusable Partitioner (steady state: 0 allocs/op).
func BenchmarkPartition(b *testing.B) {
	sets := benchPopulation(200)
	for _, s := range catpa.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			p := catpa.NewPartitioner(8, 4)
			feasible := 0
			for i := 0; i < b.N; i++ {
				p.Prepare(sets[i%len(sets)])
				if p.Place(s, nil); p.Summarize().Feasible {
					feasible++
				}
			}
			b.ReportMetric(float64(feasible)/float64(b.N), "sched_ratio")
		})
	}
}

// BenchmarkSweepThroughput measures end-to-end sweep throughput in
// task sets per second (generate + partition by all five schemes +
// aggregate, single worker): the figure-of-merit for paper-scale
// 50,000-set populations.
func BenchmarkSweepThroughput(b *testing.B) {
	b.ReportAllocs()
	const setsPerIter = 200
	for i := 0; i < b.N; i++ {
		sw := catpa.Figure(1, setsPerIter, 2016)
		sw.Workers = 1
		sw.Values = sw.Values[3:4] // single mid-sweep point (NSU near the boundary)
		sw.Run()
	}
	b.ReportMetric(float64(setsPerIter)*float64(b.N)/b.Elapsed().Seconds(), "sets/s")
}

// BenchmarkCATPAScaling verifies the O((M+N)*N) complexity claim of
// Section III: doubling N roughly quadruples the per-partition cost.
func BenchmarkCATPAScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		cfg := catpa.DefaultGenConfig()
		cfg.N = catpa.IntRange{Lo: n, Hi: n}
		cfg.NSU = 0.4 // below the boundary so every run completes
		ts := catpa.GenerateTaskSet(&cfg, 1, 0)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				catpa.Partition(ts, 8, 4, catpa.CATPA, nil)
			}
		})
	}
}

// BenchmarkAnalyze times the Theorem-1 analysis of a single core
// subset (the inner loop of every heuristic).
func BenchmarkAnalyze(b *testing.B) {
	cfg := catpa.DefaultGenConfig()
	cfg.N = catpa.IntRange{Lo: 15, Hi: 15}
	cfg.M = 1
	cfg.NSU = 0.5
	ts := catpa.GenerateTaskSet(&cfg, 1, 0)
	m := catpa.NewUtilMatrix(4)
	for i := range ts.Tasks {
		m.Add(&ts.Tasks[i])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		catpa.CoreUtil(m)
	}
}

// BenchmarkTaskGen times workload generation at the default point.
func BenchmarkTaskGen(b *testing.B) {
	cfg := catpa.DefaultGenConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		catpa.GenerateTaskSet(&cfg, 1, i)
	}
}

// BenchmarkSimulateCore times the event-driven runtime under the
// adversarial model on a near-capacity dual-criticality subset.
func BenchmarkSimulateCore(b *testing.B) {
	ts := catpa.NewTaskSet(
		catpa.Task{Period: 20, Crit: 2, WCET: []float64{1.5, 5}},
		catpa.Task{Period: 50, Crit: 2, WCET: []float64{3, 9}},
		catpa.Task{Period: 30, Crit: 1, WCET: []float64{7}},
		catpa.Task{Period: 100, Crit: 1, WCET: []float64{20}},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := catpa.SimulateCore(catpa.CoreConfig{
			Tasks:   ts.Tasks,
			K:       2,
			Horizon: 10000,
			Model:   catpa.WorstCaseModel{},
		})
		if st.Missed != 0 {
			b.Fatal("unexpected misses")
		}
	}
}

// ablationBench measures the schedulability ratio of a CA-TPA variant
// over the shared boundary population, reporting the delta against
// full CA-TPA. One iteration = one partitioning run (cycled).
func ablationBench(b *testing.B, opts *catpa.PartitionOptions) {
	sets := benchPopulation(200)
	full, variant := 0, 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := sets[i%len(sets)]
		if catpa.Partition(ts, 8, 4, catpa.CATPA, nil).Feasible {
			full++
		}
		if catpa.Partition(ts, 8, 4, catpa.CATPA, opts).Feasible {
			variant++
		}
	}
	b.ReportMetric(float64(variant)/float64(b.N), "variant_ratio")
	b.ReportMetric(float64(full)/float64(b.N), "full_ratio")
}

// BenchmarkAblationOrdering replaces the utilization-contribution
// ordering with the classical max-utilization ordering.
func BenchmarkAblationOrdering(b *testing.B) {
	ablationBench(b, &catpa.PartitionOptions{Order: catpa.MaxUtilOrder})
}

// BenchmarkAblationNoProbe replaces the minimum-increment probe with
// first-feasible placement.
func BenchmarkAblationNoProbe(b *testing.B) {
	ablationBench(b, &catpa.PartitionOptions{NoProbe: true})
}

// BenchmarkAblationNoImbalance disables the workload-imbalance
// fallback (alpha = +Inf).
func BenchmarkAblationNoImbalance(b *testing.B) {
	ablationBench(b, &catpa.PartitionOptions{Alpha: math.Inf(1)})
}

// BenchmarkAblationEq9Literal switches the Eq. 9 core-utilization
// metric to the literal worst-condition reading (DESIGN.md section 3).
func BenchmarkAblationEq9Literal(b *testing.B) {
	ablationBench(b, &catpa.PartitionOptions{Eq9Literal: true})
}

// dualPopulation pre-generates a dual-criticality population for the
// FP and classic-test benchmarks.
func dualPopulation(n int, nsu float64) []*catpa.TaskSet {
	cfg := catpa.DefaultGenConfig()
	cfg.K = 2
	cfg.NSU = nsu
	cfg.N = catpa.IntRange{Lo: 30, Hi: 80}
	sets := make([]*catpa.TaskSet, n)
	for i := range sets {
		sets[i] = catpa.GenerateTaskSet(&cfg, 77, i)
	}
	return sets
}

// BenchmarkFPPartition times partitioned fixed-priority AMC-rtb (FFD)
// against partitioned EDF-VD (FFD) on the same dual-criticality
// population, reporting both acceptance ratios (the comparison behind
// Example_fpcompare in example_test.go).
func BenchmarkFPPartition(b *testing.B) {
	sets := dualPopulation(150, 0.75)
	b.Run("AMC-rtb-FFD", func(b *testing.B) {
		b.ReportAllocs()
		ok := 0
		for i := 0; i < b.N; i++ {
			r, err := catpa.FPPartition(sets[i%len(sets)], 8, catpa.FFD)
			if err != nil {
				b.Fatal(err)
			}
			if r.Feasible {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "sched_ratio")
	})
	b.Run("EDFVD-FFD", func(b *testing.B) {
		b.ReportAllocs()
		ok := 0
		for i := 0; i < b.N; i++ {
			if catpa.Partition(sets[i%len(sets)], 8, 2, catpa.FFD, nil).Feasible {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "sched_ratio")
	})
}

// BenchmarkDualTests compares the cost and acceptance of the paper's
// Eq. 7-style dual test against the classic Baruah et al. (2012) test
// on single-core subsets near the feasibility boundary.
func BenchmarkDualTests(b *testing.B) {
	cfg := catpa.DefaultGenConfig()
	cfg.K = 2
	cfg.M = 1
	cfg.NSU = 0.8
	cfg.N = catpa.IntRange{Lo: 8, Hi: 20}
	mats := make([]*catpa.UtilMatrix, 200)
	for i := range mats {
		ts := catpa.GenerateTaskSet(&cfg, 77, i)
		m := catpa.NewUtilMatrix(2)
		for j := range ts.Tasks {
			m.Add(&ts.Tasks[j])
		}
		mats[i] = m
	}
	b.Run("Eq7-Theorem1", func(b *testing.B) {
		b.ReportAllocs()
		ok := 0
		for i := 0; i < b.N; i++ {
			if catpa.Feasible(mats[i%len(mats)]) {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "accept_ratio")
	})
	b.Run("Classic2012", func(b *testing.B) {
		b.ReportAllocs()
		ok := 0
		for i := 0; i < b.N; i++ {
			if catpa.ClassicDualFeasible(mats[i%len(mats)]) {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "accept_ratio")
	})
}

// BenchmarkFPAnalyze times one AMC-rtb analysis (three fixed points
// per HI task).
func BenchmarkFPAnalyze(b *testing.B) {
	cfg := catpa.DefaultGenConfig()
	cfg.K = 2
	cfg.M = 1
	cfg.NSU = 0.5
	cfg.N = catpa.IntRange{Lo: 12, Hi: 12}
	ts := catpa.GenerateTaskSet(&cfg, 3, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !catpa.FPSchedulable(ts.Tasks) {
			b.Fatal("population should be schedulable")
		}
	}
}

// BenchmarkSimulateCoreFP times the runtime under fixed-priority
// dispatching (same workload as BenchmarkSimulateCore).
func BenchmarkSimulateCoreFP(b *testing.B) {
	ts := catpa.NewTaskSet(
		catpa.Task{Period: 20, Crit: 2, WCET: []float64{1.5, 5}},
		catpa.Task{Period: 50, Crit: 2, WCET: []float64{3, 9}},
		catpa.Task{Period: 30, Crit: 1, WCET: []float64{7}},
		catpa.Task{Period: 100, Crit: 1, WCET: []float64{20}},
	)
	prio := catpa.FPPriorities(ts.Tasks)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		catpa.SimulateCore(catpa.CoreConfig{
			Tasks:         ts.Tasks,
			K:             2,
			Horizon:       10000,
			Model:         catpa.WorstCaseModel{},
			FixedPriority: true,
			Priorities:    prio,
		})
	}
}

// BenchmarkOnlineEvent times one online arrival/departure event —
// release a task, then admit it back — handled two ways: "batch"
// re-partitions the entire set per event (the pre-session answer to
// online workloads), "incremental" commits the O(1) delta pair on a
// live session. The ratio between the two is the payoff of the
// incremental Backend contract, and the incremental variant must stay
// at 0 allocs/op.
func BenchmarkOnlineEvent(b *testing.B) {
	cfg := catpa.DefaultGenConfig()
	ts := catpa.GenerateTaskSet(&cfg, 2016, 0)

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		p := catpa.NewPartitioner(8, 4)
		for i := 0; i < b.N; i++ {
			// The event invalidates the whole partition: rebuild it.
			p.Prepare(ts)
			p.Place(catpa.CATPA, nil)
			p.Summarize()
		}
	})
	b.Run("incremental", func(b *testing.B) {
		benchSessionEvents(b, catpa.NewPartitioner(8, 4), ts)
	})
	// The AMC-rtb backend is dual-criticality: the same generator at
	// K = 2.
	cfg.K = 2
	dual := catpa.GenerateTaskSet(&cfg, 2016, 0)
	b.Run("incremental-amcrtb", func(b *testing.B) {
		be, err := catpa.NewAnalysisBackend(catpa.FPBackendName)
		if err != nil {
			b.Fatal(err)
		}
		benchSessionEvents(b, catpa.NewPartitionerWithBackend(8, 2, be), dual)
	})
}

// benchSessionEvents admits all of ts on a CA-TPA session of p, then
// times release+admit events cycling over the admitted tasks.
func benchSessionEvents(b *testing.B, p *catpa.Partitioner, ts *catpa.TaskSet) {
	b.ReportAllocs()
	n := len(ts.Tasks)
	p.StartIncremental(ts, catpa.CATPA, nil)
	for ti := 0; ti < n; ti++ {
		p.Admit(ti)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % n
		if p.Assigned(ti) < 0 {
			continue
		}
		p.Release(ti)
		p.Admit(ti)
	}
}

// BenchmarkOnlineScenario times the end-to-end online pipeline — CDF
// stream generation, the merged arrival/departure replay through
// incremental sessions for every variant, and the time-bucketed
// aggregation — and reports admission-verdict throughput. The steady
// state must stay allocation-free per replication (the per-iteration
// allocations are the sweep scaffolding, amortized across all sets).
func BenchmarkOnlineScenario(b *testing.B) {
	b.ReportAllocs()
	var arrivals int64
	var admitted int64
	for i := 0; i < b.N; i++ {
		sw := catpa.OnlineFigure(10, 2016)
		sw.Workers = 1
		res := sw.Run()
		arrivals, admitted = 0, 0
		for pi := range res.Points {
			for vi := range res.Points[pi].Cells {
				o := res.Points[pi].Cells[vi].Online
				arrivals += o.Admitted.N()
				admitted += o.Admitted.Hits()
			}
		}
	}
	b.ReportMetric(float64(arrivals)*float64(b.N)/b.Elapsed().Seconds(), "arrivals/s")
	b.ReportMetric(float64(admitted)/float64(arrivals), "admit_rate")
}
