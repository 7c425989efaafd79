package experiments

import (
	"context"
	"math"
	"testing"

	"catpa/internal/fpamc"
	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

func testOnlineSweep(sets, workers int) *Sweep {
	return &Sweep{
		Name:   "onltest",
		Title:  "online test",
		Param:  "NSU",
		Values: []float64{1.0, 1.4},
		Apply: func(p *Params, x float64) {
			p.NSU = x
			p.K = 2
			p.M = 4
			p.N = taskgen.IntRange{Lo: 24, Hi: 24}
		},
		Sets:    sets,
		Seed:    99,
		Workers: workers,
		Variants: []Variant{
			{Scheme: partition.CATPA},
			{Scheme: partition.FFD, Backend: fpamc.BackendName},
		},
		Scenario: &OnlineScenario{
			Process: taskgen.Poisson{Rate: 0.05, MeanLifetime: 400},
			Horizon: 1000,
			Buckets: 8,
		},
	}
}

// TestOnlineScenarioValidation checks that scenario misconfiguration
// surfaces as one error before any worker runs.
func TestOnlineScenarioValidation(t *testing.T) {
	ok := taskgen.Poisson{Rate: 1, MeanLifetime: 1}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		sc   *OnlineScenario
		want string
	}{
		{"bad process", &OnlineScenario{Process: taskgen.Poisson{}, Horizon: 100}, "experiments: online scenario: taskgen: poisson: rate 0 <= 0"},
		{"nan rate", &OnlineScenario{Process: taskgen.Poisson{Rate: nan, MeanLifetime: 1}, Horizon: 100}, "experiments: online scenario: taskgen: poisson: rate NaN is not finite"},
		{"inf rate", &OnlineScenario{Process: taskgen.Poisson{Rate: inf, MeanLifetime: 1}, Horizon: 100}, "experiments: online scenario: taskgen: poisson: rate +Inf is not finite"},
		{"nan lifetime", &OnlineScenario{Process: taskgen.Poisson{Rate: 1, MeanLifetime: nan}, Horizon: 100}, "experiments: online scenario: taskgen: poisson: mean lifetime NaN is not finite"},
		{"bad horizon", &OnlineScenario{Process: ok}, "experiments: online scenario: horizon 0 <= 0"},
		{"nan horizon", &OnlineScenario{Process: ok, Horizon: nan}, "experiments: online scenario: horizon NaN is not finite"},
		{"inf horizon", &OnlineScenario{Process: ok, Horizon: inf}, "experiments: online scenario: horizon +Inf is not finite"},
		{"-inf horizon", &OnlineScenario{Process: ok, Horizon: -inf}, "experiments: online scenario: horizon -Inf is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := testOnlineSweep(1, 1)
			sw.Scenario = tc.sc
			_, err := sw.RunContext(context.Background(), nil)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error:\n got: %v\nwant: %s", err, tc.want)
			}
		})
	}
}

// TestOnlineSweepAggregates runs a small online sweep end to end and
// checks the aggregate invariants: every replication counted, verdicts
// conserved (admitted + shed = arrivals, whole-horizon and per
// bucket), occupancy within [0, universe], utilization curves within
// [0, 1], and saturation monotonicity — the heavier NSU point sheds at
// least as much as the lighter one.
func TestOnlineSweepAggregates(t *testing.T) {
	sets := 12
	sw := testOnlineSweep(sets, 3)
	res := sw.Run()
	if len(res.Quarantined) != 0 {
		t.Fatalf("unexpected quarantines: %v", res.Quarantined)
	}
	for pi := range res.Points {
		for vi := range sw.Variants {
			cell := &res.Points[pi].Cells[vi]
			if got := cell.Sched.N(); got != int64(sets) {
				t.Fatalf("point %d variant %d: %d replications counted, want %d", pi, vi, got, sets)
			}
			oc := cell.Online
			if oc == nil {
				t.Fatalf("point %d variant %d: nil online cell", pi, vi)
			}
			var bucketHits, bucketN int64
			for b := range oc.AdmitOverTime {
				bucketHits += oc.AdmitOverTime[b].Hits()
				bucketN += oc.AdmitOverTime[b].N()
			}
			if bucketHits != oc.Admitted.Hits() || bucketN != oc.Admitted.N() {
				t.Fatalf("point %d variant %d: bucket verdicts %d/%d disagree with totals %d/%d",
					pi, vi, bucketHits, bucketN, oc.Admitted.Hits(), oc.Admitted.N())
			}
			if oc.Admitted.N() == 0 {
				t.Fatalf("point %d variant %d: no arrivals observed", pi, vi)
			}
			if occ := oc.Occupancy.Mean(); occ < 0 || occ > 24 {
				t.Fatalf("point %d variant %d: occupancy %v outside [0, 24]", pi, vi, occ)
			}
			if u := oc.CoreUtil.Mean(); u < 0 || u > 1+1e-9 {
				t.Fatalf("point %d variant %d: core utilization %v outside [0, 1]", pi, vi, u)
			}
			for b := range oc.UtilOverTime {
				if n := oc.UtilOverTime[b].N(); n != int64(sets) {
					t.Fatalf("point %d variant %d bucket %d: %d samples, want %d", pi, vi, b, n, sets)
				}
				if u := oc.UtilOverTime[b].Mean(); u < 0 || u > 1+1e-9 {
					t.Fatalf("point %d variant %d bucket %d: utilization %v outside [0, 1]", pi, vi, b, u)
				}
			}
		}
	}
	for vi := range sw.Variants {
		light := res.Points[0].Cells[vi].Online
		heavy := res.Points[1].Cells[vi].Online
		if heavy.shedRate() < light.shedRate() {
			t.Errorf("variant %d: heavier point sheds less (%v) than lighter (%v)",
				vi, heavy.shedRate(), light.shedRate())
		}
	}
}

// TestOnlineSweepWorkerCountDeterminism checks the striping contract
// for online sweeps: admission and shed counts are exact integers
// independent of the worker count, and the compensated means agree to
// ~1e-9 across worker counts.
func TestOnlineSweepWorkerCountDeterminism(t *testing.T) {
	a := testOnlineSweep(10, 1).Run()
	b := testOnlineSweep(10, 4).Run()
	for pi := range a.Points {
		for vi := range a.Points[pi].Cells {
			ca, cb := a.Points[pi].Cells[vi].Online, b.Points[pi].Cells[vi].Online
			if ca.Admitted.Hits() != cb.Admitted.Hits() || ca.Admitted.N() != cb.Admitted.N() {
				t.Fatalf("point %d variant %d: admission counts differ across worker counts: %d/%d vs %d/%d",
					pi, vi, ca.Admitted.Hits(), ca.Admitted.N(), cb.Admitted.Hits(), cb.Admitted.N())
			}
			if math.Abs(ca.Occupancy.Mean()-cb.Occupancy.Mean()) > 1e-9 {
				t.Fatalf("point %d variant %d: occupancy %v vs %v across worker counts",
					pi, vi, ca.Occupancy.Mean(), cb.Occupancy.Mean())
			}
			if math.Abs(ca.CoreUtil.Mean()-cb.CoreUtil.Mean()) > 1e-9 {
				t.Fatalf("point %d variant %d: core utilization %v vs %v across worker counts",
					pi, vi, ca.CoreUtil.Mean(), cb.CoreUtil.Mean())
			}
			for bkt := range ca.AdmitOverTime {
				if ca.AdmitOverTime[bkt].Hits() != cb.AdmitOverTime[bkt].Hits() {
					t.Fatalf("point %d variant %d bucket %d: bucket verdicts differ across worker counts", pi, vi, bkt)
				}
			}
		}
	}
}

// TestOnlineSweepMetrics checks the online observability surface: the
// counting invariant per variant (admitted + shed arrivals = the
// cells' totals), the event counter, and that the static accepted/
// rejected counters keep their meaning (clean replications).
func TestOnlineSweepMetrics(t *testing.T) {
	sw := testOnlineSweep(8, 2)
	reg := obs.NewRegistry()
	m := NewSweepMetricsFor(reg, sw)
	res, err := sw.RunContext(context.Background(), &RunConfig{Metrics: m})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got, want := m.SetsTotal(), int64(8*len(sw.Values)); got != want {
		t.Fatalf("SetsTotal = %d, want %d", got, want)
	}
	if m.EventsTotal() == 0 {
		t.Fatal("EventsTotal = 0, want > 0")
	}
	for vi := range sw.Variants {
		var hits, n, clean int64
		for pi := range res.Points {
			oc := res.Points[pi].Cells[vi].Online
			hits += oc.Admitted.Hits()
			n += oc.Admitted.N()
			clean += res.Points[pi].Cells[vi].Sched.Hits()
		}
		if got := m.AdmittedArrivals(vi); got != hits {
			t.Fatalf("variant %d: AdmittedArrivals = %d, want %d", vi, got, hits)
		}
		if got := m.ShedArrivals(vi); got != n-hits {
			t.Fatalf("variant %d: ShedArrivals = %d, want %d", vi, got, n-hits)
		}
		if got := m.AcceptedVariant(sw.Variants[vi]); got != clean {
			t.Fatalf("variant %d: accepted = %d, want %d clean replications", vi, got, clean)
		}
		if got := m.RejectedVariant(sw.Variants[vi]); got != int64(8*len(sw.Values))-clean {
			t.Fatalf("variant %d: rejected = %d, want %d", vi, got, int64(8*len(sw.Values))-clean)
		}
	}
	// Static surfaces read zero on the online accessors.
	ms := NewSweepMetricsFor(obs.NewRegistry(), &Sweep{})
	if ms.EventsTotal() != 0 || ms.AdmittedArrivals(0) != 0 || ms.ShedArrivals(0) != 0 {
		t.Fatal("static surface's online accessors must read zero")
	}
}

// TestOnlineCharts checks the online chart family: four charts, the
// first three on the sweep axis, the last on bucket-midpoint scenario
// time, all with one series per variant.
func TestOnlineCharts(t *testing.T) {
	sw := testOnlineSweep(6, 2)
	res := sw.Run()
	charts := res.Charts()
	if len(charts) != 4 {
		t.Fatalf("%d charts, want 4", len(charts))
	}
	for ci, ch := range charts {
		if len(ch.Series) != len(sw.Variants) {
			t.Fatalf("chart %d: %d series, want %d", ci, len(ch.Series), len(sw.Variants))
		}
	}
	for ci := 0; ci < 3; ci++ {
		if got, want := len(charts[ci].X), len(sw.Values); got != want {
			t.Fatalf("chart %d: %d X values, want %d", ci, got, want)
		}
	}
	if got := len(charts[3].X); got != 8 {
		t.Fatalf("over-time chart: %d X values, want 8 buckets", got)
	}
	if charts[3].X[0] != 62.5 || charts[3].X[7] != 937.5 {
		t.Fatalf("over-time bucket midpoints wrong: %v", charts[3].X)
	}
	for vi := range sw.Variants {
		for pi := range sw.Values {
			admit := charts[0].Series[vi].Y[pi]
			shed := charts[1].Series[vi].Y[pi]
			if math.Abs(admit+shed-1) > 1e-12 {
				t.Fatalf("variant %d point %d: admission %v + shed %v != 1", vi, pi, admit, shed)
			}
		}
	}
}

// panicSource quarantine-tests the online path: generation of one
// specific replication panics.
type panicSource struct {
	g   *taskgen.Generator
	bad int
}

func (p *panicSource) Generate(cfg *taskgen.Config, baseSeed int64, idx int) *mc.TaskSet {
	if idx == p.bad {
		panic("panicSource: injected fault")
	}
	return p.g.Generate(cfg, baseSeed, idx)
}

// TestOnlineQuarantine checks that a panicking replication quarantines
// instead of crashing, counts as unclean for every variant, and leaves
// totals exact.
func TestOnlineQuarantine(t *testing.T) {
	sets := 6
	sw := testOnlineSweep(sets, 2)
	sw.Scenario.(*OnlineScenario).NewSource = func() taskgen.TaskSource {
		return &panicSource{g: taskgen.NewGenerator(), bad: 3}
	}
	res := sw.Run()
	if got, want := len(res.Quarantined), len(sw.Values); got != want {
		t.Fatalf("%d quarantines, want %d (one per point)", got, want)
	}
	for _, q := range res.Quarantined {
		if q.Set != 3 {
			t.Fatalf("quarantined set %d, want 3", q.Set)
		}
	}
	for pi := range res.Points {
		for vi := range res.Points[pi].Cells {
			if got := res.Points[pi].Cells[vi].Sched.N(); got != int64(sets) {
				t.Fatalf("point %d variant %d: %d replications counted, want %d", pi, vi, got, sets)
			}
		}
	}
}

// TestOnlineScenarioZeroAllocs proves the online hot path's slab
// contract: steady-state replication evaluation — generate, build the
// stream, replay per variant, with instrumentation attached — performs
// no heap allocations.
func TestOnlineScenarioZeroAllocs(t *testing.T) {
	sw := testOnlineSweep(1, 1)
	reg := obs.NewRegistry()
	m := NewSweepMetricsFor(reg, sw)
	variants := sw.ActiveVariants()
	params := DefaultParams()
	sw.Apply(&params, sw.Values[0])
	cfg := params.genConfig()
	opts := partition.Options{Alpha: params.Alpha}
	jb := job{
		cfg:      &cfg,
		seed:     sw.Seed,
		m:        params.M,
		k:        params.K,
		opts:     &opts,
		variants: variants,
		groups:   buildGroups(variants),
		sets:     1 << 20,
		metrics:  m,
		row:      make([]Cell, len(variants)),
	}
	w := sw.scenario().newWorker()
	w.arm(&jb)
	for set := 0; set < 16; set++ {
		if q := w.evalSet(&jb, set); q != nil {
			t.Fatalf("unexpected quarantine: %v", q)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if q := w.evalSet(&jb, 5); q != nil {
			t.Fatalf("unexpected quarantine: %v", q)
		}
	})
	if allocs != 0 {
		t.Fatalf("online evalSet allocates %v times per replication, want 0", allocs)
	}
}

// TestOnlineReplayLastUlpArrival replays a hand-built stream whose one
// arrival lands after buckets*(Horizon/buckets), which rounds below the
// horizon for Horizon 7.03 and 3 buckets: the arrival has closed every
// bucket, and its verdict must count in the last one instead of
// indexing past the bucket slab.
func TestOnlineReplayLastUlpArrival(t *testing.T) {
	o := &OnlineScenario{Process: taskgen.Poisson{Rate: 1, MeanLifetime: 1}, Horizon: 7.03, Buckets: 3}
	at := math.Nextafter(o.Horizon, 0)
	if bw := o.Horizon / 3; 3*bw > at {
		t.Fatalf("3*(%v/3) = %v does not round below the arrival at %v", o.Horizon, 3*bw, at)
	}
	variants := []Variant{{Scheme: partition.CATPA}}
	opts := partition.Options{}
	jb := job{m: 2, k: 2, opts: &opts, variants: variants, groups: buildGroups(variants), row: make([]Cell, 1)}
	w := o.newWorker().(*onlineWorker)
	w.arm(&jb)
	ts := mc.NewTaskSet(mc.MustTask(0, "hi", 10, 1, 2), mc.MustTask(0, "lo", 20, 3))
	events := []taskgen.Event{{Time: at, Task: 0, Arrive: true}}
	w.replay(&jb, w.parts[jb.groups[0].backend], partition.CATPA, ts, events, 0)
	oc := jb.row[0].Online
	if n, hits := oc.Admitted.N(), oc.Admitted.Hits(); n != 1 || hits != 1 {
		t.Fatalf("admitted %d of %d arrivals, want 1 of 1", hits, n)
	}
	if last := &oc.AdmitOverTime[2]; last.N() != 1 || last.Hits() != 1 {
		t.Fatalf("last bucket holds %d of %d verdicts, want 1 of 1", last.Hits(), last.N())
	}
}
