package fpamc

import (
	"math"
	"math/rand"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/sim"
)

func dualSet(rng *rand.Rand, n int, nsu float64, m int) *mc.TaskSet {
	ts := &mc.TaskSet{}
	ubase := nsu * float64(m) / float64(n)
	for i := 0; i < n; i++ {
		p := []float64{20, 50, 100, 200}[rng.Intn(4)]
		crit := 1 + rng.Intn(2)
		c1 := (0.2 + rng.Float64()*1.6) * p * ubase
		w := []float64{c1}
		if crit == 2 {
			w = append(w, c1*1.4)
		}
		tk := mc.Task{ID: i + 1, Period: p, Crit: crit, WCET: w}
		if tk.MaxUtil() > 1 {
			tk.Crit = 1
			tk.WCET = tk.WCET[:1]
			if tk.MaxUtil() > 1 {
				tk.WCET[0] = p
			}
		}
		ts.Tasks = append(ts.Tasks, tk)
	}
	return ts
}

func TestPartitionBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := dualSet(rng, 24, 0.4, 4)
	for _, s := range []partition.Scheme{partition.WFD, partition.FFD, partition.BFD, partition.Hybrid} {
		r, err := Partition(ts, 4, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !r.Feasible {
			t.Fatalf("%v: infeasible on an easy set", s)
		}
		// Independent re-check: every core subset passes AMC-rtb.
		for c, ci := range r.Cores {
			var subset []mc.Task
			for _, ti := range ci.Tasks {
				subset = append(subset, ts.Tasks[ti])
			}
			if !Schedulable(subset) {
				t.Fatalf("%v: core %d fails re-analysis", s, c)
			}
		}
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	tri := mc.NewTaskSet(mc.Task{ID: 1, Period: 10, Crit: 3, WCET: []float64{1, 2, 3}})
	if _, err := Partition(tri, 2, partition.FFD); err == nil {
		t.Error("criticality 3 accepted")
	}
	dual := mc.NewTaskSet(mc.Task{ID: 1, Period: 10, Crit: 1, WCET: []float64{1}})
	if _, err := Partition(dual, 0, partition.FFD); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Partition(dual, 2, partition.Scheme(99)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestPartitionCATPA: the unified allocator gives the FP path CA-TPA
// for free; accepted partitions must re-verify under AMC-rtb.
func TestPartitionCATPA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	accepted := 0
	for trial := 0; trial < 20; trial++ {
		ts := dualSet(rng, 24, 0.3+rng.Float64()*0.3, 4)
		r, err := Partition(ts, 4, partition.CATPA)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			continue
		}
		accepted++
		for c, ci := range r.Cores {
			var subset []mc.Task
			for _, ti := range ci.Tasks {
				subset = append(subset, ts.Tasks[ti])
			}
			if !Schedulable(subset) {
				t.Fatalf("trial %d: core %d fails re-analysis", trial, c)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("CA-TPA over AMC-rtb accepted nothing on easy sets")
	}
}

func TestPartitionInfeasibleReported(t *testing.T) {
	ts := &mc.TaskSet{}
	for i := 0; i < 3; i++ {
		ts.Tasks = append(ts.Tasks, mc.Task{ID: i + 1, Period: 10, Crit: 1, WCET: []float64{8}})
	}
	r, err := Partition(ts, 2, partition.FFD)
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible || r.FailedTask < 0 {
		t.Fatalf("overload not detected: %+v", r)
	}
}

// TestPartitionedFPSurvivesRuntime: an accepted partitioned-FP system
// executes miss-free under worst-case demands on every core.
func TestPartitionedFPSurvivesRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		ts := dualSet(rng, 30, 0.35+rng.Float64()*0.15, 4)
		r, err := Partition(ts, 4, partition.FFD)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			continue
		}
		for c := range r.Cores {
			var subset []mc.Task
			for _, ti := range r.Cores[c].Tasks {
				subset = append(subset, ts.Tasks[ti])
			}
			if len(subset) == 0 {
				continue
			}
			st := sim.SimulateCore(sim.CoreConfig{
				Tasks:         subset,
				K:             2,
				Horizon:       8000,
				Model:         sim.WorstCaseModel{},
				FixedPriority: true,
				Priorities:    Priorities(subset),
			})
			if st.Missed != 0 {
				t.Fatalf("trial %d core %d: %d misses", trial, c, st.Missed)
			}
		}
	}
}

// TestEDFVDvsFPAcceptance compares partitioned EDF-VD (CA-TPA,
// utilization-based Theorem-1 test) against partitioned FP (AMC-rtb
// response-time analysis, FFD) on the same dual-criticality
// populations. Neither dominates in general: EDF dominates FP given
// exact tests, but the Eq. 7-style EDF-VD test is utilization-based
// and pessimistic while AMC-rtb computes exact fixed points, so at
// high load FP acceptance can exceed EDF-VD acceptance (see
// examples/fpcompare). The test asserts both paths work and stay
// within a plausible band of each other.
func TestEDFVDvsFPAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	const trials = 150
	edf, fp := 0, 0
	for trial := 0; trial < trials; trial++ {
		ts := dualSet(rng, 40, 0.6+0.2*rng.Float64(), 4)
		if partition.New(4, 2).Run(ts, partition.CATPA, nil).Feasible {
			edf++
		}
		r, err := Partition(ts, 4, partition.FFD)
		if err != nil {
			t.Fatal(err)
		}
		if r.Feasible {
			fp++
		}
	}
	if edf == 0 || fp == 0 {
		t.Fatalf("degenerate acceptance: EDF-VD %d, FP %d", edf, fp)
	}
	if diff := edf - fp; diff > trials/2 || diff < -trials/2 {
		t.Errorf("acceptance gap implausibly large: EDF-VD %d vs FP %d", edf, fp)
	}
	t.Logf("acceptance over %d sets: partitioned EDF-VD (CA-TPA) %d, partitioned FP (AMC-rtb FFD) %d", trials, edf, fp)
}

// TestBackendProtocol exercises the partition.Backend surface of the
// AMC-rtb backend directly: identity, buffer reuse across Reset, the
// commit of a probed placement, and report contents.
func TestBackendProtocol(t *testing.T) {
	b := new(Backend)
	if b.Name() != BackendName || b.MaxLevels() != 2 {
		t.Fatalf("identity: name %q maxLevels %d", b.Name(), b.MaxLevels())
	}
	rng := rand.New(rand.NewSource(5))
	ts := dualSet(rng, 8, 0.3, 2)

	for round := 0; round < 2; round++ { // second round reuses buffers
		b.Reset(2, 2)
		b.Prepare(ts)
		b.Begin()
		if !b.FeasibleWith(0, 0) {
			t.Fatal("empty core rejects a light task")
		}
		u := b.ProbeUtil(0, 0, false, 0, math.Inf(1))
		b.Place(0, 0) // commits the probe's analysis
		if got := b.OwnLoad(0); got != u {
			t.Errorf("round %d: OwnLoad %v != probed %v", round, got, u)
		}
		if b.CoreUtil(0, true) != b.CoreUtil(0, false) {
			t.Error("amcrtb CoreUtil should not depend on the worst flag")
		}
		var ci partition.CoreInfo
		ci.Lambda = []float64{0.5} // must be cleared by ReportInto
		b.ReportInto(0, &ci)
		if ci.Util != b.OwnLoad(0) || ci.FeasibleK != 0 || len(ci.Lambda) != 0 {
			t.Errorf("round %d: report %+v", round, ci)
		}
	}
}

// TestBackendSchedulableEmpty pins the empty-core boundary: Schedulable
// accepts the empty subset, a fresh core carries no load, and a probe
// onto an empty core is exactly Schedulable of the lone task, on both
// sides of the verdict.
func TestBackendSchedulableEmpty(t *testing.T) {
	if !Schedulable(nil) {
		t.Error("Schedulable(nil) = false")
	}
	ts := dualSet(rand.New(rand.NewSource(99)), 8, 0.9, 1)
	// A HI task whose level-2 budget exceeds its period fails alone.
	ts.Tasks = append(ts.Tasks, mc.Task{ID: 9, Period: 10, Crit: 2, WCET: []float64{5, 12}})
	b := &Backend{}
	b.Reset(1, 2)
	b.Prepare(ts)
	b.Begin()
	if load := b.OwnLoad(0); load != 0 {
		t.Fatalf("fresh core carries load %v", load)
	}
	rejected := false
	for ti := range ts.Tasks {
		got, want := b.FeasibleWith(0, ti), Schedulable(ts.Tasks[ti:ti+1])
		if got != want {
			t.Fatalf("task %d on an empty core: FeasibleWith %v, Schedulable %v", ti, got, want)
		}
		rejected = rejected || !got
	}
	if !rejected {
		t.Fatal("no lone task was rejected; the fixture lost its infeasible case")
	}
}
