package fpamc_test

// The tests in this file run the unified allocator of
// internal/partition atop the AMC-rtb backend, so they live outside
// package fpamc: partition imports fpamc for its amcrtb adapter.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"catpa/internal/fpamc"
	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/sim"
)

// fpPartition runs the allocator atop a fresh amcrtb backend on m
// cores.
func fpPartition(t *testing.T, ts *mc.TaskSet, m int, scheme partition.Scheme, opts *partition.Options) *partition.Result {
	t.Helper()
	be, err := partition.NewBackend(fpamc.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	return partition.NewWithBackend(m, 2, be).Run(ts, scheme, opts)
}

func TestPartitionBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := fpamc.DualSet(rng, 24, 0.4, 4)
	for _, s := range []partition.Scheme{partition.WFD, partition.FFD, partition.BFD, partition.Hybrid} {
		r := fpPartition(t, ts, 4, s, nil)
		if !r.Feasible {
			t.Fatalf("%v: infeasible on an easy set", s)
		}
		// Independent re-check: every core subset passes AMC-rtb.
		for c, ci := range r.Cores {
			var subset []mc.Task
			for _, ti := range ci.Tasks {
				subset = append(subset, ts.Tasks[ti])
			}
			if !fpamc.Schedulable(subset) {
				t.Fatalf("%v: core %d fails re-analysis", s, c)
			}
		}
	}
}

// TestPartitionCATPA: the unified allocator gives the FP path CA-TPA
// for free; accepted partitions must re-verify under AMC-rtb.
func TestPartitionCATPA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	accepted := 0
	for trial := 0; trial < 20; trial++ {
		ts := fpamc.DualSet(rng, 24, 0.3+rng.Float64()*0.3, 4)
		r := fpPartition(t, ts, 4, partition.CATPA, nil)
		if !r.Feasible {
			continue
		}
		accepted++
		for c, ci := range r.Cores {
			var subset []mc.Task
			for _, ti := range ci.Tasks {
				subset = append(subset, ts.Tasks[ti])
			}
			if !fpamc.Schedulable(subset) {
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
	r := fpPartition(t, ts, 2, partition.FFD, nil)
	if r.Feasible || r.FailedTask < 0 {
		t.Fatalf("overload not detected: %+v", r)
	}
}

// TestPartitionedFPSurvivesRuntime: an accepted partitioned-FP system
// executes miss-free under worst-case demands on every core.
func TestPartitionedFPSurvivesRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		ts := fpamc.DualSet(rng, 30, 0.35+rng.Float64()*0.15, 4)
		r := fpPartition(t, ts, 4, partition.FFD, nil)
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
				Priorities:    fpamc.Priorities(subset),
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
// Example_fpcompare in the root package). The test asserts both paths
// work and stay within a plausible band of each other.
func TestEDFVDvsFPAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	const trials = 150
	edf, fp := 0, 0
	for trial := 0; trial < trials; trial++ {
		ts := fpamc.DualSet(rng, 40, 0.6+0.2*rng.Float64(), 4)
		if partition.New(4, 2).Run(ts, partition.CATPA, nil).Feasible {
			edf++
		}
		r := fpPartition(t, ts, 4, partition.FFD, nil)
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
// AMC-rtb backend: identity, buffer reuse across Reset, the commit of
// a probed placement, and report contents.
func TestBackendProtocol(t *testing.T) {
	b, err := partition.NewBackend(fpamc.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != fpamc.BackendName || b.MaxLevels() != 2 {
		t.Fatalf("identity: name %q maxLevels %d", b.Name(), b.MaxLevels())
	}
	rng := rand.New(rand.NewSource(5))
	ts := fpamc.DualSet(rng, 8, 0.3, 2)

	for round := 0; round < 2; round++ { // second round reuses buffers
		b.Reset(2, 2)
		b.Prepare(ts)
		b.Begin()
		if !b.FeasibleWith(0, 0) {
			t.Fatal("empty core rejects a light task")
		}
		u := b.ProbeUtil(0, 0, 0, math.Inf(1))
		b.Place(0, 0) // commits the probe's analysis
		if got := b.OwnLoad(0); got != u {
			t.Errorf("round %d: OwnLoad %v != probed %v", round, got, u)
		}
		if got := b.CoreUtil(0); got != u {
			t.Errorf("round %d: CoreUtil %v != probed %v", round, got, u)
		}
		var ci partition.CoreInfo
		ci.Lambda = []float64{0.5} // must be cleared by ReportInto
		b.ReportInto(0, &ci)
		if ci.Util != b.OwnLoad(0) || ci.FeasibleK != 0 || len(ci.Lambda) != 0 {
			t.Errorf("round %d: report %+v", round, ci)
		}
	}
}

// FuzzBackendAgreement replays the unified allocator running atop the
// AMC-rtb backend against the closure-based Schedulable oracle, which
// shares none of the backend's incremental state. On arbitrary
// dual-criticality sets it runs every scheme, CA-TPA included, with
// Trace on and re-derives each step of the trace from Schedulable
// over a model of the cores' members in placement order:
//
//   - tasks come in SortByMaxUtil order (Hybrid: the HI tasks first,
//     then the LO tasks), or in SortByContribution order for CA-TPA;
//   - every chosen core accepts the task, and a failed task fits no
//     core and ends the run;
//   - the pick is the scheme's scan over the cores Schedulable
//     accepts: FFD the first, BFD/WFD the fullest/emptiest under the
//     fpamc.Eps hysteresis, Hybrid WFD for HI and FFD for LO tasks, CA-TPA
//     the minimum increment, or the least-loaded core once the
//     imbalance exceeds alpha;
//   - each core's Util and OwnLevelLoad are bitwise the sum of its
//     members' MaxUtil in placement order, and the aggregate metrics
//     are recomputed from those sums.
//
// Exact float equality is intentional: the backend accumulates the
// same sums in the same order, so any divergence is a real protocol
// regression, not rounding noise.
func FuzzBackendAgreement(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(2))
	seed := make([]byte, 0, 16*6)
	for i := 0; i < 16; i++ {
		seed = append(seed,
			byte(37*i), byte(i), // period
			byte(200+13*i), byte(2), // u1
			byte(i),   // crit
			byte(5*i)) // growth
	}
	f.Add(seed, uint8(1), uint8(4))
	f.Add(seed, uint8(3), uint8(3))
	// CA-TPA (schemeSel 4): the heavy seed above fails within m+1
	// steps; a lighter 24-task set fails late on four cores and fits on
	// eight, taking both the imbalance fallback and the minimum
	// increment on the way.
	f.Add(seed, uint8(4), uint8(7))
	light := make([]byte, 0, 24*6)
	for i := 0; i < 24; i++ {
		light = append(light,
			byte(53*i), byte(i%7), // period
			byte(30+9*i), 0, // u1
			byte(i),    // crit
			byte(11*i)) // growth
	}
	for _, mSel := range []uint8{1, 3, 7} {
		f.Add(light, uint8(4), mSel)
	}

	f.Fuzz(func(t *testing.T, data []byte, schemeSel, mSel uint8) {
		ts := fpamc.DecodeDualSet(t, data)
		if ts == nil {
			return
		}
		scheme := partition.Schemes[int(schemeSel)%len(partition.Schemes)]
		m := 1 + int(mSel)%8
		r := fpPartition(t, ts, m, scheme, &partition.Options{Trace: true})
		checkTraceAgainstSchedulable(t, ts, m, scheme, r)
	})
}

// checkTraceAgainstSchedulable replays the traced run r step by step
// against Schedulable; see FuzzBackendAgreement for what it checks.
func checkTraceAgainstSchedulable(t *testing.T, ts *mc.TaskSet, m int, scheme partition.Scheme, r *partition.Result) {
	t.Helper()
	var order []int
	switch scheme {
	case partition.CATPA:
		order = mc.SortByContribution(ts)
	case partition.Hybrid:
		for _, hi := range []bool{true, false} {
			for _, ti := range mc.SortByMaxUtil(ts) {
				if (ts.Tasks[ti].Crit >= 2) == hi {
					order = append(order, ti)
				}
			}
		}
	default:
		order = mc.SortByMaxUtil(ts)
	}

	members := make([][]int, m)
	loads := make([]float64, m)
	assign := make([]int, ts.Len())
	for i := range assign {
		assign[i] = -1
	}
	fits := make([]bool, m)
	var trial []mc.Task
	failed := -1
	for step, st := range r.Trace {
		if failed >= 0 || step >= len(order) || st.Task != order[step] {
			t.Fatalf("%v m=%d step %d: task %d, want order %v up to the first failure", scheme, m, step, st.Task, order)
		}
		ti := st.Task
		for c := range fits {
			trial = trial[:0]
			for _, tj := range members[c] {
				trial = append(trial, ts.Tasks[tj])
			}
			fits[c] = fpamc.Schedulable(append(trial, ts.Tasks[ti]))
		}
		want := pickBySchedulable(scheme, &ts.Tasks[ti], fits, loads)
		if st.Core != want {
			t.Fatalf("%v m=%d step %d: task %d on core %d, Schedulable scan picks %d (fits %v, loads %v)",
				scheme, m, step, ti, st.Core, want, fits, loads)
		}
		if want < 0 {
			failed = ti
			continue
		}
		members[want] = append(members[want], ti)
		loads[want] += ts.Tasks[ti].MaxUtil()
		assign[ti] = want
		if math.Float64bits(st.Util) != math.Float64bits(loads[want]) {
			t.Fatalf("%v m=%d step %d: core %d util %v, MaxUtil sum %v", scheme, m, step, want, st.Util, loads[want])
		}
	}
	if failed < 0 && len(r.Trace) != len(order) {
		t.Fatalf("%v m=%d: trace has %d steps for %d tasks and no failure", scheme, m, len(r.Trace), len(order))
	}
	if r.Feasible != (failed < 0) || r.FailedTask != failed {
		t.Fatalf("%v m=%d: verdict (%v, failed %d), trace failed %d", scheme, m, r.Feasible, r.FailedTask, failed)
	}
	if !slices.Equal(r.Assignment, assign) {
		t.Fatalf("%v m=%d: assignment %v, trace %v", scheme, m, r.Assignment, assign)
	}
	maxU, minU, sum := math.Inf(-1), math.Inf(1), 0.0
	for c, ci := range r.Cores {
		if !slices.Equal(ci.Tasks, members[c]) {
			t.Fatalf("%v m=%d core %d: tasks %v, trace %v", scheme, m, c, ci.Tasks, members[c])
		}
		u := loads[c]
		if math.Float64bits(ci.Util) != math.Float64bits(u) || math.Float64bits(ci.OwnLevelLoad) != math.Float64bits(u) {
			t.Fatalf("%v m=%d core %d: Util %v OwnLevelLoad %v, MaxUtil sum %v", scheme, m, c, ci.Util, ci.OwnLevelLoad, u)
		}
		sum += u
		maxU = math.Max(maxU, u)
		minU = math.Min(minU, u)
	}
	imb := 0.0
	if maxU > fpamc.Eps {
		imb = (maxU - minU) / maxU
	}
	if r.Usys != maxU || r.Uavg != sum/float64(m) || r.Imbalance != imb {
		t.Fatalf("%v m=%d: metrics (%v, %v, %v), recomputed (%v, %v, %v)",
			scheme, m, r.Usys, r.Uavg, r.Imbalance, maxU, sum/float64(m), imb)
	}
}

// pickBySchedulable is the core each scheme's scan selects for task t
// when fits[c] is Schedulable's verdict on core c plus t and loads[c]
// the core's MaxUtil sum, or -1 when no core fits.
func pickBySchedulable(scheme partition.Scheme, t *mc.Task, fits []bool, loads []float64) int {
	maxU, minU := loads[0], loads[0]
	for _, u := range loads {
		maxU, minU = math.Max(maxU, u), math.Min(minU, u)
	}
	switch {
	case scheme == partition.Hybrid && t.Crit >= 2:
		scheme = partition.WFD
	case scheme == partition.Hybrid:
		scheme = partition.FFD
	case scheme == partition.CATPA && maxU > fpamc.Eps && (maxU-minU)/maxU > partition.DefaultAlpha:
		scheme = partition.WFD // the imbalance fallback: the least-loaded core
	}
	best, bestInc := -1, math.Inf(1)
	for c, ok := range fits {
		if !ok {
			continue
		}
		switch scheme {
		case partition.FFD:
			return c
		case partition.BFD:
			if best < 0 || loads[c] > loads[best]+fpamc.Eps {
				best = c
			}
		case partition.WFD:
			if best < 0 || loads[c] < loads[best]-fpamc.Eps {
				best = c
			}
		case partition.CATPA:
			// The minimum increment: MaxUtil on every core, up to
			// rounding.
			if inc := loads[c] + t.MaxUtil() - loads[c]; inc < bestInc-fpamc.Eps {
				best, bestInc = c, inc
			}
		}
	}
	return best
}
