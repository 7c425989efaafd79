package fpamc

import (
	"math/rand"
	"reflect"
	"testing"

	"catpa/internal/mc"
)

// handSet is the three-task dual-criticality set of the hand-computed
// delta tests. All periods and budgets are small integers, so every
// fixed point below is exact integer arithmetic in float64 and the
// expected responses can be verified by hand:
//
//	tau0: HI, T=10, C=(1,2)   rank 0 (deadline-monotonic)
//	tau1: LO, T=12, C=(2)     rank 1
//	tau2: HI, T=20, C=(3,6)   rank 2
func handSet() *mc.TaskSet {
	return &mc.TaskSet{Tasks: []mc.Task{
		{ID: 1, Period: 10, Crit: 2, WCET: []float64{1, 2}},
		{ID: 2, Period: 12, Crit: 1, WCET: []float64{2}},
		{ID: 3, Period: 20, Crit: 2, WCET: []float64{3, 6}},
	}}
}

// checkHandResponses asserts core c of b holds exactly the
// hand-computed committed responses of the full handSet subset, keyed
// by task index (the member order may differ between placements):
//
//	tau0: R_LO = 1 (no interference), R_HI = 2, R* = 2
//	tau1: R_LO = 2 + ceil(3/10)*1 = 3 (one tau0 hit)
//	tau2: R_LO = 3 + ceil(6/10)*1 + ceil(6/12)*2 = 6
//	      R_HI = 6 + ceil(8/10)*2 = 8
//	      R*   = 6 + ceil(10/10)*2 + ceil(6/12)*2 = 10
//	      (tau1's transition term frozen at its own R_LO window 6)
func checkHandResponses(t *testing.T, b *Backend, c int) {
	t.Helper()
	wantLO := map[int]float64{0: 1, 1: 3, 2: 6}
	wantHI := map[int]float64{0: 2, 2: 8}
	wantTR := map[int]float64{0: 2, 2: 10}
	wantRank := map[int]int{0: 0, 1: 1, 2: 2}
	if len(b.cores[c]) != 3 {
		t.Fatalf("core %d holds %d members, want 3", c, len(b.cores[c]))
	}
	for j, ti := range b.cores[c] {
		if b.ranks[c][j] != wantRank[ti] {
			t.Errorf("task %d: rank %d, want %d", ti, b.ranks[c][j], wantRank[ti])
		}
		if b.rLO[c][j] != wantLO[ti] {
			t.Errorf("task %d: R_LO = %v, want %v", ti, b.rLO[c][j], wantLO[ti])
		}
		if hi, ok := wantHI[ti]; ok {
			if b.rHI[c][j] != hi {
				t.Errorf("task %d: R_HI = %v, want %v", ti, b.rHI[c][j], hi)
			}
			if b.rTR[c][j] != wantTR[ti] {
				t.Errorf("task %d: R* = %v, want %v", ti, b.rTR[c][j], wantTR[ti])
			}
		}
	}
	if !b.allOK[c] {
		t.Errorf("core %d marked unschedulable; every hand response is within its deadline", c)
	}
}

// TestBackendDeltaHandComputed pins the warm-started commit delta
// against hand-run AMC-rtb fixed points, in two placement orders: the
// in-priority-order placement (each commit touches no earlier member)
// and the out-of-order placement (committing tau1 displaces tau2's
// rank and warm-recomputes its responses). Both must land on the same
// hand values, and removal must schedule the exact-recompute fallback
// — re-summing the load at once, deferring the fixed points to the
// next probe — whose rebuilt responses are again hand-checkable.
func TestBackendDeltaHandComputed(t *testing.T) {
	ts := handSet()

	for name, order := range map[string][]int{
		"priority-order":   {0, 1, 2},
		"displacing-order": {0, 2, 1},
	} {
		t.Run(name, func(t *testing.T) {
			b := &Backend{}
			b.Reset(1, 2)
			b.Prepare(ts)
			if !b.warmOK {
				t.Fatal("hand set rejected by the warm-start gate; budgets are far from Eps")
			}
			b.Begin()
			for _, ti := range order {
				if !b.FeasibleWith(0, ti) {
					t.Fatalf("task %d rejected on a hand-schedulable core", ti)
				}
				b.Place(0, ti)
			}
			checkHandResponses(t, b, 0)
			// Accumulate the expected load with runtime float adds in
			// placement order; a constant-folded sum would round once
			// at the end instead of once per add.
			want := 0.0
			for _, ti := range order {
				want += ts.Tasks[ti].MaxUtil()
			}
			if b.OwnLoad(0) != want {
				t.Errorf("OwnLoad = %v, want %v", b.OwnLoad(0), want)
			}

			// Remove the highest-priority task: the removal delta must
			// schedule the fallback (dirty) and re-sum the load over the
			// survivors in placement order at once, so the load reads
			// answer without running it. The next probe runs it, and
			// the rebuilt core must hold the hand responses of the
			// surviving pair: tau1 alone at rank 0 (R_LO = 2), tau2
			// with one tau1 hit (R_LO = 3 + ceil(5/12)*2 = 5, R_HI = 6,
			// R* = 6 + ceil(5/12)*2 = 8).
			b.Remove(0, 0)
			if !b.dirty[0] {
				t.Fatal("Remove did not mark the core for the exact-recompute fallback")
			}
			wantLoad := 0.0
			for _, ti := range b.cores[0] {
				wantLoad += ts.Tasks[ti].MaxUtil()
			}
			if got := b.OwnLoad(0); got != wantLoad {
				t.Errorf("post-removal OwnLoad = %v, want %v", got, wantLoad)
			}
			if got := b.CoreUtil(0); got != wantLoad {
				t.Errorf("post-removal CoreUtil = %v, want %v", got, wantLoad)
			}
			if !b.dirty[0] {
				t.Fatal("a load read ran the deferred rebuild")
			}
			if !b.FeasibleWith(0, 0) {
				t.Fatal("tau0 rejected beside the surviving pair it was schedulable with")
			}
			if b.dirty[0] {
				t.Fatal("probe left the core dirty; the fallback did not run")
			}
			wantLO := map[int]float64{1: 2, 2: 5}
			for j, ti := range b.cores[0] {
				if b.rLO[0][j] != wantLO[ti] {
					t.Errorf("post-removal task %d: R_LO = %v, want %v", ti, b.rLO[0][j], wantLO[ti])
				}
			}
			for j, ti := range b.cores[0] {
				if ti != 2 {
					continue
				}
				if b.rHI[0][j] != 6 {
					t.Errorf("post-removal tau2: R_HI = %v, want 6", b.rHI[0][j])
				}
				if b.rTR[0][j] != 8 {
					t.Errorf("post-removal tau2: R* = %v, want 8", b.rTR[0][j])
				}
			}
		})
	}
}

// TestWarmStartMatchesColdRebuild is the differential proof behind the
// warm-start gate: on random dual-criticality populations, the
// committed responses the warm-started incremental commits leave must
// be bitwise the responses a forced cold rebuild (Reanalyze) computes
// from scratch. Any divergence would break the Backend contract's
// bit-identity invariant between the delta path and the fallback path.
func TestWarmStartMatchesColdRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	warmTrials := 0
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(12)
		ts := dualSet(rng, n, 0.3+rng.Float64()*0.5, 2)
		b := &Backend{}
		b.Reset(2, 2)
		b.Prepare(ts)
		if b.warmOK {
			warmTrials++
		}
		b.Begin()
		for ti := range ts.Tasks {
			c := ti % 2
			if !b.FeasibleWith(c, ti) {
				if c = 1 - c; !b.FeasibleWith(c, ti) {
					continue
				}
			}
			b.Place(c, ti)
		}
		for c := 0; c < 2; c++ {
			warmLO := append([]float64(nil), b.rLO[c]...)
			warmHI := append([]float64(nil), b.rHI[c]...)
			warmTR := append([]float64(nil), b.rTR[c]...)
			warmRank := append([]int(nil), b.ranks[c]...)
			warmLoad := b.loads[c]
			b.Reanalyze(c)
			for j, ti := range b.cores[c] {
				if b.ranks[c][j] != warmRank[j] {
					t.Fatalf("trial %d core %d task %d: warm rank %d, cold %d",
						trial, c, ti, warmRank[j], b.ranks[c][j])
				}
				if b.rLO[c][j] != warmLO[j] {
					t.Fatalf("trial %d core %d task %d: warm R_LO %v, cold %v",
						trial, c, ti, warmLO[j], b.rLO[c][j])
				}
				if ts.Tasks[ti].Crit >= 2 && (b.rHI[c][j] != warmHI[j] || b.rTR[c][j] != warmTR[j]) {
					t.Fatalf("trial %d core %d task %d: warm (R_HI,R*) (%v,%v), cold (%v,%v)",
						trial, c, ti, warmHI[j], warmTR[j], b.rHI[c][j], b.rTR[c][j])
				}
			}
			if b.loads[c] != warmLoad {
				t.Fatalf("trial %d core %d: warm load %v, cold %v", trial, c, warmLoad, b.loads[c])
			}
		}
	}
	// The proof is only evidence if the warm path actually ran.
	if warmTrials == 0 {
		t.Fatal("no trial passed the warm-start gate; the comparison is vacuous")
	}
}

// TestWarmStartGateRejectsTinyBudgets pins the fallback trigger of the
// warm-start gate itself: a set whose smallest level-1 budget sits
// inside the epsilon band must run with warmOK unset (cold seeds), as
// must one whose period/budget ratio cannot bound the cold iteration
// count under the cap.
func TestWarmStartGateRejectsTinyBudgets(t *testing.T) {
	b := &Backend{}
	b.Reset(1, 2)

	tiny := &mc.TaskSet{Tasks: []mc.Task{
		{ID: 1, Period: 10, Crit: 1, WCET: []float64{Eps}},
	}}
	b.Prepare(tiny)
	if b.warmOK {
		t.Error("warmOK with a budget inside the epsilon band")
	}

	extreme := &mc.TaskSet{Tasks: []mc.Task{
		{ID: 1, Period: 1e6, Crit: 1, WCET: []float64{0.05}},
	}}
	b.Prepare(extreme)
	if b.warmOK {
		t.Error("warmOK with period/budget beyond the iteration cap")
	}

	b.Prepare(handSet())
	if !b.warmOK {
		t.Error("warm-start gate rejects a comfortably bounded set")
	}
}

// coreSnapshot is a copy of core c's committed incremental state.
type coreSnapshot struct {
	cores, ranks   []int
	lo, hi, tr     []float64
	load, lu1, lu2 float64
	allOK          bool
}

func snapshotCore(b *Backend, c int) coreSnapshot {
	return coreSnapshot{
		cores: append([]int(nil), b.cores[c]...),
		ranks: append([]int(nil), b.ranks[c]...),
		lo:    append([]float64(nil), b.rLO[c]...),
		hi:    append([]float64(nil), b.rHI[c]...),
		tr:    append([]float64(nil), b.rTR[c]...),
		load:  b.loads[c], lu1: b.lu1[c], lu2: b.lu2[c],
		allOK: b.allOK[c],
	}
}

// checkReanalyzeStable asserts that a forced cold rebuild of core c
// changes no stored value: whatever path brought the core to its
// state left exactly what the reference rebuild computes.
func checkReanalyzeStable(t *testing.T, b *Backend, c int) {
	t.Helper()
	b.ensure(c)
	before := snapshotCore(b, c)
	b.Reanalyze(c)
	after := snapshotCore(b, c)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("Reanalyze changed core %d:\nbefore %+v\nafter  %+v", c, before, after)
	}
}

// handSetPlus is handSet plus tau3, a LO task (T=12, C=11) that misses
// its deadline beside tau0 (R_LO = 11 + ceil(11/10)*1 = 13 > 12), for
// the forced-infeasible placements.
func handSetPlus() *mc.TaskSet {
	ts := handSet()
	ts.Tasks = append(ts.Tasks, mc.Task{ID: 4, Period: 12, Crit: 1, WCET: []float64{11}})
	return ts
}

// fillHand places tau0, tau1, tau2 in priority order on core 0.
func fillHand(t *testing.T, ts *mc.TaskSet) *Backend {
	t.Helper()
	b := &Backend{}
	b.Reset(1, 2)
	b.Prepare(ts)
	b.Begin()
	for ti := 0; ti < 3; ti++ {
		if !b.FeasibleWith(0, ti) {
			t.Fatalf("task %d rejected on a hand-schedulable core", ti)
		}
		b.Place(0, ti)
	}
	return b
}

// TestDeltaSuffixRebuildHandComputed pins the suffix-only rebuild of
// Remove on handSet. Removing tau1 (rank 1) from the clean core must
// keep tau0's stored responses without recomputing them, recompute
// tau2 cold to the hand values of the pair {tau0, tau2}, and shift
// tau2's rank down:
//
//	tau2: R_LO = 3 + ceil(4/10)*1 = 4
//	      R_HI = 6 + ceil(8/10)*2 = 8
//	      R*   = 6 + ceil(8/10)*2 = 8 (no LO interferer left)
//
// Removing the rank-0 task, removing on a dirty core, and removing
// from a core a forced infeasible Place left unschedulable must take
// the full rebuild instead. A Reanalyze after any of them changes no
// stored value.
func TestDeltaSuffixRebuildHandComputed(t *testing.T) {
	t.Run("suffix", func(t *testing.T) {
		b := fillHand(t, handSet())
		checkHandResponses(t, b, 0)
		// Poison tau0's stored responses: a suffix rebuild must not
		// recompute rank 0, so the marks must survive it.
		lo, hi, tr := b.rLO[0][0], b.rHI[0][0], b.rTR[0][0]
		b.rLO[0][0], b.rHI[0][0], b.rTR[0][0] = -1, -2, -3
		b.Remove(0, 1)
		if b.dirty[0] || b.from[0] != 1 {
			t.Fatalf("Remove of rank 1: dirty=%v from=%d, want the suffix mark from rank 1", b.dirty[0], b.from[0])
		}
		want := handSet().Tasks[0].MaxUtil()
		want += handSet().Tasks[2].MaxUtil()
		if got := b.OwnLoad(0); got != want {
			t.Errorf("OwnLoad = %v, want %v", got, want)
		}
		if got := b.CoreUtil(0); got != want {
			t.Errorf("CoreUtil = %v, want %v", got, want)
		}
		if b.from[0] != 1 {
			t.Fatal("a load read ran the deferred suffix rebuild")
		}
		if !b.FeasibleWith(0, 1) {
			t.Fatal("tau1 rejected beside the pair it was schedulable with")
		}
		if b.from[0] != -1 {
			t.Fatal("probe left the suffix mark set")
		}
		if b.rLO[0][0] != -1 || b.rHI[0][0] != -2 || b.rTR[0][0] != -3 {
			t.Fatalf("suffix rebuild recomputed tau0: (%v, %v, %v)", b.rLO[0][0], b.rHI[0][0], b.rTR[0][0])
		}
		b.rLO[0][0], b.rHI[0][0], b.rTR[0][0] = lo, hi, tr
		if lo != 1 || hi != 2 || tr != 2 {
			t.Errorf("tau0 stored (%v, %v, %v), want (1, 2, 2)", lo, hi, tr)
		}
		if !reflect.DeepEqual(b.cores[0], []int{0, 2}) || !reflect.DeepEqual(b.ranks[0], []int{0, 1}) {
			t.Errorf("members %v ranks %v, want [0 2] [0 1]", b.cores[0], b.ranks[0])
		}
		if b.rLO[0][1] != 4 || b.rHI[0][1] != 8 || b.rTR[0][1] != 8 {
			t.Errorf("tau2 recomputed (%v, %v, %v), want (4, 8, 8)", b.rLO[0][1], b.rHI[0][1], b.rTR[0][1])
		}
		if !b.allOK[0] {
			t.Error("core marked unschedulable after a removal")
		}
		checkReanalyzeStable(t, b, 0)
	})

	t.Run("rank-0", func(t *testing.T) {
		b := fillHand(t, handSet())
		b.Remove(0, 0)
		if !b.dirty[0] {
			t.Fatal("Remove of the rank-0 task did not take the full rebuild")
		}
		checkReanalyzeStable(t, b, 0)
	})

	t.Run("dirty-core", func(t *testing.T) {
		b := fillHand(t, handSetPlus())
		b.Place(0, 3) // infeasible: forced, core dirty
		if !b.dirty[0] {
			t.Fatal("forced infeasible Place did not mark the core dirty")
		}
		b.Remove(0, 1)
		if !b.dirty[0] || b.from[0] != -1 {
			t.Fatalf("Remove on a dirty core: dirty=%v from=%d, want the full rebuild", b.dirty[0], b.from[0])
		}
		checkReanalyzeStable(t, b, 0)
		if b.allOK[0] {
			t.Error("core holding tau3 beside tau0 reported schedulable")
		}
	})

	t.Run("after-forced-place", func(t *testing.T) {
		b := fillHand(t, handSetPlus())
		b.Place(0, 3)
		if b.FeasibleWith(0, 3) { // rebuild: clean but unschedulable
			t.Fatal("a core holding tau3 beside tau0 accepted a probe")
		}
		if b.dirty[0] || b.allOK[0] {
			t.Fatalf("after the rebuild: dirty=%v allOK=%v, want clean and unschedulable", b.dirty[0], b.allOK[0])
		}
		b.Remove(0, 1)
		if !b.dirty[0] {
			t.Fatal("Remove on an unschedulable core did not take the full rebuild")
		}
		checkReanalyzeStable(t, b, 0)
		b.Remove(0, 3)
		if !b.dirty[0] {
			t.Fatal("Remove of the infeasible member did not take the full rebuild")
		}
		b.ensure(0)
		if !b.allOK[0] {
			t.Fatal("core still unschedulable after the infeasible member left")
		}
		if b.rLO[0][1] != 4 || b.rHI[0][1] != 8 || b.rTR[0][1] != 8 {
			t.Errorf("tau2 rebuilt (%v, %v, %v), want (4, 8, 8)", b.rLO[0][1], b.rHI[0][1], b.rTR[0][1])
		}
		checkReanalyzeStable(t, b, 0)
	})
}

// TestDeltaScreenBoundary pins the utilization screen at its
// boundaries. On each set the last task is probed against a core
// holding the others; the verdict must equal Schedulable, and the
// screen must fire exactly when the set says so. The harmonic sets sit
// at U = 1 exactly and must be accepted; a set inside the 1+δ margin
// must be left to the fixed points (which reject it); sets above it
// are screened; and a warmOK == false set bypasses the screen.
func TestDeltaScreenBoundary(t *testing.T) {
	lo := func(id int, p, c float64) mc.Task { return mc.Task{ID: id, Period: p, Crit: 1, WCET: []float64{c}} }
	hi := func(id int, p, c1, c2 float64) mc.Task {
		return mc.Task{ID: id, Period: p, Crit: 2, WCET: []float64{c1, c2}}
	}
	for _, tc := range []struct {
		name     string
		tasks    []mc.Task
		accept   bool
		screened bool
		warmOK   bool
	}{
		{"lo-harmonic-U1", []mc.Task{lo(1, 2, 1), lo(2, 4, 2)}, true, false, true},
		{"hi-harmonic-U1", []mc.Task{hi(1, 2, 0.5, 1), hi(2, 4, 1, 2)}, true, false, true},
		// U_LO = 1+1e-9, inside the margin: the fixed point rejects.
		{"lo-inside-margin", []mc.Task{lo(1, 2, 1), lo(2, 4, 2+2e-9)}, false, false, true},
		{"lo-above-screen", []mc.Task{lo(1, 2, 1), lo(2, 4, 2+2e-7)}, false, true, true},
		{"hi-above-screen", []mc.Task{hi(1, 2, 0.5, 1), hi(2, 4, 1, 2+2e-7)}, false, true, true},
		// A budget inside the Eps band turns warmOK off: no screen.
		{"eps-band", []mc.Task{lo(1, 10, Eps), lo(2, 2, 1), lo(3, 4, 2.5)}, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := &mc.TaskSet{Tasks: tc.tasks}
			b := &Backend{}
			b.Reset(1, 2)
			b.Prepare(ts)
			if b.warmOK != tc.warmOK {
				t.Fatalf("warmOK = %v, want %v", b.warmOK, tc.warmOK)
			}
			b.Begin()
			last := ts.Len() - 1
			for ti := 0; ti < last; ti++ {
				if !b.FeasibleWith(0, ti) {
					t.Fatalf("task %d rejected on its own", ti)
				}
				b.Place(0, ti)
			}
			screened := b.warmOK && (b.lu1[0]+b.u1[last] > b.screen ||
				b.hi[last] && b.lu2[0]+b.u2[last] > b.screen)
			if screened != tc.screened {
				t.Errorf("screen fired = %v, want %v (U_LO %v, U_HI %v, 1+δ %v)",
					screened, tc.screened, b.lu1[0]+b.u1[last], b.lu2[0]+b.u2[last], b.screen)
			}
			got := b.FeasibleWith(0, last)
			if want := Schedulable(ts.Tasks); got != want || got != tc.accept {
				t.Errorf("FeasibleWith = %v, Schedulable = %v, want %v", got, want, tc.accept)
			}
		})
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
