package paperexample

import (
	"math"
	"testing"

	"catpa/internal/edfvd"
	"catpa/internal/mc"
	"catpa/internal/partition"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestTableIFragments verifies the surviving numeric fragments of
// Table I against the reconstruction.
func TestTableIFragments(t *testing.T) {
	ts := TaskSet()
	byID := map[int]*mc.Task{}
	for i := range ts.Tasks {
		byID[ts.Tasks[i].ID] = &ts.Tasks[i]
	}
	if !almost(byID[4].Util(1), 0.339) || !almost(byID[4].Util(2), 0.633) {
		t.Errorf("tau4 utilizations = %v, %v", byID[4].Util(1), byID[4].Util(2))
	}
	if !almost(byID[2].Util(2), 0.326) {
		t.Errorf("tau2 u(2) = %v", byID[2].Util(2))
	}
	// tau4 alone: U^Psi = 0.633; tau2 alone: U^Psi = 0.26.
	m := mc.NewUtilMatrix(Levels)
	m.Add(byID[4])
	if u := edfvd.CoreUtil(m); !almost(u, 0.633) {
		t.Errorf("tau4 alone: U = %v, want 0.633", u)
	}
	m.Reset()
	m.Add(byID[2])
	if u := edfvd.CoreUtil(m); !almost(u, 0.26) {
		t.Errorf("tau2 alone: U = %v, want 0.26", u)
	}
}

// TestCATPAOrder verifies the utilization-contribution allocation
// order tau4, tau2, tau1, tau5, tau3 of the paper.
func TestCATPAOrder(t *testing.T) {
	ts := TaskSet()
	idx := mc.SortByContribution(ts)
	got := make([]int, len(idx))
	for i, ti := range idx {
		got[i] = ts.Tasks[ti].ID
	}
	for i, want := range CATPAOrder {
		if got[i] != want {
			t.Fatalf("CA-TPA order = %v, want %v", got, CATPAOrder)
		}
	}
}

// TestFFDOrder verifies the max-utilization order tau4, tau1, tau2,
// tau5, tau3 of the paper.
func TestFFDOrder(t *testing.T) {
	ts := TaskSet()
	idx := mc.SortByMaxUtil(ts)
	got := make([]int, len(idx))
	for i, ti := range idx {
		got[i] = ts.Tasks[ti].ID
	}
	for i, want := range FFDOrder {
		if got[i] != want {
			t.Fatalf("FFD order = %v, want %v", got, FFDOrder)
		}
	}
}

// TestTableIIFFDFails reproduces Table II: FFD places tau4 -> P1,
// tau1 -> P2, tau2 -> P1, tau5 -> P2 and then fails on tau3.
func TestTableIIFFDFails(t *testing.T) {
	ts := TaskSet()
	r := partition.New(Cores, Levels).Run(ts, partition.FFD, &partition.Options{Trace: true})
	if r.Feasible {
		t.Fatal("FFD unexpectedly found a feasible partition")
	}
	wantCores := map[int]int{4: 0, 1: 1, 2: 0, 5: 1}
	for step, s := range r.Trace {
		id := ts.Tasks[s.Task].ID
		if step < 4 {
			if s.Core != wantCores[id] {
				t.Errorf("step %d: tau%d -> P%d, want P%d", step, id, s.Core+1, wantCores[id]+1)
			}
			continue
		}
		if id != 3 || s.Core != -1 {
			t.Errorf("step %d: tau%d core %d, want tau3 FAILURE", step, id, s.Core)
		}
	}
	if ts.Tasks[r.FailedTask].ID != 3 {
		t.Errorf("failed task = tau%d, want tau3", ts.Tasks[r.FailedTask].ID)
	}
}

// TestTableIIICATPASucceeds reproduces Table III: the CA-TPA
// allocation trace and final mapping P1 = {tau4, tau5},
// P2 = {tau2, tau1, tau3}.
func TestTableIIICATPASucceeds(t *testing.T) {
	ts := TaskSet()
	r := partition.New(Cores, Levels).Run(ts, partition.CATPA, &partition.Options{Trace: true})
	if !r.Feasible {
		t.Fatal("CA-TPA failed on the paper example")
	}
	if err := r.Verify(ts); err != nil {
		t.Fatal(err)
	}
	// Allocation order matches Table III.
	for i, s := range r.Trace {
		if got := ts.Tasks[s.Task].ID; got != CATPAOrder[i] {
			t.Errorf("trace step %d allocated tau%d, want tau%d", i, got, CATPAOrder[i])
		}
	}
	// Final mapping matches.
	for i, core := range r.Assignment {
		id := ts.Tasks[i].ID
		if core != CATPAMapping[id] {
			t.Errorf("tau%d -> P%d, want P%d", id, core+1, CATPAMapping[id]+1)
		}
	}
}

// TestIntermediateUtilizations replays the CA-TPA probe decisions the
// paper narrates: tau2's increment is smaller on P2 (0.26) than on P1
// (0.326), so tau2 goes to P2.
func TestIntermediateUtilizations(t *testing.T) {
	ts := TaskSet()
	byID := map[int]*mc.Task{}
	for i := range ts.Tasks {
		byID[ts.Tasks[i].ID] = &ts.Tasks[i]
	}
	p1 := mc.NewUtilMatrix(Levels)
	p1.Add(byID[4])
	base := edfvd.CoreUtil(p1)
	p1.Add(byID[2])
	incP1 := edfvd.CoreUtil(p1) - base
	p2 := mc.NewUtilMatrix(Levels)
	p2.Add(byID[2])
	incP2 := edfvd.CoreUtil(p2) - 0
	if !almost(incP1, 0.326) {
		t.Errorf("increment on P1 = %v, want 0.326", incP1)
	}
	if !almost(incP2, 0.26) {
		t.Errorf("increment on P2 = %v, want 0.26", incP2)
	}
	if incP2 >= incP1 {
		t.Error("tau2 should prefer P2")
	}
}

// TestOtherBaselines documents the remaining schemes' outcomes on the
// instance: BFD behaves like FFD here and fails, while WFD and Hybrid
// succeed because both happen to separate the two HI tasks (the paper
// only discusses FFD on this example).
func TestOtherBaselines(t *testing.T) {
	ts := TaskSet()
	if partition.New(Cores, Levels).Run(ts, partition.BFD, nil).Feasible {
		t.Error("BFD unexpectedly feasible")
	}
	if !partition.New(Cores, Levels).Run(ts, partition.WFD, nil).Feasible {
		t.Error("WFD unexpectedly infeasible")
	}
	if !partition.New(Cores, Levels).Run(ts, partition.Hybrid, nil).Feasible {
		t.Error("Hybrid unexpectedly infeasible")
	}
}

// TestExampleSurvivesRuntime runs the CA-TPA partition of the example
// through the worst-case runtime simulation: no deadline misses.
func TestExampleSurvivesRuntime(t *testing.T) {
	ts := TaskSet()
	r := partition.New(Cores, Levels).Run(ts, partition.CATPA, nil)
	if !r.Feasible {
		t.Fatal("infeasible")
	}
	for c, sub := range r.Subsets(ts) {
		if len(sub.Tasks) == 0 {
			continue
		}
		stats := simulateSubset(sub)
		if stats > 0 {
			t.Errorf("core %d: %d deadline misses", c, stats)
		}
	}
}
