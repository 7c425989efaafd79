package partition

import (
	"strings"
	"testing"

	"catpa/internal/mc"
)

func TestHybridMultiLevelSplit(t *testing.T) {
	// For K=4 the Hybrid scheme treats every task with crit >= 2 as
	// high-criticality (WFD pass) and crit 1 as low (FFD pass).
	ts := &mc.TaskSet{Tasks: []mc.Task{
		mkTask(1, 100, 4, 5, 7, 10, 14),
		mkTask(2, 100, 3, 5, 7, 10),
		mkTask(3, 100, 2, 5, 7),
		mkTask(4, 100, 1, 20),
		mkTask(5, 100, 1, 20),
	}}
	r := New(2, 4).Run(ts, Hybrid, &Options{Trace: true})
	if !r.Feasible {
		t.Fatal("infeasible")
	}
	// The three MC tasks must be allocated before the two LO tasks.
	for i, s := range r.Trace {
		if i < 3 && ts.Tasks[s.Task].Crit < 2 {
			t.Errorf("step %d allocated LO task before HI pass finished", i)
		}
		if i >= 3 && ts.Tasks[s.Task].Crit >= 2 {
			t.Errorf("step %d allocated HI task during LO pass", i)
		}
	}
}

func TestResultStringForms(t *testing.T) {
	ts := loSet(2, 0.4)
	ok := New(2, 1).Run(ts, FFD, nil)
	if s := ok.String(); !strings.Contains(s, "Usys") {
		t.Errorf("feasible String = %q", s)
	}
	bad := New(2, 1).Run(loSet(3, 0.8), FFD, nil)
	if s := bad.String(); !strings.Contains(s, "INFEASIBLE") {
		t.Errorf("infeasible String = %q", s)
	}
}

func TestResultSubsets(t *testing.T) {
	ts := loSet(4, 0.3)
	r := New(2, 1).Run(ts, WFD, nil)
	subs := r.Subsets(ts)
	if len(subs) != 2 {
		t.Fatalf("subsets = %d", len(subs))
	}
	total := 0
	for _, s := range subs {
		total += s.Len()
	}
	if total != ts.Len() {
		t.Errorf("subsets cover %d of %d tasks", total, ts.Len())
	}
	// Deep copies: mutating a subset must not touch the original.
	subs[0].Tasks[0].WCET[0] = 999
	for i := range ts.Tasks {
		if ts.Tasks[i].WCET[0] == 999 {
			t.Fatal("Subsets shares storage with the source set")
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	ts := loSet(4, 0.3)
	r := New(2, 1).Run(ts, FFD, nil)
	if err := r.Verify(ts); err != nil {
		t.Fatal(err)
	}
	// Corrupt the assignment in ways Verify must flag.
	bad := *r
	bad.Assignment = append([]int(nil), r.Assignment...)
	bad.Assignment[0] = 7 // out of range
	if err := bad.Verify(ts); err == nil {
		t.Error("invalid core index not caught")
	}
	bad.Assignment[0] = -1 // unplaced but feasible
	if err := bad.Verify(ts); err == nil {
		t.Error("unplaced task in feasible result not caught")
	}
	short := *r
	short.Assignment = r.Assignment[:1]
	if err := short.Verify(ts); err == nil {
		t.Error("truncated assignment not caught")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	if o.alpha() != DefaultAlpha {
		t.Errorf("nil options alpha = %v", o.alpha())
	}
	if o.trace() {
		t.Error("nil options enable tracing")
	}
}
