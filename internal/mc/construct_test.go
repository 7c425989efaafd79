package mc

import (
	"math"
	"testing"
)

func TestNewTaskValid(t *testing.T) {
	tk, err := NewTask(3, "ctl", 50, 8, 20)
	if err != nil {
		t.Fatalf("NewTask: %v", err)
	}
	if tk.ID != 3 || tk.Name != "ctl" || tk.Period != 50 || tk.Crit != 2 {
		t.Fatalf("unexpected task %+v", tk)
	}
	if len(tk.WCET) != 2 || tk.WCET[0] != 8 || tk.WCET[1] != 20 {
		t.Fatalf("unexpected WCET %v", tk.WCET)
	}
}

func TestNewTaskCopiesWCET(t *testing.T) {
	w := []float64{1, 2}
	tk, err := NewTask(1, "", 10, w...)
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 99
	if tk.WCET[0] != 1 {
		t.Fatalf("WCET aliases caller slice: %v", tk.WCET)
	}
}

func TestNewTaskRejectsInvalid(t *testing.T) {
	cases := []struct {
		name   string
		period float64
		wcet   []float64
	}{
		{"no wcet", 10, nil},
		{"non-positive period", 0, []float64{1}},
		{"nan period", math.NaN(), []float64{1}},
		{"decreasing wcet", 10, []float64{3, 1}},
		{"non-positive wcet", 10, []float64{0, 1}},
		{"overutilized", 10, []float64{5, 20}},
	}
	for _, c := range cases {
		if _, err := NewTask(1, "x", c.period, c.wcet...); err == nil {
			t.Errorf("%s: NewTask accepted invalid input", c.name)
		}
	}
}

func TestMustTaskPanicsWithPrefix(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustTask did not panic")
		}
		s, ok := r.(string)
		if !ok || len(s) < 4 || s[:4] != "mc: " {
			t.Fatalf("panic message %q lacks \"mc: \" prefix", r)
		}
	}()
	MustTask(1, "bad", -1, 1)
}

func TestNewTaskSetCap(t *testing.T) {
	ts := NewTaskSetCap(8)
	if ts.Len() != 0 {
		t.Fatalf("non-empty set: %d", ts.Len())
	}
	if cap(ts.Tasks) != 8 {
		t.Fatalf("capacity %d, want 8", cap(ts.Tasks))
	}
	ts.Tasks = append(ts.Tasks, MustTask(1, "", 10, 2))
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApproxHelpers(t *testing.T) {
	if !ApproxEq(1, 1+Eps/2) || ApproxEq(1, 1+1e-3) {
		t.Error("ApproxEq tolerance wrong")
	}
	if !ApproxEq(math.Inf(1), math.Inf(1)) {
		t.Error("ApproxEq must accept equal infinities")
	}
	if !SameFloat(math.NaN(), math.NaN()) || SameFloat(1, 2) || !SameFloat(2, 2) {
		t.Error("SameFloat wrong")
	}
}
