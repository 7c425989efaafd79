package mc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mkTask(id int, period float64, crit int, wcet ...float64) Task {
	return Task{ID: id, Period: period, Crit: crit, WCET: wcet}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTaskUtil(t *testing.T) {
	tk := mkTask(1, 10, 2, 2, 5)
	if !almost(tk.Util(1), 0.2) {
		t.Errorf("u(1) = %v, want 0.2", tk.Util(1))
	}
	if !almost(tk.Util(2), 0.5) {
		t.Errorf("u(2) = %v, want 0.5", tk.Util(2))
	}
	if !almost(tk.MaxUtil(), 0.5) {
		t.Errorf("MaxUtil = %v, want 0.5", tk.MaxUtil())
	}
}

func TestTaskUtilSaturates(t *testing.T) {
	tk := mkTask(1, 10, 1, 3)
	// Levels above the task's own criticality saturate at c(l_i).
	for k := 1; k <= 4; k++ {
		if !almost(tk.Util(k), 0.3) {
			t.Errorf("u(%d) = %v, want 0.3", k, tk.Util(k))
		}
	}
}

func TestTaskCLevelZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("C(0) did not panic")
		}
	}()
	tk := mkTask(1, 10, 1, 3)
	tk.C(0)
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"valid dual", mkTask(1, 10, 2, 2, 4), true},
		{"valid single", mkTask(1, 5, 1, 1), true},
		{"equal consecutive WCETs", mkTask(1, 10, 2, 3, 3), true},
		{"zero period", mkTask(1, 0, 1, 1), false},
		{"negative period", mkTask(1, -3, 1, 1), false},
		{"nan period", mkTask(1, math.NaN(), 1, 1), false},
		{"inf period", mkTask(1, math.Inf(1), 1, 1), false},
		{"crit zero", mkTask(1, 10, 0), false},
		{"wcet count mismatch", mkTask(1, 10, 2, 1), false},
		{"zero wcet", mkTask(1, 10, 1, 0), false},
		{"negative wcet", mkTask(1, 10, 2, 1, -1), false},
		{"decreasing wcet", mkTask(1, 10, 2, 4, 2), false},
		{"own util above one", mkTask(1, 10, 2, 2, 15), false},
		{"own util exactly one", mkTask(1, 10, 2, 2, 10), true},
	}
	for _, c := range cases {
		err := c.task.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestTaskClone(t *testing.T) {
	a := mkTask(1, 10, 2, 2, 4)
	b := a.Clone()
	b.WCET[0] = 99
	if a.WCET[0] != 2 {
		t.Fatal("Clone shares WCET storage")
	}
}

func TestTaskLabelAndString(t *testing.T) {
	a := mkTask(3, 10, 2, 2, 4.5)
	if a.Label() != "tau3" {
		t.Errorf("Label = %q", a.Label())
	}
	a.Name = "flight_ctl"
	if a.Label() != "flight_ctl" {
		t.Errorf("Label = %q", a.Label())
	}
	s := a.String()
	for _, want := range []string{"flight_ctl", "2 4.5", "p=10", "l=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestUtilRowMatchesUtil pins UtilRow bitwise to Util at every level
// up to kmax, including the saturated levels above the task's own.
func TestUtilRowMatchesUtil(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := make([]float64, 8)
	for trial := 0; trial < 500; trial++ {
		crit := 1 + rng.Intn(6)
		tk := Task{ID: trial, Period: 1 + rng.Float64()*999, Crit: crit, WCET: make([]float64, crit)}
		c := rng.Float64() * tk.Period / 4
		for k := range tk.WCET {
			c *= 1 + rng.Float64()
			tk.WCET[k] = c
		}
		kmax := crit + rng.Intn(8-crit+1)
		tk.UtilRow(kmax, row)
		for k := 1; k <= kmax; k++ {
			if math.Float64bits(row[k-1]) != math.Float64bits(tk.Util(k)) {
				t.Fatalf("%v: UtilRow[%d] = %v, Util(%d) = %v", tk.String(), k-1, row[k-1], k, tk.Util(k))
			}
		}
	}
}
