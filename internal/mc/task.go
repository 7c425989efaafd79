package mc

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Eps is the tolerance used for all floating-point comparisons in the
// utilization algebra. Utilizations are O(1) quantities, so an absolute
// tolerance is appropriate.
const Eps = 1e-9

// Task is a periodic implicit-deadline mixed-criticality task
// tau_i = (C_i, p_i, l_i) in the Vestal model.
//
// WCET holds the worst-case execution times indexed by criticality
// level minus one: WCET[k-1] = c_i(k) for k = 1..Crit. The vector must
// be non-decreasing. Period is both the inter-arrival time and the
// relative deadline (implicit deadlines).
type Task struct {
	// ID is the task index used for tie-breaking in the ordering
	// operator; smaller IDs win ties. IDs should be unique within a
	// task set.
	ID int `json:"id"`

	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`

	// WCET[k-1] is the level-k worst-case execution time c_i(k).
	WCET []float64 `json:"wcet"`

	// Period is the task period and relative deadline p_i.
	Period float64 `json:"period"`

	// Crit is the task criticality level l_i, 1-based. It must equal
	// len(WCET).
	Crit int `json:"crit"`
}

// C returns the level-k WCET c_i(k) for k = 1..Crit. For k > Crit it
// returns the task's own-level WCET c_i(l_i): by convention a task is
// never required to execute beyond its own-criticality budget, and
// levels above l_i are not reached by the task (it is dropped), so the
// saturated value is only used by bookkeeping code that iterates over
// all K levels.
//
//mc:allocfree called per probe inside the allocator's inner loop
func (t *Task) C(k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("mc: level %d out of range for task %d", k, t.ID))
	}
	if k > t.Crit {
		k = t.Crit
	}
	return t.WCET[k-1]
}

// Util returns the level-k utilization u_i(k) = c_i(k)/p_i. Like C, it
// saturates at the task's own criticality level.
//
//mc:allocfree called per probe inside the allocator's inner loop
func (t *Task) Util(k int) float64 {
	return t.C(k) / t.Period
}

// UtilRow fills dst[k-1] = u_i(k) for k = 1..kmax, saturating at the
// task's own criticality level like Util. dst must have length at
// least kmax. It divides only for k <= Crit and copies the saturated
// value above, so the values are bitwise those of Util.
//
//mc:allocfree fills caller-owned storage
func (t *Task) UtilRow(kmax int, dst []float64) {
	u := 0.0
	for k := 1; k <= kmax; k++ {
		if k <= t.Crit {
			u = t.WCET[k-1] / t.Period
		}
		dst[k-1] = u
	}
}

// MaxUtil returns the task's utilization at its own criticality level,
// u_i(l_i) — the "maximum utilization" used by the classical FFD, BFD
// and WFD heuristics.
//
//mc:allocfree called per comparison in the ordering sorts
func (t *Task) MaxUtil() float64 {
	return t.Util(t.Crit)
}

// Validate checks the structural invariants of the task: positive
// period, Crit >= 1, len(WCET) == Crit, strictly positive WCETs, and a
// non-decreasing WCET vector.
func (t *Task) Validate() error {
	switch {
	case t.Period <= 0 || math.IsNaN(t.Period) || math.IsInf(t.Period, 0):
		return fmt.Errorf("task %d: non-positive period %v", t.ID, t.Period)
	case t.Crit < 1:
		return fmt.Errorf("task %d: criticality %d < 1", t.ID, t.Crit)
	case len(t.WCET) != t.Crit:
		return fmt.Errorf("task %d: %d WCETs for criticality %d", t.ID, len(t.WCET), t.Crit)
	}
	prev := 0.0
	for k, c := range t.WCET {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("task %d: non-positive WCET c(%d)=%v", t.ID, k+1, c)
		}
		if c+Eps < prev {
			return fmt.Errorf("task %d: WCET vector decreases at level %d (%v < %v)", t.ID, k+1, c, prev)
		}
		prev = c
	}
	if t.Util(t.Crit) > 1+Eps {
		return fmt.Errorf("task %d: own-level utilization %.4f > 1", t.ID, t.Util(t.Crit))
	}
	return nil
}

// Clone returns a deep copy of the task.
func (t *Task) Clone() Task {
	c := *t
	c.WCET = append([]float64(nil), t.WCET...)
	return c
}

// Label returns the task's name if set, otherwise "tau<ID>".
func (t *Task) Label() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("tau%d", t.ID)
}

// String renders the task in the compact form
// "tau3{C=<2 4.5>, p=10, l=2}".
func (t *Task) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{C=<", t.Label())
	for k, c := range t.WCET {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", c)
	}
	fmt.Fprintf(&b, ">, p=%g, l=%d}", t.Period, t.Crit)
	return b.String()
}

// ErrEmptyTaskSet is returned by operations that require at least one task.
var ErrEmptyTaskSet = errors.New("mc: empty task set")
