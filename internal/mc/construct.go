package mc

import "fmt"

// NewTask constructs a validated task. The criticality level is
// inferred from the length of the WCET vector (Validate requires
// len(WCET) == Crit), so a task cannot be built with a mismatched
// level. The WCET slice is copied; id may be zero when the task will
// be handed to NewTaskSet, which assigns sequential IDs.
//
// NewTask (or MustTask) is the only sanctioned way to build a Task
// outside this package: constructing raw Task literals elsewhere
// bypasses the WCET-monotonicity and utilization invariants and is
// rejected by the mclint/rawtask check.
func NewTask(id int, name string, period float64, wcet ...float64) (Task, error) {
	t := Task{
		ID:     id,
		Name:   name,
		Period: period,
		Crit:   len(wcet),
		WCET:   append([]float64(nil), wcet...),
	}
	if err := t.Validate(); err != nil {
		return Task{}, err
	}
	return t, nil
}

// MustTask is NewTask panicking on invalid parameters. It is intended
// for hand-built workloads and generators whose parameters are valid
// by construction.
func MustTask(id int, name string, period float64, wcet ...float64) Task {
	t, err := NewTask(id, name, period, wcet...)
	if err != nil {
		panic(fmt.Sprintf("mc: MustTask: %v", err))
	}
	return t
}

// NewTaskSetCap returns an empty task set whose backing slice has the
// given capacity, for builders that append tasks one by one.
func NewTaskSetCap(capacity int) *TaskSet {
	return &TaskSet{Tasks: make([]Task, 0, capacity)}
}

// TaskSlabTrusted builds a task that aliases wcet directly — no
// defensive copy and no Validate pass — for slab-backed generators
// that carve per-task WCET vectors out of one reusable arena and whose
// outputs are valid by construction (positive period, positive
// non-decreasing WCETs capped at the period). The caller must not
// mutate wcet for the lifetime of the task. The validation loop is
// measurable in generation-bound sweeps — it reads every WCET and
// divides once per task — and proves nothing for a generator that
// enforces the invariants structurally. Callers outside such
// generators must use NewTask or MustTask; an invalid task built here
// fails later analysis in undefined ways.
//
//mc:allocfree a struct literal over the caller's slab
func TaskSlabTrusted(id int, period float64, wcet []float64) Task {
	return Task{
		ID:     id,
		Period: period,
		Crit:   len(wcet),
		WCET:   wcet,
	}
}
