package mc

import (
	"encoding/json"
	"fmt"
)

// TaskSet is an ordered collection of MC tasks (the set Psi of the
// paper). The zero value is an empty, usable set.
type TaskSet struct {
	Tasks []Task `json:"tasks"`
}

// NewTaskSet builds a task set from tasks, assigning sequential IDs
// starting at 1 to any task whose ID is zero.
func NewTaskSet(tasks ...Task) *TaskSet {
	ts := &TaskSet{Tasks: append([]Task(nil), tasks...)}
	for i := range ts.Tasks {
		if ts.Tasks[i].ID == 0 {
			ts.Tasks[i].ID = i + 1
		}
	}
	return ts
}

// Len returns the number of tasks N.
//
//mc:allocfree trivial accessor
func (ts *TaskSet) Len() int { return len(ts.Tasks) }

// MaxCrit returns the highest criticality level K present in the set
// (0 for an empty set). The paper calls this the system criticality
// level; tasks need not populate every level below K.
//
//mc:allocfree scans the task slice only
func (ts *TaskSet) MaxCrit() int {
	k := 0
	for i := range ts.Tasks {
		if ts.Tasks[i].Crit > k {
			k = ts.Tasks[i].Crit
		}
	}
	return k
}

// Validate checks every task and the uniqueness of IDs.
func (ts *TaskSet) Validate() error {
	seen := make(map[int]bool, len(ts.Tasks))
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("mc: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// LevelUtil returns U_j(k), the level-k utilization of the tasks whose
// own criticality is exactly j (Eq. 1). Only tasks with l_i = j
// contribute, and k must not exceed j to be meaningful; the method
// saturates per Task.Util.
//
//mc:allocfree scans the task slice only
func (ts *TaskSet) LevelUtil(j, k int) float64 {
	var u float64
	for i := range ts.Tasks {
		if ts.Tasks[i].Crit == j {
			u += ts.Tasks[i].Util(k)
		}
	}
	return u
}

// TotalUtilAt returns U(k), the total level-k utilization of all tasks
// with criticality level k or higher (Eq. 2).
//
//mc:allocfree scans the task slice only
func (ts *TaskSet) TotalUtilAt(k int) float64 {
	var u float64
	for i := range ts.Tasks {
		if ts.Tasks[i].Crit >= k {
			u += ts.Tasks[i].Util(k)
		}
	}
	return u
}

// RawUtil returns the aggregate level-1 utilization of all tasks; the
// paper's normalized system utilization is NSU = RawUtil/M.
func (ts *TaskSet) RawUtil() float64 {
	var u float64
	for i := range ts.Tasks {
		u += ts.Tasks[i].Util(1)
	}
	return u
}

// MaxLoad returns the sum over tasks of their own-level utilizations,
// i.e. the left-hand side of the pessimistic per-core condition (Eq. 4)
// applied to the whole set.
func (ts *TaskSet) MaxLoad() float64 {
	var u float64
	for i := range ts.Tasks {
		u += ts.Tasks[i].MaxUtil()
	}
	return u
}

// Clone returns a deep copy of the task set.
func (ts *TaskSet) Clone() *TaskSet {
	out := &TaskSet{Tasks: make([]Task, len(ts.Tasks))}
	for i := range ts.Tasks {
		out.Tasks[i] = ts.Tasks[i].Clone()
	}
	return out
}

// UnmarshalJSON implements json.Unmarshaler. It decodes into a zero
// set and replaces the receiver only if that set validates, so no field
// of the old tasks survives into the new ones; on error the receiver is
// unchanged, and null is a no-op.
//
// TaskSet has no MarshalJSON on purpose: encoding/json writes it in one
// pass with its cached struct encoder, while any Marshaler, even a
// pass-through, makes every encode build a second buffer and re-scan it
// (DESIGN §8, "Set-up cost").
func (ts *TaskSet) UnmarshalJSON(data []byte) error {
	type alias TaskSet
	var fresh *alias // stays nil on null
	if err := json.Unmarshal(data, &fresh); err != nil || fresh == nil {
		return err
	}
	if err := (*TaskSet)(fresh).Validate(); err != nil {
		return err
	}
	*ts = TaskSet(*fresh)
	return nil
}

// String summarizes the set as "TaskSet{N=5, K=2, U(1)=1.23}".
func (ts *TaskSet) String() string {
	return fmt.Sprintf("TaskSet{N=%d, K=%d, U(1)=%.3f}", ts.Len(), ts.MaxCrit(), ts.RawUtil())
}
