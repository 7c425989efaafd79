package mc

import (
	"math"
	"math/rand"
	"testing"
)

func hashFixture(t *testing.T) *TaskSet {
	t.Helper()
	return NewTaskSet(
		MustTask(1, "a", 100, 10, 25),
		MustTask(2, "b", 50, 15),
		MustTask(3, "c", 200, 20, 20, 60),
		MustTask(4, "d", 50, 15), // duplicate parameters of task 2
	)
}

// TestTaskSetHashGolden pins the hash values: the admission daemon
// sends them to clients as task_set_hash, so any change to the digest
// is a wire-format change. The second set is the README's example
// request.
func TestTaskSetHashGolden(t *testing.T) {
	cases := []struct {
		name string
		ts   *TaskSet
		want uint64
	}{
		{"empty", nil, 0xcbf29ce484222325},
		{"fixture", hashFixture(t), 0x4e823f87863e3ef8},
		{"readme", NewTaskSet(MustTask(1, "flight_ctl", 20, 3, 7), MustTask(2, "telemetry", 100, 30)), 0xc73987f2dbd83eac},
	}
	for _, tc := range cases {
		if got := TaskSetHash(tc.ts); got != tc.want {
			t.Errorf("%s: TaskSetHash = %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

func TestTaskSetHashPermutationInvariant(t *testing.T) {
	ts := hashFixture(t)
	want := TaskSetHash(ts)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := ts.Clone()
		rng.Shuffle(len(perm.Tasks), func(i, j int) {
			perm.Tasks[i], perm.Tasks[j] = perm.Tasks[j], perm.Tasks[i]
		})
		if got := TaskSetHash(perm); got != want {
			t.Fatalf("trial %d: permuted hash %#x != %#x", trial, got, want)
		}
	}
}

func TestTaskSetHashIgnoresLabels(t *testing.T) {
	ts := hashFixture(t)
	relabeled := ts.Clone()
	for i := range relabeled.Tasks {
		relabeled.Tasks[i].ID = 100 + i
		relabeled.Tasks[i].Name = "renamed"
	}
	if TaskSetHash(relabeled) != TaskSetHash(ts) {
		t.Error("hash depends on task IDs or names")
	}
}

func TestTaskSetHashQuantization(t *testing.T) {
	ts := hashFixture(t)
	want := TaskSetHash(ts)

	// Sub-quantum representation noise hashes identically.
	wiggled := ts.Clone()
	wiggled.Tasks[0].Period += HashQuantum / 8
	wiggled.Tasks[1].WCET[0] -= HashQuantum / 8
	if TaskSetHash(wiggled) != want {
		t.Error("sub-quantum noise changed the hash")
	}

	// A change of several quanta is a different set.
	moved := ts.Clone()
	moved.Tasks[0].Period += 1e-6
	if TaskSetHash(moved) == want {
		t.Error("1e-6 period change did not change the hash")
	}
}

func TestTaskSetHashSensitivity(t *testing.T) {
	base := hashFixture(t)
	want := TaskSetHash(base)

	mutations := map[string]func(*TaskSet){
		"wcet":         func(ts *TaskSet) { ts.Tasks[0].WCET[1] += 1 },
		"period":       func(ts *TaskSet) { ts.Tasks[2].Period *= 2 },
		"crit":         func(ts *TaskSet) { ts.Tasks[1].Crit = 2; ts.Tasks[1].WCET = []float64{15, 30} },
		"dropped task": func(ts *TaskSet) { ts.Tasks = ts.Tasks[:len(ts.Tasks)-1] },
		"extra task":   func(ts *TaskSet) { ts.Tasks = append(ts.Tasks, MustTask(9, "", 75, 5)) },
	}
	for name, mutate := range mutations {
		mut := base.Clone()
		mutate(mut)
		if TaskSetHash(mut) == want {
			t.Errorf("%s mutation did not change the hash", name)
		}
	}
}

func TestTaskSetHashDuplicatesCount(t *testing.T) {
	// A multiset hash must distinguish one copy from two: the XOR
	// pitfall this implementation's sorted fold exists to avoid.
	one := NewTaskSet(MustTask(1, "", 50, 15))
	two := NewTaskSet(MustTask(1, "", 50, 15), MustTask(2, "", 50, 15))
	three := NewTaskSet(MustTask(1, "", 50, 15), MustTask(2, "", 50, 15), MustTask(3, "", 50, 15))
	if TaskSetHash(one) == TaskSetHash(two) || TaskSetHash(two) == TaskSetHash(three) {
		t.Error("duplicate multiplicity does not influence the hash")
	}
}

func TestTaskSetHashEmptyAndNil(t *testing.T) {
	if TaskSetHash(nil) != TaskSetHash(&TaskSet{}) {
		t.Error("nil and empty set hash differently")
	}
	if TaskSetHash(nil) == TaskSetHash(hashFixture(t)) {
		t.Error("empty hash collides with a populated set")
	}
}

func TestTaskSetHashTotalOnNonFinite(t *testing.T) {
	// Invalid sets never reach the cache, but the hash must still be
	// total; exercise the non-finite fallback directly.
	bad := &TaskSet{Tasks: []Task{{ID: 1, Period: math.Inf(1), Crit: 1, WCET: []float64{math.NaN()}}}}
	if TaskSetHash(bad) == TaskSetHash(&TaskSet{}) {
		t.Error("non-finite parameters collapse to the empty hash")
	}
}
