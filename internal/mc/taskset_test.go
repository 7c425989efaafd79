package mc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// dualSet returns a small dual-criticality set with known utilizations:
//
//	tau1: LO, u(1)=0.30
//	tau2: HI, u(1)=0.20, u(2)=0.40
//	tau3: HI, u(1)=0.10, u(2)=0.25
func dualSet() *TaskSet {
	return NewTaskSet(
		mkTask(1, 10, 1, 3),
		mkTask(2, 20, 2, 4, 8),
		mkTask(3, 40, 2, 4, 10),
	)
}

func TestTaskSetLevelUtil(t *testing.T) {
	ts := dualSet()
	if got := ts.LevelUtil(1, 1); !almost(got, 0.30) {
		t.Errorf("U_1(1) = %v, want 0.30", got)
	}
	if got := ts.LevelUtil(2, 1); !almost(got, 0.30) {
		t.Errorf("U_2(1) = %v, want 0.30", got)
	}
	if got := ts.LevelUtil(2, 2); !almost(got, 0.65) {
		t.Errorf("U_2(2) = %v, want 0.65", got)
	}
}

func TestTaskSetTotalUtilAt(t *testing.T) {
	ts := dualSet()
	// U(1) = all tasks at level 1.
	if got := ts.TotalUtilAt(1); !almost(got, 0.60) {
		t.Errorf("U(1) = %v, want 0.60", got)
	}
	// U(2) = only HI tasks, at level 2.
	if got := ts.TotalUtilAt(2); !almost(got, 0.65) {
		t.Errorf("U(2) = %v, want 0.65", got)
	}
	if got := ts.RawUtil(); !almost(got, 0.60) {
		t.Errorf("RawUtil = %v, want 0.60", got)
	}
	if got := ts.MaxLoad(); !almost(got, 0.95) {
		t.Errorf("MaxLoad = %v, want 0.95", got)
	}
}

func TestTaskSetMaxCrit(t *testing.T) {
	if got := dualSet().MaxCrit(); got != 2 {
		t.Errorf("MaxCrit = %d, want 2", got)
	}
	if got := (&TaskSet{}).MaxCrit(); got != 0 {
		t.Errorf("empty MaxCrit = %d, want 0", got)
	}
}

func TestTaskSetValidateDuplicateID(t *testing.T) {
	ts := NewTaskSet(mkTask(7, 10, 1, 1), mkTask(7, 10, 1, 1))
	if err := ts.Validate(); err == nil {
		t.Fatal("duplicate IDs not rejected")
	}
}

func TestNewTaskSetAssignsIDs(t *testing.T) {
	ts := NewTaskSet(
		Task{Period: 10, Crit: 1, WCET: []float64{1}},
		Task{Period: 20, Crit: 1, WCET: []float64{2}},
	)
	if ts.Tasks[0].ID != 1 || ts.Tasks[1].ID != 2 {
		t.Errorf("IDs = %d,%d, want 1,2", ts.Tasks[0].ID, ts.Tasks[1].ID)
	}
}

func TestTaskSetJSONRoundTrip(t *testing.T) {
	ts := dualSet()
	data, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	var back TaskSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != ts.Len() {
		t.Fatalf("round trip lost tasks: %d != %d", back.Len(), ts.Len())
	}
	for i := range ts.Tasks {
		if !almost(back.Tasks[i].Util(1), ts.Tasks[i].Util(1)) {
			t.Errorf("task %d changed in round trip", i)
		}
	}
}

func TestTaskSetJSONRejectsInvalid(t *testing.T) {
	bad := []byte(`{"tasks":[{"id":1,"wcet":[4,2],"period":10,"crit":2}]}`)
	var ts TaskSet
	if err := json.Unmarshal(bad, &ts); err == nil {
		t.Fatal("decreasing WCET vector accepted by UnmarshalJSON")
	}
}

// TestTaskSetUnmarshalReplaces: decoding into a set that already holds
// tasks gives what a decode into a fresh set gives; no field of the old
// tasks fills in one the input omits, and a failed decode leaves the
// receiver as it was.
func TestTaskSetUnmarshalReplaces(t *testing.T) {
	const held = `{"tasks":[{"id":1,"name":"a","wcet":[1,2],"period":10,"crit":2},` +
		`{"id":2,"wcet":[3],"period":30,"crit":1}]}`
	cases := []struct {
		name, input string
		want        *TaskSet // nil: the input must fail with wantErr
		wantErr     string   // a substring of the error
	}{
		{"omitted period", `{"tasks":[{"id":1,"wcet":[1],"crit":1}]}`, nil,
			"task 1: non-positive period 0"},
		{"omitted name", `{"tasks":[{"id":1,"wcet":[1],"period":5,"crit":1}]}`,
			NewTaskSet(Task{ID: 1, WCET: []float64{1}, Period: 5, Crit: 1}), ""},
		{"omitted tasks", `{}`, &TaskSet{}, ""},
		{"invalid second task", `{"tasks":[{"id":1,"wcet":[1],"period":5,"crit":1},{"id":2,"wcet":[4,2],"period":9,"crit":2}]}`,
			nil, "task 2: WCET vector decreases at level 2 (2 < 4)"},
		{"type error", `{"tasks":[{"id":"x","period":99}]}`, nil,
			"cannot unmarshal string"},
	}
	for _, tc := range cases {
		var ts, orig TaskSet
		for _, dst := range []*TaskSet{&ts, &orig} {
			if err := json.Unmarshal([]byte(held), dst); err != nil {
				t.Fatal(err)
			}
		}
		err := json.Unmarshal([]byte(tc.input), &ts)
		want := tc.want
		if want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
			}
			want = &orig
		} else if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(&ts, want) {
			t.Errorf("%s: set %+v, want %+v", tc.name, ts, *want)
		}
	}
}

func TestTaskSetCloneIsDeep(t *testing.T) {
	ts := dualSet()
	cl := ts.Clone()
	cl.Tasks[0].WCET[0] = 999
	if ts.Tasks[0].WCET[0] != 3 {
		t.Fatal("Clone shares task storage")
	}
}

// FuzzTaskSetJSON checks UnmarshalJSON against its contract on any
// input: decoding into a set that already holds an accepted set gives
// the same set, or the same error, as decoding into a fresh one (a
// JSON null leaves either receiver as it was, an error leaves the held
// set unchanged); and Marshal → Unmarshal → Marshal of every accepted
// set gives the same bytes twice.
func FuzzTaskSetJSON(f *testing.F) {
	for _, seed := range []string{
		`{"tasks":[{"id":1,"name":"a","wcet":[1,2],"period":10,"crit":2}]}`,
		`{"tasks":[{"id":1,"wcet":[1],"crit":1}]}`,
		`{"tasks":[{"id":7,"name":"<a&b> \"x\"","wcet":[1,2,3.25,4],"period":40,"crit":4}]}`,
		`{"tasks":[{"id":1,"wcet":[4,2],"period":10,"crit":2}]}`,
		`{"tasks":[{"id":1,"wcet":[1],"period":5,"crit":1},{"id":1,"wcet":[1],"period":5,"crit":1}]}`,
		`{"tasks":[{"id":"x","period":99}]}`,
		`{"tasks":[]}`, `{}`, ` null `, `[]`, `"x"`, `{"tasks":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh TaskSet
		errFresh := json.Unmarshal(data, &fresh)
		held, orig := dualSet(), dualSet()
		errHeld := json.Unmarshal(data, held)
		switch {
		case errFresh != nil:
			if errHeld == nil || errHeld.Error() != errFresh.Error() {
				t.Fatalf("fresh decode failed with %q, held decode with %v", errFresh, errHeld)
			}
			if !reflect.DeepEqual(held, orig) {
				t.Fatalf("failed decode changed the receiver to %+v", held.Tasks)
			}
			return
		case errHeld != nil:
			t.Fatalf("fresh decode succeeded, held decode failed with %v", errHeld)
		case string(bytes.Trim(data, " \t\r\n")) == "null":
			if !reflect.DeepEqual(held, orig) || !reflect.DeepEqual(&fresh, &TaskSet{}) {
				t.Fatalf("null changed a receiver: held %+v, fresh %+v", held.Tasks, fresh.Tasks)
			}
			return
		case !reflect.DeepEqual(held, &fresh):
			t.Fatalf("held decode gave %+v, fresh decode %+v", held.Tasks, fresh.Tasks)
		}
		first, err := json.Marshal(&fresh)
		if err != nil {
			t.Fatal(err)
		}
		var back TaskSet
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", first, second)
		}
	})
}
