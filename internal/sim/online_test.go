package sim

import (
	"testing"

	"catpa/internal/mc"
)

func tlSet(tasks ...mc.Task) *mc.TaskSet { return &mc.TaskSet{Tasks: tasks} }

// TestTimelineDedup checks the configuration bookkeeping: empty
// subsets are skipped, repeats and permutations deduplicate, and
// first-seen order is preserved.
func TestTimelineDedup(t *testing.T) {
	a := mc.MustTask(1, "a", 10, 2)
	b := mc.MustTask(2, "b", 20, 4, 6)
	c := mc.MustTask(3, "c", 40, 8)

	tl := NewTimeline(2)
	tl.ObserveCore(nil)
	tl.ObserveCore(tlSet())
	if tl.Configs() != 0 {
		t.Fatalf("empty observations recorded %d configs", tl.Configs())
	}
	tl.ObserveCore(tlSet(a))
	tl.ObserveCore(tlSet(a, b))
	tl.ObserveCore(tlSet(b, a)) // permutation of the previous
	tl.ObserveCore(tlSet(a))    // repeat
	tl.Observe([]*mc.TaskSet{tlSet(c), tlSet(a, b)})
	if tl.Configs() != 3 {
		t.Fatalf("%d distinct configs, want 3", tl.Configs())
	}
	if len(tl.Config(0).Tasks) != 1 || len(tl.Config(1).Tasks) != 2 || len(tl.Config(2).Tasks) != 1 {
		t.Fatal("first-seen order not preserved")
	}
	// Clone isolation: mutating the observed scratch set must not reach
	// the timeline.
	scratch := tlSet(a)
	tl2 := NewTimeline(2)
	tl2.ObserveCore(scratch)
	scratch.Tasks[0].WCET[0] = 99
	if tl2.Config(0).Tasks[0].WCET[0] == 99 {
		t.Fatal("timeline aliases the observed scratch storage")
	}
}

// TestTimelineRun executes a trivially schedulable configuration pair
// and checks the oracle plumbing end to end.
func TestTimelineRun(t *testing.T) {
	tl := NewTimeline(2)
	tl.ObserveCore(tlSet(mc.MustTask(1, "", 10, 1)))
	tl.ObserveCore(tlSet(
		mc.MustTask(1, "", 10, 1),
		mc.MustTask(2, "", 20, 2, 4),
	))
	st := tl.Run(SystemConfig{Horizon: 200})
	if len(st.Cores) != 2 {
		t.Fatalf("%d simulated configs, want 2", len(st.Cores))
	}
	if st.Missed() != 0 {
		t.Fatalf("%d misses on a trivially schedulable timeline", st.Missed())
	}
	if st.Completed() == 0 {
		t.Fatal("no jobs completed; the simulation was vacuous")
	}
}

// TestTimelineRunGuards pins the ownership and dimension guards.
func TestTimelineRunGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a caller-supplied Subsets")
		}
	}()
	NewTimeline(2).Run(SystemConfig{Subsets: []*mc.TaskSet{tlSet()}})
}

func TestNewTimelineBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTimeline accepted k = 0")
		}
	}()
	NewTimeline(0)
}
