package serve

import (
	"context"
	"slices"
	"strings"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

func TestScreenVerdictString(t *testing.T) {
	if ScreenUncertain.String() != "uncertain" || ScreenReject.String() != "reject" {
		t.Errorf("verdict strings: %v %v", ScreenUncertain, ScreenReject)
	}
	if got := ScreenVerdict(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown verdict renders %q", got)
	}
}

func TestScreenRejectConditions(t *testing.T) {
	// Condition 1: aggregate level utilization beyond platform
	// capacity.
	over := mc.NewTaskSet(
		mc.MustTask(1, "a", 10, 4, 4),
		mc.MustTask(2, "b", 10, 4, 4),
		mc.MustTask(3, "c", 10, 4, 4),
	)
	if v, reason := Screen(over, 1, 2); v != ScreenReject || !strings.Contains(reason, "platform capacity") {
		t.Errorf("capacity overload: %v %q", v, reason)
	}

	// Condition 2: three just-over-half tasks cannot share two cores
	// even though their sum fits.
	heavy := mc.NewTaskSet(
		mc.MustTask(1, "a", 10, 5.2),
		mc.MustTask(2, "b", 10, 5.2),
		mc.MustTask(3, "c", 10, 5.2),
	)
	if v, reason := Screen(heavy, 2, 1); v != ScreenReject || !strings.Contains(reason, "cannot share") {
		t.Errorf("pigeonhole overload: %v %q", v, reason)
	}

	// A clearly schedulable set must stay uncertain — the screen never
	// admits.
	easy := mc.NewTaskSet(
		mc.MustTask(1, "a", 10, 2, 3),
		mc.MustTask(2, "b", 10, 2),
	)
	if v, reason := Screen(easy, 2, 2); v != ScreenUncertain || reason != "" {
		t.Errorf("easy set: %v %q", v, reason)
	}
}

// bandSet is n identical tasks of criticality crit, period 100 and
// top-level WCET c, with level-1 WCET 10 below the top for crit 2.
func bandSet(n, crit int, c float64) *mc.TaskSet {
	tasks := make([]mc.Task, n)
	for i := range tasks {
		wcet := []float64{c}
		if crit == 2 {
			wcet = []float64{10, c}
		}
		tasks[i] = mc.MustTask(i+1, "", 100, wcet...)
	}
	return mc.NewTaskSet(tasks...)
}

// TestScreenSoundnessDifferential is the subset-property proof the
// screen-first rejects and the degraded tier rest on: whenever the
// probe-only screen certifies a reject, the full analysis — every
// scheme crossed with both analysis backends — must reject too. A
// single counterexample would mean the daemon refuses a set its full
// analysis admits, which is the one lie it must never tell.
func TestScreenSoundnessDifferential(t *testing.T) {
	backends := partition.BackendNames()
	if len(backends) < 2 {
		t.Fatalf("differential test needs both backends, have %v", backends)
	}
	// admits reports which backend/scheme pairs admit ts on m cores,
	// over the backends that support k levels.
	admits := func(ts *mc.TaskSet, m, k int) []string {
		var out []string
		for _, name := range backends {
			be, err := partition.NewBackend(name)
			if err != nil {
				t.Fatalf("NewBackend(%q): %v", name, err)
			}
			if maxK := be.MaxLevels(); maxK > 0 && k > maxK {
				continue
			}
			p := partition.NewWithBackend(m, k, be)
			p.Prepare(ts)
			for _, scheme := range partition.Schemes {
				if p.Place(scheme, nil); p.Summarize().Feasible {
					out = append(out, scheme.String()+"/"+name)
				}
			}
		}
		return out
	}
	rejects, uncertain := 0, 0
	for k := 1; k <= 4; k++ {
		for _, nsu := range []float64{0.6, 0.8, 0.95, 1.0} {
			for seed := int64(0); seed < 10; seed++ {
				cfg := taskgen.DefaultConfig()
				cfg.M, cfg.K, cfg.NSU = 4, k, nsu
				cfg.N = taskgen.IntRange{Lo: 16, Hi: 16}
				ts := taskgen.GenerateIndexed(&cfg, seed, 0)
				for m := 1; m <= 4; m++ {
					v, reason := Screen(ts, m, k)
					if v != ScreenReject {
						uncertain++
						continue
					}
					rejects++
					if got := admits(ts, m, k); len(got) > 0 {
						t.Fatalf("UNSOUND: screen rejected (k=%d nsu=%v seed=%d m=%d: %s) but %v admit", k, nsu, seed, m, reason, got)
					}
				}
			}
		}
	}
	// The sweep must actually exercise both sides of the screen.
	if rejects == 0 || uncertain == 0 {
		t.Fatalf("sweep imbalance: %d rejects, %d uncertain", rejects, uncertain)
	}

	// Sets whose cores fill to just inside the backends' tolerance band
	// above 1: EDF-VD admits each, so the screen must stay uncertain.
	// Just outside the band the screen must still reject.
	for _, tc := range []struct {
		name   string
		ts     *mc.TaskSet
		m, k   int
		inBand bool
	}{
		{"four level-1 tasks at 0.5+3e-10 on two cores", bandSet(4, 1, 50.00000003), 2, 1, true},
		{"six level-1 tasks at 0.5+3e-10 on three cores", bandSet(6, 1, 50.00000003), 3, 2, true},
		{"four level-2 tasks at 0.5+3e-10 on two cores", bandSet(4, 2, 50.00000003), 2, 2, true},
		{"four level-1 tasks at 0.5+1e-8 on two cores", bandSet(4, 1, 50.000001), 2, 1, false},
		{"four level-2 tasks at 0.5+1e-8 on two cores", bandSet(4, 2, 50.000001), 2, 2, false},
	} {
		v, reason := Screen(tc.ts, tc.m, tc.k)
		got := admits(tc.ts, tc.m, tc.k)
		switch {
		case v == ScreenReject && len(got) > 0:
			t.Errorf("UNSOUND: %s: screen rejected (%s) but %v admit", tc.name, reason, got)
		case tc.inBand && v != ScreenUncertain:
			t.Errorf("%s: screen %v (%s), want uncertain", tc.name, v, reason)
		case tc.inBand && !slices.ContainsFunc(got, func(s string) bool { return strings.HasSuffix(s, "/edfvd") }):
			t.Errorf("%s: no EDF-VD scheme admits the set; it does not test the band", tc.name)
		case !tc.inBand && v != ScreenReject:
			t.Errorf("%s: screen %v, want a reject outside the band", tc.name, v)
		}
	}
}

// TestScreenAgreesWithDegradedEndpoint pins the API contract: the
// degraded tier's verdict is exactly Screen's.
func TestScreenAgreesWithDegradedEndpoint(t *testing.T) {
	s := NewServer(Config{})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}()
	ts := overloadedSet(t)
	job, err := normalize(&Request{TaskSet: ts, M: 2}, 10000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.degradedResponse(job)
	v, reason := Screen(ts, 2, ts.MaxCrit())
	if v != ScreenReject {
		t.Fatalf("fixture not overloaded enough")
	}
	if resp.Verdict != VerdictRejected || resp.Reason != reason || !resp.Degraded {
		t.Errorf("degraded endpoint disagrees with Screen: %+v vs %q", resp, reason)
	}
}
