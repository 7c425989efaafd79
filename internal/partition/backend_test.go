package partition_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"catpa/internal/edfvd"
	"catpa/internal/fpamc"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// TestBackendRegistry pins the closed backend set: exactly the two
// names, a fresh instance per call, each backend's identity, and the
// unknown-name error listing the set.
func TestBackendRegistry(t *testing.T) {
	want := []string{fpamc.BackendName, partition.DefaultBackend}
	if names := partition.BackendNames(); !slices.Equal(names, want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	for name, maxLevels := range map[string]int{partition.DefaultBackend: 0, fpamc.BackendName: 2} {
		be, err := partition.NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		if be.Name() != name || be.MaxLevels() != maxLevels {
			t.Errorf("%s backend: name %q maxLevels %d, want maxLevels %d", name, be.Name(), be.MaxLevels(), maxLevels)
		}
		if be2, _ := partition.NewBackend(name); be2 == be {
			t.Errorf("NewBackend(%q) returned the same instance twice", name)
		}
	}
	_, err := partition.NewBackend("nosuchbackend")
	if err == nil {
		t.Fatal("NewBackend(nosuchbackend): no error")
	}
	if want := `partition: unknown backend "nosuchbackend" (registered: [amcrtb edfvd])`; err.Error() != want {
		t.Errorf("unknown-backend error %q, want %q", err, want)
	}
}

func TestNewWithBackend(t *testing.T) {
	be, err := partition.NewBackend(fpamc.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewWithBackend(2, 2, be)
	if p.Backend() != be {
		t.Error("Backend() accessor does not return the injected backend")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewWithBackend(nil): no panic")
		}
	}()
	partition.NewWithBackend(2, 2, nil)
}

// TestProbeUtilBounded pins the bounded ProbeUtil contract on both
// backends, against each backend's certified floor computed outside
// the backend — the EDF-VD State.UtilFloorWith of a replayed core, the
// AMC-rtb load sum, which is exact whenever the probe is feasible:
//
//   - the probe returns +Inf exactly when floor - base >= margin;
//   - an unpruned answer is bitwise the margin = +Inf answer;
//   - Place(c, ti) commits bitwise what an unprobed Place on a fresh
//     backend commits — both CoreUtil readings and the report —
//     whatever probes ran before it: the winning probe, a probe of
//     another core or another task, pruned probes, no probe, or a
//     re-probe after core c changed and changed back.
func TestProbeUtilBounded(t *testing.T) {
	const m, k = 4, 2
	cfg := popConfig(m, k)
	ts := taskgen.GenerateIndexed(&cfg, 29, 0)
	inf := math.Inf(1)
	row := make([]float64, k)
	cases := []struct {
		name  string
		floor func(be partition.Backend, members []int, c, ti int) float64
	}{
		{partition.DefaultBackend, func(_ partition.Backend, members []int, _, ti int) float64 {
			var s edfvd.State
			s.Reset(k)
			for _, tj := range members {
				ts.Tasks[tj].UtilRow(k, row)
				s.Add(ts.Tasks[tj].Crit, row)
			}
			ts.Tasks[ti].UtilRow(k, row)
			return s.UtilFloorWith(ts.Tasks[ti].Crit, row)
		}},
		{fpamc.BackendName, func(be partition.Backend, _ []int, c, ti int) float64 {
			return be.OwnLoad(c) + ts.Tasks[ti].MaxUtil()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// setup places the first half of the set round-robin where
			// feasible and returns the backend with each core's members
			// in placement order; the second half are the candidates.
			setup := func() (partition.Backend, [][]int) {
				be, err := partition.NewBackend(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				be.Reset(m, k)
				be.Prepare(ts)
				be.Begin()
				members := make([][]int, m)
				for ti := 0; ti < ts.Len()/2; ti++ {
					if c := ti % m; be.FeasibleWith(c, ti) {
						be.Place(c, ti)
						members[c] = append(members[c], ti)
					}
				}
				return be, members
			}
			be, members := setup()
			pruned, kept := 0, 0
			for ti := ts.Len() / 2; ti < ts.Len(); ti++ {
				for c := 0; c < m; c++ {
					floor := tc.floor(be, members[c], c, ti)
					for _, base := range []float64{0, be.CoreUtil(c)} {
						full := be.ProbeUtil(c, ti, base, inf)
						d := floor - base
						for _, margin := range []float64{inf, math.Nextafter(d, inf), d, d - 1e-3, d + 1e-3, 0} {
							got := be.ProbeUtil(c, ti, base, margin)
							want := full
							if d >= margin {
								want = inf
								pruned++
							} else {
								kept++
							}
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("core %d task %d base=%v margin=%v: ProbeUtil %v, want %v (floor %v, unbounded %v)",
									c, ti, base, margin, got, want, floor, full)
							}
						}
					}
				}
			}
			if pruned == 0 || kept == 0 {
				t.Fatalf("degenerate sweep: %d pruned, %d unpruned probes", pruned, kept)
			}

			// The commit rule: find a candidate ti and a second task x
			// that both fit core 0, then commit ti there after each
			// probe history.
			ti, x := -1, -1
			for cand := ts.Len() / 2; cand < ts.Len(); cand++ {
				if math.IsInf(be.ProbeUtil(0, cand, 0, inf), 1) {
					continue
				}
				if ti < 0 {
					ti = cand
				} else {
					x = cand
					break
				}
			}
			if x < 0 {
				t.Fatal("fewer than two candidates fit core 0")
			}
			ref, refMembers := setup()
			ref.Place(0, ti)
			if fresh, _ := setup(); math.Float64bits(ref.CoreUtil(0)) != math.Float64bits(fresh.ProbeUtil(0, ti, 0, inf)) {
				t.Fatalf("committed CoreUtil %v, probe %v", ref.CoreUtil(0), fresh.ProbeUtil(0, ti, 0, inf))
			}
			// prune returns a margin at which a probe of ti on core c
			// is pruned: the certified floor itself, with base 0.
			prune := func(be partition.Backend, c int) float64 {
				return tc.floor(be, refMembers[c], c, ti)
			}
			histories := []struct {
				name string
				run  func(be partition.Backend)
			}{
				{"winning-probe", func(be partition.Backend) {
					be.ProbeUtil(0, ti, 0, inf)
				}},
				{"unpruned-probe-of-another-core", func(be partition.Backend) {
					be.ProbeUtil(0, ti, 0, inf)
					be.ProbeUtil(1, ti, 0, inf)
				}},
				{"unpruned-probe-of-another-task", func(be partition.Backend) {
					be.ProbeUtil(0, ti, 0, inf)
					be.ProbeUtil(0, x, 0, inf)
				}},
				{"pruned-probes", func(be partition.Backend) {
					be.ProbeUtil(0, ti, 0, inf)
					for _, c := range []int{1, 0} {
						if got := be.ProbeUtil(c, ti, 0, prune(be, c)); !math.IsInf(got, 1) {
							t.Fatalf("probe of core %d at margin = floor not pruned: %v", c, got)
						}
					}
				}},
				{"pruned-probe-only", func(be partition.Backend) {
					be.ProbeUtil(0, ti, 0, prune(be, 0))
				}},
				{"no-probe", func(partition.Backend) {}},
				{"remove-then-reprobe", func(be partition.Backend) {
					be.Place(0, x)
					be.ProbeUtil(0, ti, 0, inf)
					be.Remove(0, x)
					be.ProbeUtil(0, ti, 0, inf)
				}},
				{"stale-probe-after-remove", func(be partition.Backend) {
					be.Place(0, x)
					be.ProbeUtil(0, ti, 0, inf)
					be.Remove(0, x)
				}},
			}
			for _, h := range histories {
				got, _ := setup()
				h.run(got)
				got.Place(0, ti)
				if g, w := got.CoreUtil(0), ref.CoreUtil(0); math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s: committed CoreUtil %v, unprobed commit %v", h.name, g, w)
				}
				// %x renders each float exactly, so equal strings mean
				// bitwise-equal reports.
				var gi, wi partition.CoreInfo
				got.ReportInto(0, &gi)
				ref.ReportInto(0, &wi)
				if fmt.Sprintf("%x %d %x", gi.Util, gi.FeasibleK, gi.Lambda) != fmt.Sprintf("%x %d %x", wi.Util, wi.FeasibleK, wi.Lambda) {
					t.Errorf("%s: report (%v, %d, %v), unprobed (%v, %d, %v)",
						h.name, gi.Util, gi.FeasibleK, gi.Lambda, wi.Util, wi.FeasibleK, wi.Lambda)
				}
			}
		})
	}
}
