package partition_test

import (
	"catpa/internal/mc"
	"testing"

	"catpa/internal/fpamc"
	"catpa/internal/partition"
	"catpa/internal/sim"
	"catpa/internal/taskgen"
)

// TestSimOracleAcceptsAreSafe is the differential proof tying the
// analytical pipeline to the event simulator: every task set a
// partitioning scheme accepts (each core passed the EDF-VD Theorem-1
// test) must survive execution under the adversarial worst-case model
// — every job runs to its own-criticality WCET, forcing the maximum
// mode switching — with zero non-dropped deadline misses on every
// core. A single miss would falsify either the analysis or the
// simulator; the failure message carries the (seed, set, scheme)
// triple that replays the exact input via taskgen.GenerateIndexed.
//
// The NSU ladder deliberately includes a point past the schemes'
// acceptance cliff, so the accepted sets include tightly-loaded
// boundary cases, not just easy ones.
func TestSimOracleAcceptsAreSafe(t *testing.T) {
	const (
		seed = 20160814
		sets = 100
	)
	cfg := taskgen.DefaultConfig()
	cfg.M = 4
	cfg.N = taskgen.IntRange{Lo: 16, Hi: 48}

	accepted, simulated := 0, 0
	for _, nsu := range []float64{0.45, 0.6, 0.7} {
		cfg.NSU = nsu
		for idx := 0; idx < sets; idx++ {
			ts := taskgen.GenerateIndexed(&cfg, seed, idx)
			for _, scheme := range partition.Schemes {
				res := partition.New(cfg.M, cfg.K).Run(ts, scheme, nil)
				if !res.Feasible {
					continue
				}
				accepted++
				st := sim.SimulateSystem(sim.SystemConfig{
					Subsets: res.Subsets(ts),
					K:       cfg.K,
				})
				simulated++
				if st.Missed() != 0 {
					t.Fatalf("accepted set missed deadlines under the worst-case model\n"+
						"reproduce: taskgen.GenerateIndexed(cfg{M=%d,K=%d,NSU=%v,N=[%d,%d]}, seed=%d, idx=%d), scheme %v\n%s",
						cfg.M, cfg.K, nsu, cfg.N.Lo, cfg.N.Hi, seed, idx, scheme, st.String())
				}
			}
		}
	}
	// The oracle is only evidence if it actually exercised accepts at
	// every load level; an empty accept population would pass vacuously.
	if accepted == 0 {
		t.Fatal("oracle never saw an accepted partition; the sweep parameters are vacuous")
	}
	t.Logf("sim oracle: %d accepted partitions simulated, 0 misses", simulated)
}

// TestSimOracleFPAcceptsAreSafe is the same differential proof for the
// AMC-rtb backend: every dual-criticality task set a scheme accepts
// through the unified allocator running atop the amcrtb backend (each
// core passed the AMC-rtb response-time analysis) must survive execution
// under fixed-priority dispatching with the deadline-monotonic order
// the analysis assumed — worst-case execution model, zero non-dropped
// deadline misses on every core. This closes the loop the tentpole
// opened: CA-TPA and the classic heuristics now place tasks under an
// analysis the EDF-VD oracle never touches, so the AMC-rtb verdicts
// need their own simulator cross-examination.
func TestSimOracleFPAcceptsAreSafe(t *testing.T) {
	const (
		seed = 20160814
		sets = 60
	)
	cfg := taskgen.DefaultConfig()
	cfg.M = 4
	cfg.K = 2
	cfg.N = taskgen.IntRange{Lo: 16, Hi: 48}

	be, err := partition.NewBackend(fpamc.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.NewWithBackend(cfg.M, cfg.K, be)
	accepted, simulated := 0, 0
	for _, nsu := range []float64{0.45, 0.6, 0.7} {
		cfg.NSU = nsu
		for idx := 0; idx < sets; idx++ {
			ts := taskgen.GenerateIndexed(&cfg, seed, idx)
			for _, scheme := range partition.Schemes {
				res := part.Run(ts, scheme, nil)
				if !res.Feasible {
					continue
				}
				accepted++
				subsets := res.Subsets(ts)
				st := sim.SimulateSystem(sim.SystemConfig{
					Subsets:       subsets,
					K:             cfg.K,
					FixedPriority: true,
					PrioritiesFor: func(core int) []int {
						return fpamc.Priorities(subsets[core].Tasks)
					},
				})
				simulated++
				if st.Missed() != 0 {
					t.Fatalf("amcrtb-accepted set missed deadlines under fixed-priority dispatching\n"+
						"reproduce: taskgen.GenerateIndexed(cfg{M=%d,K=2,NSU=%v,N=[%d,%d]}, seed=%d, idx=%d), scheme %v\n%s",
						cfg.M, nsu, cfg.N.Lo, cfg.N.Hi, seed, idx, scheme, st.String())
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("oracle never saw an accepted partition; the sweep parameters are vacuous")
	}
	t.Logf("fp sim oracle: %d accepted partitions simulated, 0 misses", simulated)
}

// TestSimOracleFPBoundaryCore pins the single-core boundary: a subset
// that AMC-rtb accepts on one core stays safe even when its own-level
// load sits close to the analysis's acceptance frontier.
func TestSimOracleFPBoundaryCore(t *testing.T) {
	cfg := taskgen.DefaultConfig()
	cfg.M = 1
	cfg.K = 2
	cfg.N = taskgen.IntRange{Lo: 4, Hi: 10}

	be, err := partition.NewBackend(fpamc.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.NewWithBackend(1, 2, be)
	accepted := 0
	for _, nsu := range []float64{0.5, 0.7, 0.85} {
		cfg.NSU = nsu
		for idx := 0; idx < 80; idx++ {
			ts := taskgen.GenerateIndexed(&cfg, 99, idx)
			res := part.Run(ts, partition.FFD, nil)
			if !res.Feasible {
				continue
			}
			accepted++
			prios := fpamc.Priorities(ts.Tasks)
			st := sim.SimulateCore(sim.CoreConfig{
				Tasks:         ts.Tasks,
				K:             2,
				Model:         sim.WorstCaseModel{},
				FixedPriority: true,
				Priorities:    prios,
			})
			if st.Missed != 0 {
				t.Fatalf("nsu=%v idx=%d: %d misses on an amcrtb-accepted single core", nsu, idx, st.Missed)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("boundary oracle never accepted; parameters are vacuous")
	}
}

// TestSimOracleIncrementalAcceptsAreSafe extends the differential
// proof to the incremental admission path: placements committed
// through an online session — admissions interleaved with releases and
// re-admissions, so the O(1) add deltas AND the removal fallback both
// shape the final subsets — must survive the adversarial worst-case
// model with zero non-dropped misses, under both analysis backends.
// The batch oracles above never run Remove; this one makes the delta
// path itself carry the safety burden.
func TestSimOracleIncrementalAcceptsAreSafe(t *testing.T) {
	const (
		seed = 20260809
		sets = 60
	)
	for _, backend := range []string{partition.DefaultBackend, "amcrtb"} {
		t.Run(backend, func(t *testing.T) {
			cfg := taskgen.DefaultConfig()
			cfg.M = 4
			cfg.K = 2 // shared dimension: amcrtb is dual-criticality
			cfg.N = taskgen.IntRange{Lo: 12, Hi: 40}
			fp := backend == "amcrtb"

			admitted, simulated := 0, 0
			for _, nsu := range []float64{0.45, 0.6, 0.7} {
				cfg.NSU = nsu
				for idx := 0; idx < sets; idx++ {
					ts := taskgen.GenerateIndexed(&cfg, seed, idx)
					be, err := partition.NewBackend(backend)
					if err != nil {
						t.Fatal(err)
					}
					p := partition.NewWithBackend(cfg.M, cfg.K, be)
					for _, scheme := range partition.Schemes {
						p.StartIncremental(ts, scheme, nil)
						// Churn: admit everything, release every fourth
						// admitted task, then try the whole backlog again.
						for ti := 0; ti < ts.Len(); ti++ {
							p.Admit(ti)
						}
						for ti := 0; ti < ts.Len(); ti += 4 {
							if p.Assigned(ti) >= 0 {
								p.Release(ti)
							}
						}
						for ti := 0; ti < ts.Len(); ti++ {
							if p.Assigned(ti) < 0 {
								p.Admit(ti)
							}
						}
						// Materialize the committed per-core subsets.
						subsets := make([]*mc.TaskSet, cfg.M)
						for c := range subsets {
							subsets[c] = &mc.TaskSet{}
						}
						n := 0
						for ti := 0; ti < ts.Len(); ti++ {
							if c := p.Assigned(ti); c >= 0 {
								subsets[c].Tasks = append(subsets[c].Tasks, ts.Tasks[ti].Clone())
								n++
							}
						}
						if n == 0 {
							continue
						}
						admitted += n
						sc := sim.SystemConfig{Subsets: subsets, K: cfg.K}
						if fp {
							sc.FixedPriority = true
							sc.PrioritiesFor = func(core int) []int {
								return fpamc.Priorities(subsets[core].Tasks)
							}
						}
						st := sim.SimulateSystem(sc)
						simulated++
						if st.Missed() != 0 {
							t.Fatalf("session-admitted tasks missed deadlines under the worst-case model\n"+
								"reproduce: taskgen.GenerateIndexed(cfg{M=%d,K=%d,NSU=%v,N=[%d,%d]}, seed=%d, idx=%d), scheme %v, backend %s\n%s",
								cfg.M, cfg.K, nsu, cfg.N.Lo, cfg.N.Hi, seed, idx, scheme, backend, st.String())
						}
					}
				}
			}
			if admitted == 0 {
				t.Fatal("incremental oracle never admitted a task; the sweep parameters are vacuous")
			}
			t.Logf("incremental sim oracle (%s): %d admitted tasks over %d simulated systems, 0 misses",
				backend, admitted, simulated)
		})
	}
}

// TestSimOracleOnlineScenarioChurn extends the differential proof to
// scenario-driven churn: the arrival/departure event streams of the
// online scenario (Poisson arrivals with exponential lifetimes, the
// same process family mcexp -online replays) drive admission sessions,
// and after every accepted Admit the touched core's committed
// configuration is recorded on a sim.Timeline. Every distinct
// configuration any online accept ever produced is then executed under
// the adversarial worst-case model — zero non-dropped deadline misses,
// under both analysis backends. This is the oracle behind the online
// figures: the admission rates mcexp reports count only placements the
// simulator cannot falsify.
func TestSimOracleOnlineScenarioChurn(t *testing.T) {
	const (
		seed = 20260810
		sets = 24
	)
	for _, backend := range []string{partition.DefaultBackend, "amcrtb"} {
		t.Run(backend, func(t *testing.T) {
			cfg := taskgen.DefaultConfig()
			cfg.M = 4
			cfg.K = 2 // shared dimension: amcrtb is dual-criticality
			cfg.N = taskgen.IntRange{Lo: 24, Hi: 24}
			fp := backend == "amcrtb"
			proc := taskgen.Poisson{Rate: 0.06, MeanLifetime: 300}
			const horizon = 1200.0

			tl := sim.NewTimeline(cfg.K)
			sb := taskgen.NewStreamBuilder()
			scratch := &mc.TaskSet{}
			accepts := 0
			for _, nsu := range []float64{0.6, 0.9, 1.2} {
				cfg.NSU = nsu
				for idx := 0; idx < sets; idx++ {
					ts := taskgen.GenerateIndexed(&cfg, seed, idx)
					events := sb.Build(proc, ts.Len(), horizon, seed, idx)
					be, err := partition.NewBackend(backend)
					if err != nil {
						t.Fatal(err)
					}
					p := partition.NewWithBackend(cfg.M, cfg.K, be)
					for _, scheme := range []partition.Scheme{partition.CATPA, partition.FFD} {
						p.StartIncremental(ts, scheme, nil)
						for _, e := range events {
							if e.Arrive {
								core, ok := p.Admit(e.Task)
								if !ok {
									continue // shed: no schedulability claim made
								}
								accepts++
								// Materialize the touched core's committed
								// configuration — the stationary system the
								// analysis just vouched for.
								scratch.Tasks = scratch.Tasks[:0]
								for ti := 0; ti < ts.Len(); ti++ {
									if p.Assigned(ti) == core {
										scratch.Tasks = append(scratch.Tasks, ts.Tasks[ti])
									}
								}
								tl.ObserveCore(scratch)
							} else if p.Assigned(e.Task) >= 0 {
								p.Release(e.Task)
							}
						}
					}
				}
			}
			if accepts == 0 {
				t.Fatal("online oracle never saw an accept; the scenario parameters are vacuous")
			}
			sc := sim.SystemConfig{}
			if fp {
				sc.FixedPriority = true
				sc.PrioritiesFor = func(i int) []int {
					return fpamc.Priorities(tl.Config(i).Tasks)
				}
			}
			st := tl.Run(sc)
			if st.Missed() != 0 {
				t.Fatalf("an online-accepted configuration missed deadlines under the worst-case model\n"+
					"backend %s, %d accepts over %d distinct configurations\n%s",
					backend, accepts, tl.Configs(), st.String())
			}
			t.Logf("online scenario oracle (%s): %d accepts, %d distinct configurations simulated, 0 misses",
				backend, accepts, tl.Configs())
		})
	}
}
