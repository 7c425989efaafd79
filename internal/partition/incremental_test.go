package partition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// reanalyzingBackend wraps a Backend and forces the exact-recompute
// fallback after every commit: each Place and Remove is immediately
// followed by Reanalyze on the touched core, so every later query
// answers from state rebuilt cold from the committed members. It is
// the reference side of the incremental-vs-batch differential gates —
// by the Backend contract's bit-identity invariant, a Partitioner
// driving this wrapper must produce bitwise the results of one driving
// the unwrapped backend's O(1) delta path.
type reanalyzingBackend struct {
	partition.Backend
}

func (r *reanalyzingBackend) Place(c, ti int) {
	r.Backend.Place(c, ti)
	r.Backend.Reanalyze(c)
}

func (r *reanalyzingBackend) Remove(c, ti int) {
	r.Backend.Remove(c, ti)
	r.Backend.Reanalyze(c)
}

// agreementPair returns two Partitioners over fresh instances of the
// named backend: the incremental one (delta path) and the reference
// one (recompute forced after every commit).
func agreementPair(t *testing.T, name string, m, k int) (inc, ref *partition.Partitioner) {
	t.Helper()
	be1, err := partition.NewBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	be2, err := partition.NewBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	return partition.NewWithBackend(m, k, be1),
		partition.NewWithBackend(m, k, &reanalyzingBackend{Backend: be2})
}

// checkIncrementalAgreement runs every scheme over ts on both sides of
// an agreement pair and fails unless batch results, session placements
// and final summaries are bit-identical. The session phase admits every
// task, releases every third admitted one, then re-admits, so the
// Remove delta and its fallback run under live churn, not just at the
// end of a batch.
func checkIncrementalAgreement(t *testing.T, ctx string, name string, ts *mc.TaskSet, m, k int) {
	pi, pr := agreementPair(t, name, m, k)
	for _, scheme := range partition.Schemes {
		sctx := fmt.Sprintf("%s/%s/%v", ctx, name, scheme)

		// Batch: full runs must agree bitwise, verdicts and placements.
		ri := pi.Run(ts, scheme, nil)
		rr := pr.Run(ts, scheme, nil)
		sameResult(t, sctx+"/batch", ri, rr)

		// Session churn: admissions, releases and re-admissions must
		// track each other decision by decision.
		pi.StartIncremental(ts, scheme, nil)
		pr.StartIncremental(ts, scheme, nil)
		n := ts.Len()
		admit := func(ti int) {
			ci, oki := pi.Admit(ti)
			cr, okr := pr.Admit(ti)
			if ci != cr || oki != okr {
				t.Fatalf("%s: Admit(%d): incremental (%d,%v) vs recompute (%d,%v)",
					sctx, ti, ci, oki, cr, okr)
			}
		}
		for ti := 0; ti < n; ti++ {
			admit(ti)
		}
		for ti := 0; ti < n; ti += 3 {
			if pi.Assigned(ti) < 0 {
				continue
			}
			if ci, cr := pi.Release(ti), pr.Release(ti); ci != cr {
				t.Fatalf("%s: Release(%d): incremental core %d vs recompute core %d",
					sctx, ti, ci, cr)
			}
		}
		for ti := 0; ti < n; ti += 3 {
			if pi.Assigned(ti) < 0 {
				admit(ti)
			}
		}
		for ti := 0; ti < n; ti++ {
			if pi.Assigned(ti) != pr.Assigned(ti) {
				t.Fatalf("%s: final Assigned(%d): %d vs %d",
					sctx, ti, pi.Assigned(ti), pr.Assigned(ti))
			}
		}
		// Eval holds only bools, ints and finite floats (Imbalance is
		// guarded against 0/0), so struct equality is the bitwise test.
		if ei, er := pi.Summarize(), pr.Summarize(); ei != er {
			t.Fatalf("%s: session summary %+v vs %+v", sctx, ei, er)
		}
	}
}

// FuzzIncrementalAgreement is the differential fuzz wall of the
// incremental delta contract: on random task sets, for all five
// schemes under both analysis backends, the incremental path (O(1)
// Place/Remove deltas) and the full-recompute path (Reanalyze forced
// after every commit) must produce bit-identical verdicts, placements,
// per-core summaries and metrics — through batch runs and through an
// admit/release/re-admit session.
func FuzzIncrementalAgreement(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(25), uint8(0))
	f.Add(int64(20160814), uint8(3), uint8(40), uint8(1))
	f.Add(int64(99), uint8(7), uint8(0), uint8(2))
	f.Add(int64(-4242), uint8(11), uint8(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, idx, nsuByte, kByte uint8) {
		k := 2 + int(kByte%4) // 2..5: multi-level for edfvd, dual for amcrtb
		cfg := taskgen.DefaultConfig()
		cfg.M = 4
		cfg.K = k
		// Sweep the load across the acceptance cliff so feasible,
		// infeasible and boundary outcomes all occur.
		cfg.NSU = 0.3 + float64(nsuByte%61)/100
		cfg.N = taskgen.IntRange{Lo: 8, Hi: 32}
		ts := taskgen.GenerateIndexed(&cfg, seed, int(idx))
		ctx := fmt.Sprintf("seed=%d idx=%d nsu=%v k=%d", seed, idx, cfg.NSU, k)
		checkIncrementalAgreement(t, ctx, partition.DefaultBackend, ts, cfg.M, k)
		if k == 2 {
			checkIncrementalAgreement(t, ctx, "amcrtb", ts, cfg.M, k)
		}
	})
}

// TestIncrementalAgreementSweep is the deterministic slice of the fuzz
// wall that runs on every plain `go test`: a seeded population near the
// schedulability boundary, both backends, all schemes, batch and churn.
func TestIncrementalAgreementSweep(t *testing.T) {
	for _, k := range []int{2, 4} {
		cfg := popConfig(4, k)
		cfg.N = taskgen.IntRange{Lo: 8, Hi: 40}
		for idx := 0; idx < 25; idx++ {
			ts := taskgen.GenerateIndexed(&cfg, 777, idx)
			ctx := fmt.Sprintf("k=%d idx=%d", k, idx)
			checkIncrementalAgreement(t, ctx, partition.DefaultBackend, ts, cfg.M, k)
			if k == 2 {
				checkIncrementalAgreement(t, ctx, "amcrtb", ts, cfg.M, k)
			}
		}
	}
}

// TestSessionMatchesBatchOrder pins the session API's central promise:
// a session that admits tasks in a batch run's allocation order (read
// off the batch trace) commits bitwise the batch run's placements —
// including the rejections. This holds per scheme because Admit and the
// batch placement pass dispatch through the same per-task pick rule.
func TestSessionMatchesBatchOrder(t *testing.T) {
	for _, name := range []string{partition.DefaultBackend, "amcrtb"} {
		t.Run(name, func(t *testing.T) {
			cfg := popConfig(4, 2)
			opts := &partition.Options{Trace: true}
			for idx := 0; idx < 20; idx++ {
				ts := taskgen.GenerateIndexed(&cfg, 4711, idx)
				for _, scheme := range partition.Schemes {
					be, err := partition.NewBackend(name)
					if err != nil {
						t.Fatal(err)
					}
					p := partition.NewWithBackend(cfg.M, cfg.K, be)
					res := p.Run(ts, scheme, opts)
					steps := append([]partition.Step(nil), res.Trace...)
					assign := append([]int(nil), res.Assignment...)

					p.StartIncremental(ts, scheme, nil)
					for _, s := range steps {
						c, ok := p.Admit(s.Task)
						if c != s.Core || ok != (s.Core >= 0) {
							t.Fatalf("idx=%d %v: Admit(%d) = (%d,%v), batch step placed on %d",
								idx, scheme, s.Task, c, ok, s.Core)
						}
					}
					for ti := range assign {
						if p.Assigned(ti) != assign[ti] {
							t.Fatalf("idx=%d %v: Assigned(%d) = %d, batch %d",
								idx, scheme, ti, p.Assigned(ti), assign[ti])
						}
					}
				}
			}
		})
	}
}

// TestSessionPermutation pins the session's independence from task
// indices: a session over a permuted copy of the universe (tasks keep
// their IDs), fed the same event stream with every task mapped through
// the permutation, must return the same core and verdict from every
// Admit and the same core from every Release, and end on the same
// Summarize — on all five schemes, edfvd K = 2 and 4, amcrtb K = 2.
// The load is high enough that sheds and releases interleave.
func TestSessionPermutation(t *testing.T) {
	const (
		seed    = 2026
		sets    = 40
		horizon = 4000.0
	)
	proc := taskgen.Poisson{Rate: 0.08, MeanLifetime: 1000}
	for _, tc := range []struct {
		backend string
		k       int
	}{{partition.DefaultBackend, 2}, {partition.DefaultBackend, 4}, {"amcrtb", 2}} {
		t.Run(fmt.Sprintf("%s-K%d", tc.backend, tc.k), func(t *testing.T) {
			cfg := popConfig(4, tc.k)
			cfg.NSU = 1.3
			sb := taskgen.NewStreamBuilder()
			rng := rand.New(rand.NewSource(seed))
			newPart := func() *partition.Partitioner {
				be, err := partition.NewBackend(tc.backend)
				if err != nil {
					t.Fatal(err)
				}
				return partition.NewWithBackend(cfg.M, cfg.K, be)
			}
			p, q := newPart(), newPart()
			var events, admits, sheds int
			for idx := 0; idx < sets; idx++ {
				ts := taskgen.GenerateIndexed(&cfg, seed, idx)
				perm := rng.Perm(ts.Len()) // task i sits at perm[i] in pts
				pts := &mc.TaskSet{Tasks: make([]mc.Task, ts.Len())}
				for i, j := range perm {
					pts.Tasks[j] = ts.Tasks[i]
				}
				stream := sb.Build(proc, ts.Len(), horizon, seed, idx)
				for _, scheme := range partition.Schemes {
					ctx := fmt.Sprintf("idx=%d %v", idx, scheme)
					p.StartIncremental(ts, scheme, nil)
					q.StartIncremental(pts, scheme, nil)
					for _, e := range stream {
						events++
						i, j := e.Task, perm[e.Task]
						if e.Arrive {
							c, ok := p.Admit(i)
							pc, pok := q.Admit(j)
							if c != pc || ok != pok {
								t.Fatalf("%s: Admit(task %d) = (%d,%v), permuted Admit(%d) = (%d,%v)",
									ctx, i, c, ok, j, pc, pok)
							}
							if ok {
								admits++
							} else {
								sheds++
							}
						} else if p.Assigned(i) >= 0 {
							if c, pc := p.Release(i), q.Release(j); c != pc {
								t.Fatalf("%s: Release(task %d) = %d, permuted Release(%d) = %d",
									ctx, i, c, j, pc)
							}
						}
					}
					if a, b := p.Summarize(), q.Summarize(); a != b {
						t.Fatalf("%s: final summary %+v, permuted %+v", ctx, a, b)
					}
				}
			}
			if sheds == 0 || admits == 0 {
				t.Fatalf("%d admits and %d sheds over %d events; the load does not exercise both verdicts",
					admits, sheds, events)
			}
			t.Logf("%d events, %d admits, %d sheds", events, admits, sheds)
		})
	}
}

// TestSessionLoadShedding pins the admission-control behavior of a
// failed Admit: the committed state is untouched (every prior
// assignment and the summary are unchanged), the session stays usable,
// and the rejected task can be admitted after a Release frees room.
func TestSessionLoadShedding(t *testing.T) {
	cfg := popConfig(2, 2)
	cfg.NSU = 0.95 // overload: rejections guaranteed somewhere in the population
	found := false
	for idx := 0; idx < 40 && !found; idx++ {
		ts := taskgen.GenerateIndexed(&cfg, 31, idx)
		p := partition.New(cfg.M, cfg.K)
		p.StartIncremental(ts, partition.CATPA, nil)
		rejected := -1
		for ti := 0; ti < ts.Len(); ti++ {
			if _, ok := p.Admit(ti); !ok {
				rejected = ti
				break
			}
		}
		if rejected < 0 {
			continue
		}
		found = true
		before := p.Summarize()
		if !before.Feasible {
			t.Fatalf("idx=%d: session summary infeasible after shedding task %d; committed placements are schedulable by construction", idx, rejected)
		}
		// A failed retry must leave the summary bitwise unchanged.
		if _, ok := p.Admit(rejected); ok {
			t.Fatalf("idx=%d: immediate retry of task %d succeeded with no release", idx, rejected)
		}
		if after := p.Summarize(); after != before {
			t.Fatalf("idx=%d: failed Admit changed the summary: %+v vs %+v", idx, after, before)
		}
		// Release everything; the shed task must now fit on the empty
		// system (any single generated task does).
		for ti := 0; ti < ts.Len(); ti++ {
			if p.Assigned(ti) >= 0 {
				p.Release(ti)
			}
		}
		if _, ok := p.Admit(rejected); !ok {
			t.Fatalf("idx=%d: task %d still rejected on an empty system", idx, rejected)
		}
	}
	if !found {
		t.Fatal("overload population never produced a rejection; the scenario is vacuous")
	}
}

// TestPooledSessionThenBatch is the serve-pool regression: a pooled
// Partitioner that has served an online session must, on the next batch
// request, produce results bit-identical to a fresh Partitioner's. The
// daemon keeps one Partitioner per (backend, worker) and interleaves
// modes freely, so any state leaking from a session into a batch run
// would corrupt served verdicts.
func TestPooledSessionThenBatch(t *testing.T) {
	for _, name := range []string{partition.DefaultBackend, "amcrtb"} {
		t.Run(name, func(t *testing.T) {
			cfg := popConfig(4, 2)
			tsA := taskgen.GenerateIndexed(&cfg, 55, 0)
			tsB := taskgen.GenerateIndexed(&cfg, 55, 1)

			be, err := partition.NewBackend(name)
			if err != nil {
				t.Fatal(err)
			}
			pooled := partition.NewWithBackend(cfg.M, cfg.K, be)

			// Dirty the pooled instance with a churned session over tsA.
			pooled.StartIncremental(tsA, partition.CATPA, nil)
			for ti := 0; ti < tsA.Len(); ti++ {
				pooled.Admit(ti)
			}
			for ti := 0; ti < tsA.Len(); ti += 2 {
				if pooled.Assigned(ti) >= 0 {
					pooled.Release(ti)
				}
			}

			for _, scheme := range partition.Schemes {
				beF, err := partition.NewBackend(name)
				if err != nil {
					t.Fatal(err)
				}
				fresh := partition.NewWithBackend(cfg.M, cfg.K, beF)
				sameResult(t, fmt.Sprintf("%s/%v", name, scheme),
					pooled.Run(tsB, scheme, nil), fresh.Run(tsB, scheme, nil))
			}
		})
	}
}

// TestSessionPanics pins the misuse guards of the session protocol.
func TestSessionPanics(t *testing.T) {
	cfg := popConfig(2, 2)
	ts := taskgen.GenerateIndexed(&cfg, 7, 0)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	fresh := partition.New(2, 2)
	mustPanic("Admit before StartIncremental", func() { fresh.Admit(0) })
	mustPanic("Release before StartIncremental", func() { fresh.Release(0) })

	p := partition.New(2, 2)
	p.StartIncremental(ts, partition.FFD, nil)
	mustPanic("Admit out of range", func() { p.Admit(ts.Len()) })
	mustPanic("Admit negative", func() { p.Admit(-1) })
	mustPanic("Release unadmitted", func() { p.Release(0) })
	mustPanic("Assigned out of range", func() { p.Assigned(ts.Len()) })
	if _, ok := p.Admit(0); !ok {
		t.Fatal("first admission rejected on an empty system")
	}
	mustPanic("double Admit", func() { p.Admit(0) })
	p.Release(0)
	mustPanic("double Release", func() { p.Release(0) })
}
