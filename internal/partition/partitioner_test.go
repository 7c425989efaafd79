package partition_test

import (
	"math"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// popConfig builds a generator config near the schedulability boundary
// for the given dimensions, so the population mixes feasible and
// infeasible outcomes (both code paths are exercised).
func popConfig(m, k int) taskgen.Config {
	cfg := taskgen.DefaultConfig()
	cfg.M = m
	cfg.K = k
	cfg.NSU = 0.55
	cfg.N = taskgen.IntRange{Lo: 20, Hi: 60}
	return cfg
}

// sameResult fails unless a and b agree bit-for-bit on feasibility,
// assignment, metrics and the per-core summaries.
func sameResult(t *testing.T, ctx string, a, b *partition.Result) {
	t.Helper()
	if a.Feasible != b.Feasible || a.FailedTask != b.FailedTask {
		t.Fatalf("%s: feasibility mismatch: (%v,%d) vs (%v,%d)",
			ctx, a.Feasible, a.FailedTask, b.Feasible, b.FailedTask)
	}
	if len(a.Assignment) != len(b.Assignment) {
		t.Fatalf("%s: assignment length %d vs %d", ctx, len(a.Assignment), len(b.Assignment))
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("%s: task %d assigned to %d vs %d", ctx, i, a.Assignment[i], b.Assignment[i])
		}
	}
	// Metrics must be bit-identical, not merely close: a reused engine
	// promises the exact floats of a fresh one.
	if a.Usys != b.Usys || a.Uavg != b.Uavg || a.Imbalance != b.Imbalance {
		t.Fatalf("%s: metrics (%v,%v,%v) vs (%v,%v,%v)",
			ctx, a.Usys, a.Uavg, a.Imbalance, b.Usys, b.Uavg, b.Imbalance)
	}
	if len(a.Cores) != len(b.Cores) {
		t.Fatalf("%s: core count %d vs %d", ctx, len(a.Cores), len(b.Cores))
	}
	for c := range a.Cores {
		ca, cb := &a.Cores[c], &b.Cores[c]
		if ca.Util != cb.Util || ca.OwnLevelLoad != cb.OwnLevelLoad || ca.FeasibleK != cb.FeasibleK {
			t.Fatalf("%s: core %d summary (%v,%v,%d) vs (%v,%v,%d)",
				ctx, c, ca.Util, ca.OwnLevelLoad, ca.FeasibleK, cb.Util, cb.OwnLevelLoad, cb.FeasibleK)
		}
		if len(ca.Tasks) != len(cb.Tasks) {
			t.Fatalf("%s: core %d task count %d vs %d", ctx, c, len(ca.Tasks), len(cb.Tasks))
		}
		for i := range ca.Tasks {
			if ca.Tasks[i] != cb.Tasks[i] {
				t.Fatalf("%s: core %d task %d: %d vs %d", ctx, c, i, ca.Tasks[i], cb.Tasks[i])
			}
		}
		for j := range ca.Lambda {
			la, lb := ca.Lambda[j], cb.Lambda[j]
			if la != lb && !(math.IsNaN(la) && math.IsNaN(lb)) {
				t.Fatalf("%s: core %d lambda_%d %v vs %v", ctx, c, j+1, la, lb)
			}
		}
	}
}

// TestPartitionerEquivalence asserts that a Partitioner reused across
// a randomized population returns bit-identical results to a fresh
// Partitioner per set, for every scheme and K = 2..6.
func TestPartitionerEquivalence(t *testing.T) {
	for k := 2; k <= 6; k++ {
		for _, m := range []int{2, 4, 8} {
			cfg := popConfig(m, k)
			p := partition.New(m, k)
			for idx := 0; idx < 40; idx++ {
				ts := taskgen.GenerateIndexed(&cfg, int64(1000*k+m), idx)
				for _, s := range partition.Schemes {
					want := partition.New(m, k).Run(ts, s, nil)
					got := p.Run(ts, s, nil)
					sameResult(t, s.String(), want, got)
				}
			}
		}
	}
}

// TestPartitionerEvaluateMatchesRun asserts the cheap evaluation path,
// Prepare then Place/Summarize per scheme, reports exactly the Result
// fields it summarizes.
func TestPartitionerEvaluateMatchesRun(t *testing.T) {
	for k := 2; k <= 6; k++ {
		cfg := popConfig(8, k)
		runner := partition.New(8, k)
		evaler := partition.New(8, k)
		for idx := 0; idx < 40; idx++ {
			ts := taskgen.GenerateIndexed(&cfg, int64(7700+k), idx)
			evaler.Prepare(ts)
			for _, s := range partition.Schemes {
				want := runner.Run(ts, s, nil)
				evaler.Place(s, nil)
				ev := evaler.Summarize()
				if ev.Feasible != want.Feasible || ev.FailedTask != want.FailedTask {
					t.Fatalf("%s K=%d set %d: Eval feasibility (%v,%d) vs Run (%v,%d)",
						s, k, idx, ev.Feasible, ev.FailedTask, want.Feasible, want.FailedTask)
				}
				if ev.Usys != want.Usys || ev.Uavg != want.Uavg || ev.Imbalance != want.Imbalance {
					t.Fatalf("%s K=%d set %d: Eval metrics (%v,%v,%v) vs Run (%v,%v,%v)",
						s, k, idx, ev.Usys, ev.Uavg, ev.Imbalance, want.Usys, want.Uavg, want.Imbalance)
				}
			}
		}
	}
}

// TestPartitionerOptionsEquivalence covers the non-default alpha
// thresholds on the reusable engine.
func TestPartitionerOptionsEquivalence(t *testing.T) {
	optsList := []*partition.Options{
		{Alpha: partition.InfAlpha()},
		{Alpha: 0.3},
	}
	cfg := popConfig(8, 4)
	p := partition.New(8, 4)
	for idx := 0; idx < 25; idx++ {
		ts := taskgen.GenerateIndexed(&cfg, 42, idx)
		for _, opts := range optsList {
			for _, s := range partition.Schemes {
				want := partition.New(8, 4).Run(ts, s, opts)
				got := p.Run(ts, s, opts)
				sameResult(t, s.String(), want, got)
			}
		}
	}
}

// TestPartitionerReset asserts one engine can be re-dimensioned across
// points (the fig. 4 / fig. 5 sweeps vary M and K) without residue.
func TestPartitionerReset(t *testing.T) {
	p := partition.New(2, 2)
	for _, dims := range [][2]int{{2, 2}, {8, 4}, {4, 6}, {8, 4}, {2, 2}} {
		m, k := dims[0], dims[1]
		cfg := popConfig(m, k)
		p.Reset(m, k)
		for idx := 0; idx < 10; idx++ {
			ts := taskgen.GenerateIndexed(&cfg, 9, idx)
			for _, s := range partition.Schemes {
				want := partition.New(m, k).Run(ts, s, nil)
				got := p.Run(ts, s, nil)
				sameResult(t, s.String(), want, got)
			}
		}
	}
}

// TestPartitionerTrace asserts the trace fast-path interaction: traces
// from the reused engine match a fresh engine's step for step.
func TestPartitionerTrace(t *testing.T) {
	cfg := popConfig(4, 3)
	p := partition.New(4, 3)
	opts := &partition.Options{Trace: true}
	for idx := 0; idx < 10; idx++ {
		ts := taskgen.GenerateIndexed(&cfg, 5, idx)
		for _, s := range partition.Schemes {
			want := partition.New(4, 3).Run(ts, s, opts)
			got := p.Run(ts, s, opts)
			if len(want.Trace) != len(got.Trace) {
				t.Fatalf("%s: trace length %d vs %d", s, len(want.Trace), len(got.Trace))
			}
			for i := range want.Trace {
				w, g := want.Trace[i], got.Trace[i]
				if w.Task != g.Task || w.Core != g.Core || w.Util != g.Util || w.Increment != g.Increment {
					t.Fatalf("%s: trace step %d %+v vs %+v", s, i, w, g)
				}
			}
		}
	}
}

// TestPartitionerResultIsVerifiable runs the independent Result.Verify
// cross-check on fast-path results.
func TestPartitionerResultIsVerifiable(t *testing.T) {
	cfg := popConfig(8, 4)
	p := partition.New(8, 4)
	for idx := 0; idx < 20; idx++ {
		ts := taskgen.GenerateIndexed(&cfg, 64, idx)
		for _, s := range partition.Schemes {
			if err := p.Run(ts, s, nil).Verify(ts); err != nil {
				t.Fatalf("%s set %d: %v", s, idx, err)
			}
		}
	}
}

// TestPartitionerRunAliasing documents the ownership contract: the
// Result returned by Run is invalidated (overwritten in place) by the
// next Run on the same engine.
func TestPartitionerRunAliasing(t *testing.T) {
	cfg := popConfig(4, 2)
	p := partition.New(4, 2)
	ts0 := taskgen.GenerateIndexed(&cfg, 1, 0)
	ts1 := taskgen.GenerateIndexed(&cfg, 1, 1)
	first := p.Run(ts0, partition.CATPA, nil)
	second := p.Run(ts1, partition.CATPA, nil)
	if first != second {
		t.Fatalf("Run should reuse its Result storage (got distinct pointers %p, %p)", first, second)
	}
}

// TestNewPanicsOnInvalidCores: New refuses m < 1.
func TestNewPanicsOnInvalidCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 2) should panic")
		}
	}()
	partition.New(0, 2)
}

// TestRunPanicsBelowMaxCrit: Run refuses a set whose criticality
// exceeds the configured K.
func TestRunPanicsBelowMaxCrit(t *testing.T) {
	ts := mc.NewTaskSet(
		mc.MustTask(1, "", 10, 1, 2, 3),
	)
	p := partition.New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Run with K below MaxCrit should panic")
		}
	}()
	p.Run(ts, partition.FFD, nil)
}
