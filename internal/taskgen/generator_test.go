package taskgen_test

import (
	"testing"

	"catpa/internal/mc"
	"catpa/internal/taskgen"
)

// sameSet fails unless a and b contain bit-identical tasks.
func sameSet(t *testing.T, ctx string, a, b *mc.TaskSet) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d tasks vs %d", ctx, a.Len(), b.Len())
	}
	for i := range a.Tasks {
		ta, tb := &a.Tasks[i], &b.Tasks[i]
		if ta.ID != tb.ID || ta.Period != tb.Period || ta.Crit != tb.Crit || len(ta.WCET) != len(tb.WCET) {
			t.Fatalf("%s: task %d header (%d,%v,%d) vs (%d,%v,%d)",
				ctx, i, ta.ID, ta.Period, ta.Crit, tb.ID, tb.Period, tb.Crit)
		}
		for k := range ta.WCET {
			if ta.WCET[k] != tb.WCET[k] {
				t.Fatalf("%s: task %d WCET[%d] %v vs %v", ctx, i, k, ta.WCET[k], tb.WCET[k])
			}
		}
	}
}

// TestGeneratorMatchesGenerateIndexed asserts a reused Generator
// regenerates exactly the task set of the one-shot GenerateIndexed (a
// fresh Generator) for every (seed, idx), including when indices are
// revisited out of order after the internal arena has been resized by
// larger sets.
func TestGeneratorMatchesGenerateIndexed(t *testing.T) {
	gen := taskgen.NewGenerator()
	for _, k := range []int{2, 4, 6} {
		cfg := taskgen.DefaultConfig()
		cfg.K = k
		for _, seed := range []int64{1, 2016, 1 << 40} {
			for idx := 0; idx < 30; idx++ {
				want := taskgen.GenerateIndexed(&cfg, seed, idx)
				got := gen.Generate(&cfg, seed, idx)
				sameSet(t, "forward", want, got)
			}
			// Revisit earlier indices: the reseeded source must not
			// carry state across calls.
			for _, idx := range []int{17, 0, 29, 5} {
				want := taskgen.GenerateIndexed(&cfg, seed, idx)
				got := gen.Generate(&cfg, seed, idx)
				sameSet(t, "revisit", want, got)
			}
		}
	}
}

// TestGeneratorSteadyStateAllocs asserts the arena and task buffer are
// actually reused once warmed up.
func TestGeneratorSteadyStateAllocs(t *testing.T) {
	cfg := taskgen.DefaultConfig()
	gen := taskgen.NewGenerator()
	for idx := 0; idx < 50; idx++ { // warm up across the N range
		gen.Generate(&cfg, 7, idx)
	}
	allocs := testing.AllocsPerRun(100, func() {
		gen.Generate(&cfg, 7, 3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Generate allocates %v times per call, want 0", allocs)
	}
}

// TestGeneratorValidates: a reused Generator checks the config on every
// call, as GenerateIndexed does.
func TestGeneratorValidates(t *testing.T) {
	cfg := taskgen.DefaultConfig()
	cfg.NSU = -1
	gen := taskgen.NewGenerator()
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with invalid config should panic")
		}
	}()
	gen.Generate(&cfg, 1, 0)
}
