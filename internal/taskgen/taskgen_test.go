package taskgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejects pins the configuration errors: every real
// parameter must be finite and every range non-empty.
func TestValidateRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero M", func(c *Config) { c.M = 0 }, "taskgen: M=0 < 1"},
		{"zero K", func(c *Config) { c.K = 0 }, "taskgen: K=0 < 1"},
		{"zero N", func(c *Config) { c.N = IntRange{0, 10} }, "taskgen: invalid N range [0,10]"},
		{"empty N", func(c *Config) { c.N = IntRange{10, 5} }, "taskgen: invalid N range [10,5]"},
		{"zero NSU", func(c *Config) { c.NSU = 0 }, "taskgen: NSU=0 <= 0"},
		{"nan NSU", func(c *Config) { c.NSU = nan }, "taskgen: NSU=NaN is not finite"},
		{"inf NSU", func(c *Config) { c.NSU = inf }, "taskgen: NSU=+Inf is not finite"},
		{"-inf NSU", func(c *Config) { c.NSU = -inf }, "taskgen: NSU=-Inf is not finite"},
		{"underflowing NSU", func(c *Config) { c.M, c.N, c.NSU = 1, IntRange{200, 200}, 5e-324 }, "taskgen: NSU=5e-324 is too small: c(1) underflows to 0"},
		{"negative IFC", func(c *Config) { c.IFC = Range{-0.1, 0.4} }, "taskgen: invalid IFC range [-0.1,0.4]"},
		{"empty IFC", func(c *Config) { c.IFC = Range{0.5, 0.4} }, "taskgen: invalid IFC range [0.5,0.4]"},
		{"nan IFC lo", func(c *Config) { c.IFC = Range{nan, 0.4} }, "taskgen: IFC range [NaN,0.4] is not finite"},
		{"nan IFC hi", func(c *Config) { c.IFC = Range{0.4, nan} }, "taskgen: IFC range [0.4,NaN] is not finite"},
		{"inf IFC hi", func(c *Config) { c.IFC = Range{0.4, inf} }, "taskgen: IFC range [0.4,+Inf] is not finite"},
		{"-inf IFC lo", func(c *Config) { c.IFC = Range{-inf, 0.4} }, "taskgen: IFC range [-Inf,0.4] is not finite"},
		{"no periods", func(c *Config) { c.Periods = nil }, "taskgen: no period ranges"},
		{"zero period", func(c *Config) { c.Periods = []Range{{0, 10}} }, "taskgen: invalid period range [0,10]"},
		{"empty period", func(c *Config) { c.Periods = []Range{{10, 5}} }, "taskgen: invalid period range [10,5]"},
		{"nan period lo", func(c *Config) { c.Periods = []Range{{nan, 10}} }, "taskgen: period range [NaN,10] is not finite"},
		{"nan period hi", func(c *Config) { c.Periods = []Range{{10, nan}} }, "taskgen: period range [10,NaN] is not finite"},
		{"inf period hi", func(c *Config) { c.Periods = []Range{{50, 200}, {10, inf}} }, "taskgen: period range [10,+Inf] is not finite"},
		{"-inf period lo", func(c *Config) { c.Periods = []Range{{-inf, 10}} }, "taskgen: period range [-Inf,10] is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil || err.Error() != tc.want {
				t.Fatalf("error:\n got: %v\nwant: %s", err, tc.want)
			}
		})
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := DefaultConfig()
	for trial := 0; trial < 50; trial++ {
		ts := GenerateIndexed(&cfg, 1, trial)
		if err := ts.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n := ts.Len(); n < cfg.N.Lo || n > cfg.N.Hi {
			t.Fatalf("trial %d: N=%d outside [%d,%d]", trial, n, cfg.N.Lo, cfg.N.Hi)
		}
		for i := range ts.Tasks {
			task := &ts.Tasks[i]
			if task.Crit < 1 || task.Crit > cfg.K {
				t.Fatalf("trial %d: crit %d outside [1,%d]", trial, task.Crit, cfg.K)
			}
			inRange := false
			for _, pr := range cfg.Periods {
				if pr.Contains(task.Period) {
					inRange = true
					break
				}
			}
			if !inRange {
				t.Fatalf("trial %d: period %v outside all ranges", trial, task.Period)
			}
			if task.MaxUtil() > 1+1e-9 {
				t.Fatalf("trial %d: own-level utilization %v > 1", trial, task.MaxUtil())
			}
		}
	}
}

// TestNSUAchieved: the mean normalized system utilization over many
// sets must approximate the configured NSU (the c1 multiplier is
// uniform on [0.2,1.8] with mean 1.0).
func TestNSUAchieved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NSU = 0.6
	sum, sets := 0.0, 200
	for i := 0; i < sets; i++ {
		ts := GenerateIndexed(&cfg, 2, i)
		sum += ts.RawUtil() / float64(cfg.M)
	}
	mean := sum / float64(sets)
	if math.Abs(mean-cfg.NSU) > 0.02 {
		t.Errorf("mean NSU = %v, want ~%v", mean, cfg.NSU)
	}
}

// TestIFCRatioRespected: with a fixed IFC, consecutive WCETs grow by
// exactly (1+IFC) unless capped at the period.
func TestIFCRatioRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IFC = Range{0.5, 0.5}
	ts := GenerateIndexed(&cfg, 3, 0)
	for i := range ts.Tasks {
		task := &ts.Tasks[i]
		for k := 1; k < task.Crit; k++ {
			capped := task.WCET[k] == task.Period
			ratio := task.WCET[k] / task.WCET[k-1]
			if !capped && math.Abs(ratio-1.5) > 1e-9 {
				t.Fatalf("task %d: WCET ratio %v, want 1.5", task.ID, ratio)
			}
		}
	}
}

func TestCritLevelsCoverRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 5
	seen := make(map[int]int)
	for i := 0; i < 20; i++ {
		ts := GenerateIndexed(&cfg, 4, i)
		for j := range ts.Tasks {
			seen[ts.Tasks[j].Crit]++
		}
	}
	for k := 1; k <= 5; k++ {
		if seen[k] == 0 {
			t.Errorf("criticality level %d never drawn", k)
		}
	}
}

// TestGenerateIndexedDeterministic: the same (seed, idx) pair always
// yields the same set; different indices yield different sets.
func TestGenerateIndexedDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := GenerateIndexed(&cfg, 77, 3)
	b := GenerateIndexed(&cfg, 77, 3)
	if a.Len() != b.Len() {
		t.Fatal("same (seed,idx) produced different N")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Period != b.Tasks[i].Period || a.Tasks[i].WCET[0] != b.Tasks[i].WCET[0] {
			t.Fatal("same (seed,idx) produced different tasks")
		}
	}
	c := GenerateIndexed(&cfg, 77, 4)
	same := a.Len() == c.Len()
	if same {
		for i := range a.Tasks {
			if a.Tasks[i].Period != c.Tasks[i].Period {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different indices produced identical sets")
	}
}

// TestSplitmixMatchesRand is the reference for the generator's draws:
// splitmix.float64 and splitmix.intn return, draw for draw, the values
// rand.Rand's Float64 and Intn return from the same source, and they
// consume the same raw draws (the two sources stay in lockstep). The
// n values cover intn's power-of-two mask and its rejection loop; n =
// 2^30+1 rejects about half of the raw draws, and the test requires
// that some were rejected.
func TestSplitmixMatchesRand(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 7, 64, 100, 1 << 20, 1000003, 1<<30 + 1, 1<<31 - 1}
	const golden = 0x9E3779B97F4A7C15 // splitmix's per-draw state step
	rejected := 0
	for _, seed := range []int64{0, 1, 2016, -7, mix(3, 9)} {
		ref, direct := newSplitmix(seed), newSplitmix(seed)
		rng := rand.New(ref)
		for i := 0; i < 2000; i++ {
			if got, want := direct.float64(), rng.Float64(); got != want {
				t.Fatalf("seed %d draw %d: float64 = %v, rand.Float64 = %v", seed, i, got, want)
			}
			n := ns[i%len(ns)]
			before := direct.s
			if got, want := direct.intn(n), rng.Intn(n); got != want {
				t.Fatalf("seed %d draw %d: intn(%d) = %d, rand.Intn = %d", seed, i, n, got, want)
			}
			if direct.s != ref.s {
				t.Fatalf("seed %d draw %d: intn(%d) consumed a different number of raw draws", seed, i, n)
			}
			if direct.s != before+golden {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no intn draw went through the rejection loop")
	}
}

// TestMixSpreads: the seed mixer must be injective-ish over small
// inputs (no collisions in a modest window) and never negative.
func TestMixSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 10; seed++ {
		for idx := int64(0); idx < 1000; idx++ {
			v := mix(seed, idx)
			if v < 0 {
				t.Fatalf("mix(%d,%d) = %d < 0", seed, idx, v)
			}
			if seen[v] {
				t.Fatalf("mix collision at (%d,%d)", seed, idx)
			}
			seen[v] = true
		}
	}
}

// TestGeneratedSetsAreUsable: property — every generated set validates
// and has MaxCrit <= K.
func TestGeneratedSetsAreUsable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = IntRange{5, 30}
	f := func(seed int64) bool {
		ts := GenerateIndexed(&cfg, seed, 0)
		return ts.Validate() == nil && ts.MaxCrit() <= cfg.K
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.M = 0
	GenerateIndexed(&cfg, 1, 0)
}

// TestIntRangeDegenerate: a one-point N range fixes the task count.
func TestIntRangeDegenerate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = IntRange{7, 7}
	for idx := 0; idx < 5; idx++ {
		if got := GenerateIndexed(&cfg, 1, idx).Len(); got != 7 {
			t.Fatalf("set %d: N = %d, want 7", idx, got)
		}
	}
}
