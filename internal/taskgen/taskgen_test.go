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

func TestValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.N = IntRange{0, 10} },
		func(c *Config) { c.N = IntRange{10, 5} },
		func(c *Config) { c.NSU = 0 },
		func(c *Config) { c.IFC = Range{-0.1, 0.4} },
		func(c *Config) { c.IFC = Range{0.5, 0.4} },
		func(c *Config) { c.Periods = nil },
		func(c *Config) { c.Periods = []Range{{0, 10}} },
		func(c *Config) { c.Periods = []Range{{10, 5}} },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		ts := Generate(&cfg, rng)
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
	rng := rand.New(rand.NewSource(2))
	sum, sets := 0.0, 200
	for i := 0; i < sets; i++ {
		ts := Generate(&cfg, rng)
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
	rng := rand.New(rand.NewSource(3))
	ts := Generate(&cfg, rng)
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
	rng := rand.New(rand.NewSource(4))
	seen := make(map[int]int)
	for i := 0; i < 20; i++ {
		ts := Generate(&cfg, rng)
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
	Generate(&cfg, rand.New(rand.NewSource(1)))
}

func TestIntRangeDegenerate(t *testing.T) {
	r := IntRange{7, 7}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if got := r.sample(rng); got != 7 {
			t.Fatalf("sample = %d, want 7", got)
		}
	}
}
