// Package taskgen generates synthetic mixed-criticality task sets
// following the protocol of Han et al. (ICPP 2016), Section IV-A and
// Table IV:
//
//   - base level-1 utilization u_base = NSU * M / N;
//   - per task: period drawn from one of three ranges ([50,200],
//     [200,500], [500,2000]), itself chosen uniformly at random;
//   - c_i(1) uniform in [0.2, 1.8] * p_i * u_base;
//   - criticality level l_i uniform in {1..K};
//   - c_i(k) = c_i(k-1) * (1 + IFC), with the increment factor IFC
//     either fixed or drawn per task from a range.
//
// Generation is fully deterministic given a Config and a seed, and a
// (seed, index) pair identifies one task set of a replicated
// experiment, so parallel and serial sweeps produce identical sets.
package taskgen

import (
	"fmt"

	"catpa/internal/mc"
)

// Range is a closed interval [Lo, Hi].
type Range struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the range (inclusive).
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// IntRange is a closed integer interval.
type IntRange struct {
	Lo, Hi int
}

// DefaultPeriodRanges are the three period ranges of Table IV.
func DefaultPeriodRanges() []Range {
	return []Range{{50, 200}, {200, 500}, {500, 2000}}
}

// Config describes one workload family. The zero value is not valid;
// use DefaultConfig and override fields.
type Config struct {
	// M is the number of cores the set is meant for (used only to
	// scale u_base; the generator does not partition).
	M int

	// K is the number of system criticality levels.
	K int

	// N is the number-of-tasks range; the paper draws N uniformly
	// from [40, 200] unless a specific N is under study.
	N IntRange

	// NSU is the normalized system utilization: aggregate level-1
	// utilization divided by M.
	NSU float64

	// IFC is the WCET increment-factor range; a degenerate range
	// (Lo == Hi) yields the fixed default 0.4 of the paper.
	IFC Range

	// Periods lists the candidate period ranges; one is chosen
	// uniformly per task.
	Periods []Range
}

// DefaultConfig returns the paper's default parameter point:
// M=8, K=4, NSU=0.6, IFC=0.4, N ~ U[40,200], Table IV periods.
func DefaultConfig() Config {
	return Config{
		M:       8,
		K:       4,
		N:       IntRange{40, 200},
		NSU:     0.6,
		IFC:     Range{0.4, 0.4},
		Periods: DefaultPeriodRanges(),
	}
}

// Validate checks the configuration: every real parameter must be
// finite, every range non-empty, and NSU large enough that no c(1)
// draw underflows to zero. The generator builds tasks with
// mc.TaskSlabTrusted, so this check is what keeps them valid.
func (c *Config) Validate() error {
	switch {
	case c.M < 1:
		return fmt.Errorf("taskgen: M=%d < 1", c.M)
	case c.K < 1:
		return fmt.Errorf("taskgen: K=%d < 1", c.K)
	case c.N.Lo < 1 || c.N.Hi < c.N.Lo:
		return fmt.Errorf("taskgen: invalid N range [%d,%d]", c.N.Lo, c.N.Hi)
	case !isFinite(c.NSU):
		return fmt.Errorf("taskgen: NSU=%v is not finite", c.NSU)
	case c.NSU <= 0:
		return fmt.Errorf("taskgen: NSU=%v <= 0", c.NSU)
	case !c.IFC.finite():
		return fmt.Errorf("taskgen: IFC range [%v,%v] is not finite", c.IFC.Lo, c.IFC.Hi)
	case c.IFC.Lo < 0 || c.IFC.Hi < c.IFC.Lo:
		return fmt.Errorf("taskgen: invalid IFC range [%v,%v]", c.IFC.Lo, c.IFC.Hi)
	case len(c.Periods) == 0:
		return fmt.Errorf("taskgen: no period ranges")
	}
	// The smallest c(1) the generator can draw, rounded in the same
	// order as drawTask's (0.2 + f*1.6) * p * uBase: rounding is
	// monotone, so if this is positive every draw is.
	uMin := c.NSU * float64(c.M) / float64(c.N.Hi)
	for _, p := range c.Periods {
		if !p.finite() {
			return fmt.Errorf("taskgen: period range [%v,%v] is not finite", p.Lo, p.Hi)
		}
		if p.Lo <= 0 || p.Hi < p.Lo {
			return fmt.Errorf("taskgen: invalid period range [%v,%v]", p.Lo, p.Hi)
		}
		if 0.2*p.Lo*uMin <= 0 {
			return fmt.Errorf("taskgen: NSU=%v is too small: c(1) underflows to 0", c.NSU)
		}
	}
	return nil
}

// finite reports whether both bounds are finite.
func (r Range) finite() bool { return isFinite(r.Lo) && isFinite(r.Hi) }

// GenerateIndexed produces the idx-th task set of a replicated
// experiment rooted at baseSeed. Each index gets an independent,
// deterministic stream, so replication can be parallelized while
// remaining reproducible. The set owns its storage: it is a fresh
// Generator's output, which no later call reuses.
func GenerateIndexed(cfg *Config, baseSeed int64, idx int) *mc.TaskSet {
	return NewGenerator().Generate(cfg, baseSeed, idx)
}

// splitmix is the SplitMix64 random source behind Generator and
// StreamBuilder (rand.Source64). Seeding is one word where the stdlib
// source refills a 607-word table per Seed — a cost that dominated
// per-set generation in the sweep hot loop, since every set of a
// replicated experiment reseeds for its independent stream.
// Generation stays fully deterministic: a (cfg, seed, index) triple
// identifies one task set, bit for bit, across serial, parallel and
// resumed sweeps.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64) *splitmix { return &splitmix{s: uint64(seed)} }

// Seed implements rand.Source.
//
//mc:allocfree one store
func (s *splitmix) Seed(seed int64) { s.s = uint64(seed) }

// Uint64 implements rand.Source64 (the SplitMix64 finalizer).
//
//mc:allocfree mixing arithmetic
func (s *splitmix) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	z := s.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
//
//mc:allocfree mixing arithmetic
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// float64 draws exactly the value rand.Rand.Float64 would draw from
// this source — float64(Int63())/2^63, resampling the (measure-zero)
// 1.0 — without the per-draw interface dispatch through rand.Rand.
// The generator's hot path draws several floats per task, and the
// dispatch was a visible slice of sweep generation time.
//
//mc:allocfree pure arithmetic
func (s *splitmix) float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		//lint:ignore mclint/floateq deliberately exact: replicates rand.Rand.Float64's resample-on-1.0 guard bit for bit
		if f != 1 {
			return f
		}
	}
}

// intn draws exactly the value rand.Rand.Intn would draw from this
// source for 0 < n < 2^31: the power-of-two mask or the rejection
// loop of Int31n, bit for bit.
//
//mc:allocfree pure arithmetic
func (s *splitmix) intn(n int) int {
	if n&(n-1) == 0 { // power of two: mask
		return int(int32(s.Int63()>>32) & int32(n-1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % int32(n))
}

// Generator amortizes workload generation: it owns a reusable seeded
// splitmix source, a task-slice buffer, and a WCET arena from which
// each task's vector is carved (mc.TaskSlabTrusted), so that
// steady-state generation performs no heap allocations. For a given
// (cfg, baseSeed, idx) it produces exactly the task set of
// GenerateIndexed, bit for bit — the experiment harness relies on this
// to keep parallel sweeps deterministic while reusing one Generator
// per worker.
//
// The returned task set and every task's WCET vector alias the
// generator's internal storage: they are valid only until the next
// Generate call. A Generator must not be shared between goroutines.
type Generator struct {
	src   *splitmix
	arena []float64
	ts    mc.TaskSet
}

// NewGenerator returns an empty generator; the seed is installed per
// Generate call.
func NewGenerator() *Generator {
	return &Generator{src: newSplitmix(1)}
}

// Generate produces the idx-th task set of the replicated experiment
// rooted at baseSeed, reusing all internal storage. See the type
// comment for the aliasing contract. Each task's WCET vector is cut
// from the arena with its capacity capped at K, so appending to one
// vector reallocates it instead of overwriting the next task's.
//
// Draws go through the source's direct float64/intn replicas of the
// rand.Rand algorithms — the same values in the same order, without
// per-draw dispatch.
func (g *Generator) Generate(cfg *Config, baseSeed int64, idx int) *mc.TaskSet {
	if err := cfg.Validate(); err != nil {
		//lint:ignore mclint/panicmsg Validate errors already carry the "taskgen: " prefix
		panic(err)
	}
	g.src.Seed(mix(baseSeed, int64(idx)))
	src := g.src
	n := cfg.N.Lo
	if cfg.N.Hi > cfg.N.Lo {
		n += src.intn(cfg.N.Hi - cfg.N.Lo + 1)
	}
	uBase := cfg.NSU * float64(cfg.M) / float64(n)
	g.sizeFor(n, cfg.K)
	for i := 0; i < n; i++ {
		w := g.arena[i*cfg.K : i*cfg.K+cfg.K : i*cfg.K+cfg.K]
		g.ts.Tasks = append(g.ts.Tasks, drawTask(cfg, src, i+1, uBase, w))
	}
	return &g.ts
}

// sizeFor readies the arena and task buffer for n tasks of up to k
// levels.
//
//mc:allocfree amortized: reallocates only on growth
func (g *Generator) sizeFor(n, k int) {
	if need := n * k; cap(g.arena) < need {
		g.arena = make([]float64, need)
	}
	if cap(g.ts.Tasks) < n {
		g.ts.Tasks = make([]mc.Task, 0, n)
	}
	g.ts.Tasks = g.ts.Tasks[:0]
}

// drawTask draws one task into w: the period-range pick, the period,
// the c(1) factor, the criticality and the IFC, in that order. WCETs
// grow by (1+IFC) per level, truncated at the period so that no
// task's own-level utilization exceeds 1 (an unschedulable-by-
// construction task would make the whole set trivially infeasible for
// every heuristic and carry no information; the paper's parameters
// make such draws rare). With a valid Config this enforces every Task
// invariant structurally, which is why mc.TaskSlabTrusted may skip
// validation.
//
//mc:allocfree slab-backed task construction
func drawTask(cfg *Config, src *splitmix, id int, uBase float64, w []float64) mc.Task {
	pr := cfg.Periods[src.intn(len(cfg.Periods))]
	p := pr.Lo + src.float64()*(pr.Hi-pr.Lo)
	c1 := (0.2 + src.float64()*1.6) * p * uBase
	crit := 1 + src.intn(cfg.K)
	ifc := cfg.IFC.Lo + src.float64()*(cfg.IFC.Hi-cfg.IFC.Lo)
	w = w[:crit]
	c := c1
	for k := 0; k < crit; k++ {
		w[k] = c
		c *= 1 + ifc
	}
	for k := 1; k < crit; k++ {
		if w[k] > p {
			w[k] = p
		}
	}
	if w[0] > p {
		w[0] = p
		for k := 1; k < crit; k++ {
			w[k] = p
		}
	}
	return mc.TaskSlabTrusted(id, p, w)
}

// mix combines a base seed and an index into a well-spread 63-bit
// seed (SplitMix64 finalizer).
func mix(seed, idx int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}
