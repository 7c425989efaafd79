package taskgen

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"catpa/internal/mc"
)

// FuzzGenerate drives the generator across its whole parameter space
// and checks the guarantees the rest of the pipeline relies on:
//
//   - every generated set passes mc.TaskSet.Validate (positive
//     non-decreasing WCET vectors, per-task own-level utilization <= 1);
//   - N, criticality levels and periods land inside the configured
//     ranges;
//   - per-task level-1 utilizations respect the [0.2, 1.8] * u_base
//     band of Table IV (after the cap at 1), and so the aggregate
//     level-1 utilization lands within the band implied by the
//     requested NSU;
//   - (seed, index)-addressed generation is deterministic;
//   - a config that Validate rejects makes generation panic with that
//     error. rawAt selects a real parameter (NSU, IFC.Hi or the first
//     period range's Hi) that takes the unconstrained value raw, NaN
//     and the infinities included; every raw value Validate accepts
//     must still yield a valid set.
func FuzzGenerate(f *testing.F) {
	// The paper's default point (M=8, K=4, NSU=0.6, IFC=0.4).
	f.Add(int64(1), uint8(8), uint8(4), uint8(40), uint8(160), uint16(600), uint8(40), uint8(0), 0.0, uint8(0))
	// Degenerate single-core, single-level, single-task family.
	f.Add(int64(42), uint8(1), uint8(1), uint8(1), uint8(0), uint16(100), uint8(0), uint8(0), 0.0, uint8(0))
	// Overload: NSU close to the cap with a wide IFC range.
	f.Add(int64(7), uint8(4), uint8(5), uint8(10), uint8(20), uint16(1900), uint8(150), uint8(99), 0.0, uint8(0))
	// Raw parameters: a NaN NSU, an infinite IFC bound, a huge period,
	// an NSU so small that c(1) would underflow.
	f.Add(int64(3), uint8(8), uint8(4), uint8(40), uint8(160), uint16(600), uint8(40), uint8(0), math.NaN(), uint8(1))
	f.Add(int64(3), uint8(8), uint8(4), uint8(40), uint8(160), uint16(600), uint8(40), uint8(0), math.Inf(1), uint8(2))
	f.Add(int64(3), uint8(8), uint8(4), uint8(40), uint8(160), uint16(600), uint8(40), uint8(0), 1e300, uint8(3))
	f.Add(int64(3), uint8(0), uint8(4), uint8(199), uint8(0), uint16(600), uint8(40), uint8(0), 5e-324, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, mB, kB, nLoB, nSpanB uint8, nsuPm uint16, ifcLoB, ifcSpanB uint8, raw float64, rawAt uint8) {
		cfg := Config{
			M:       1 + int(mB%16),
			K:       1 + int(kB%8),
			N:       IntRange{Lo: 1 + int(nLoB%200)},
			NSU:     float64(1+nsuPm%2000) / 1000, // (0, 2]
			IFC:     Range{Lo: float64(ifcLoB%200) / 100},
			Periods: DefaultPeriodRanges(),
		}
		cfg.N.Hi = cfg.N.Lo + int(nSpanB%100)
		cfg.IFC.Hi = cfg.IFC.Lo + float64(ifcSpanB%100)/100
		switch rawAt % 4 {
		case 1:
			cfg.NSU = raw
		case 2:
			cfg.IFC.Hi = raw
		case 3:
			cfg.Periods[0].Hi = raw
		}
		if err := cfg.Validate(); err != nil {
			if rawAt%4 == 0 {
				t.Fatalf("constructed config does not validate: %v", err)
			}
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Fatalf("invalid config: Generate panicked with %v, want %v", r, err)
				}
			}()
			GenerateIndexed(&cfg, seed, 0)
			return
		}

		ts := GenerateIndexed(&cfg, seed, 0)
		if err := ts.Validate(); err != nil {
			t.Fatalf("generated set invalid: %v\nconfig: %+v", err, cfg)
		}
		n := ts.Len()
		if n < cfg.N.Lo || n > cfg.N.Hi {
			t.Fatalf("N = %d outside [%d, %d]", n, cfg.N.Lo, cfg.N.Hi)
		}

		// Per-task band of Table IV: c_i(1) in [0.2, 1.8] * p_i * u_base,
		// capped so the own-level utilization never exceeds 1.
		uBase := cfg.NSU * float64(cfg.M) / float64(n)
		loBand := math.Min(0.2*uBase, 1)
		hiBand := math.Min(1.8*uBase, 1)
		const tol = 1e-9
		sumU1 := 0.0
		for i := range ts.Tasks {
			task := &ts.Tasks[i]
			if task.Crit < 1 || task.Crit > cfg.K {
				t.Fatalf("task %d criticality %d outside [1, %d]", task.ID, task.Crit, cfg.K)
			}
			inRange := false
			for _, pr := range cfg.Periods {
				if pr.Contains(task.Period) {
					inRange = true
					break
				}
			}
			if !inRange {
				t.Fatalf("task %d period %v outside every configured range", task.ID, task.Period)
			}
			for k := 1; k < task.Crit; k++ {
				if task.WCET[k] < task.WCET[k-1] {
					t.Fatalf("task %d WCET not monotone: %v", task.ID, task.WCET)
				}
			}
			if mu := task.MaxUtil(); mu > 1+tol {
				t.Fatalf("task %d own-level utilization %v > 1", task.ID, mu)
			}
			u1 := task.Util(1)
			if u1 < loBand-tol || u1 > hiBand+tol {
				t.Fatalf("task %d u(1) = %v outside band [%v, %v] (u_base = %v)",
					task.ID, u1, loBand, hiBand, uBase)
			}
			sumU1 += u1
		}

		// Aggregate level-1 utilization: each u_i(1) is in the band, so
		// the total must land within n * band of the requested NSU * M
		// target (exact equality is not promised — the draw is uniform
		// per task, not normalized).
		if sumU1 < float64(n)*loBand-1e-6 || sumU1 > float64(n)*hiBand+1e-6 {
			t.Fatalf("aggregate u(1) = %v outside [%v, %v] for NSU = %v, M = %d, n = %d",
				sumU1, float64(n)*loBand, float64(n)*hiBand, cfg.NSU, cfg.M, n)
		}

		// Determinism: the same (seed, index) pair yields the same set,
		// byte for byte.
		a := GenerateIndexed(&cfg, seed, 3)
		b := GenerateIndexed(&cfg, seed, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("GenerateIndexed is not deterministic for identical (seed, index)")
		}
		// And sequential IDs are assigned 1..n.
		for i := range ts.Tasks {
			if ts.Tasks[i].ID != i+1 {
				t.Fatalf("task at index %d has ID %d, want %d", i, ts.Tasks[i].ID, i+1)
			}
		}
		_ = mc.MatrixOf(ts, cfg.K) // must not panic: all levels fit K
	})
}
