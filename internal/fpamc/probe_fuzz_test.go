package fpamc

import (
	"math"
	"math/rand"
	"testing"

	"catpa/internal/mc"
)

// decodeDualSet turns fuzz bytes into a valid dual-criticality task
// set, 6 bytes per task (the internal/edfvd fuzz encoding restricted
// to maxK = 2), or nil when data is too short.
func decodeDualSet(t *testing.T, data []byte) *mc.TaskSet {
	t.Helper()
	const bytesPerTask = 6
	n := len(data) / bytesPerTask
	if n == 0 {
		return nil
	}
	if n > 32 {
		n = 32 // keep each RTA fixed point cheap
	}
	ts := mc.NewTaskSetCap(n)
	for i := 0; i < n; i++ {
		b := data[i*bytesPerTask:]
		p16 := uint16(b[0]) | uint16(b[1])<<8
		u16 := uint16(b[2]) | uint16(b[3])<<8
		period := float64(1 + p16%2000)
		u1 := float64(1+u16%999) / 1000
		crit := 1 + int(b[4])%2
		growth := 1 + float64(b[5]%129)/64
		w := make([]float64, crit)
		w[0] = u1 * period
		for k := 1; k < crit; k++ {
			w[k] = math.Min(w[k-1]*growth, period)
		}
		ts.Tasks = append(ts.Tasks, mc.MustTask(i+1, "", period, w...))
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("decoder produced invalid task set: %v", err)
	}
	return ts
}

// dualSet draws n dual-criticality tasks with periods from {20, 50,
// 100, 200} and level-1 utilizations averaging nsu·m/n; a HI task's
// level-2 budget is 1.4 times its level-1 budget.
func dualSet(rng *rand.Rand, n int, nsu float64, m int) *mc.TaskSet {
	ts := &mc.TaskSet{}
	ubase := nsu * float64(m) / float64(n)
	for i := 0; i < n; i++ {
		p := []float64{20, 50, 100, 200}[rng.Intn(4)]
		crit := 1 + rng.Intn(2)
		c1 := (0.2 + rng.Float64()*1.6) * p * ubase
		w := []float64{c1}
		if crit == 2 {
			w = append(w, c1*1.4)
		}
		tk := mc.Task{ID: i + 1, Period: p, Crit: crit, WCET: w}
		if tk.MaxUtil() > 1 {
			tk.Crit = 1
			tk.WCET = tk.WCET[:1]
			if tk.MaxUtil() > 1 {
				tk.WCET[0] = p
			}
		}
		ts.Tasks = append(ts.Tasks, tk)
	}
	return ts
}

// FuzzAMCProbeAgreement holds the incremental probe against an oracle
// that shares none of its state: the closure-based Analyze behind
// Schedulable. FuzzIncrementalAgreement compares the delta path with
// Reanalyze, which runs the same utilization screen and seeds, so it
// cannot catch an unsound screen; this target can. On a decoded dual
// set it drives random churn over 1–3 cores — checked placements,
// placements right after their ProbeUtil (the probe's analysis is
// committed) or after a probe of another core (Place re-probes),
// forced placements, removals and Reanalyze — and after every step
// requires, for every core c and every unplaced task ti, that
// FeasibleWith(c, ti) equals Schedulable on the core's members in
// placement order plus ti.
//
// Each ops byte is one step: the low three bits pick the operation,
// the rest pick the task or member and the core.
func FuzzAMCProbeAgreement(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	// The harmonic U_LO = 1 pair (T=2,C=1; T=4,C=2) plus two LO tasks
	// that cannot fit beside it.
	f.Add([]byte{
		1, 0, 0xf3, 1, 0, 0,
		3, 0, 0xf3, 1, 0, 0,
		9, 0, 0x63, 0, 0, 0,
		4, 0, 0x2b, 1, 0, 0,
	}, []byte{0, 8, 16, 24, 3, 11, 4, 0, 10, 1, 2}, uint8(0))
	seed := make([]byte, 0, 16*6)
	for i := 0; i < 16; i++ {
		seed = append(seed,
			byte(37*i), byte(i), // period
			byte(200+13*i), byte(2), // u1
			byte(i),   // crit
			byte(5*i)) // growth
	}
	ops := make([]byte, 0, 48)
	for i := 0; i < 48; i++ {
		ops = append(ops, byte(29*i+i/7))
	}
	f.Add(seed, ops, uint8(1))
	f.Add(seed, ops, uint8(2))

	f.Fuzz(func(t *testing.T, data, ops []byte, mSel uint8) {
		ts := decodeDualSet(t, data)
		if ts == nil {
			return
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		m := 1 + int(mSel)%3
		n := ts.Len()
		b := &Backend{}
		b.Reset(m, 2)
		b.Prepare(ts)
		b.Begin()

		// The model: each core's members in placement order, kept
		// apart from the backend's own lists.
		members := make([][]int, m)
		core := make([]int, n)
		for i := range core {
			core[i] = -1
		}
		place := func(c, ti int) {
			members[c] = append(members[c], ti)
			core[ti] = c
		}
		trial := make([]mc.Task, 0, n)
		check := func(step int, op byte) {
			for c := 0; c < m; c++ {
				for ti := 0; ti < n; ti++ {
					if core[ti] >= 0 {
						continue
					}
					trial = trial[:0]
					for _, tj := range members[c] {
						trial = append(trial, ts.Tasks[tj])
					}
					trial = append(trial, ts.Tasks[ti])
					if got, want := b.FeasibleWith(c, ti), Schedulable(trial); got != want {
						t.Fatalf("step %d (op %#x): FeasibleWith(%d, %d) = %v, Schedulable = %v\nmembers %v\ntasks %v",
							step, op, c, ti, got, want, members[c], trial)
					}
				}
			}
		}

		check(-1, 0)
		for step, op := range ops {
			arg := int(op >> 3)
			c := arg % m
			ti := arg % n
			switch op & 7 {
			case 0, 1: // checked placement of the next unplaced task
				for k := 0; k < n && core[ti] >= 0; k++ {
					ti = (ti + 1) % n
				}
				if core[ti] < 0 && b.FeasibleWith(c, ti) {
					b.Place(c, ti)
					place(c, ti)
				}
			case 2: // probed placement; bit 7 probes another core in between
				if core[ti] < 0 && !math.IsInf(b.ProbeUtil(c, ti, 0, math.Inf(1)), 1) {
					if op&0x80 != 0 {
						b.ProbeUtil((c+1)%m, ti, 0, math.Inf(1))
					}
					b.Place(c, ti)
					place(c, ti)
				}
			case 3: // forced placement, feasible or not
				if core[ti] < 0 && op&0x80 != 0 {
					b.Place(c, ti)
					place(c, ti)
				}
			case 4, 5, 6: // removal of one member of core c
				if mem := members[c]; len(mem) > 0 {
					i := arg % len(mem)
					tj := mem[i]
					b.Remove(c, tj)
					members[c] = append(mem[:i], mem[i+1:]...)
					core[tj] = -1
				}
			case 7:
				b.Reanalyze(c)
			}
			check(step, op)
		}
	})
}
