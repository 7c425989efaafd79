package fpamc

import (
	"math"
	"slices"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
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

// FuzzBackendAgreement replays the unified allocator running atop the
// AMC-rtb backend against the closure-based Schedulable oracle, which
// shares none of the backend's incremental state. On arbitrary
// dual-criticality sets it runs every scheme, CA-TPA included, with
// Trace on and re-derives each step of the trace from Schedulable
// over a model of the cores' members in placement order:
//
//   - tasks come in SortByMaxUtil order (Hybrid: the HI tasks first,
//     then the LO tasks), or in SortByContribution order for CA-TPA;
//   - every chosen core accepts the task, and a failed task fits no
//     core and ends the run;
//   - the pick is the scheme's scan over the cores Schedulable
//     accepts: FFD the first, BFD/WFD the fullest/emptiest under the
//     Eps hysteresis, Hybrid WFD for HI and FFD for LO tasks, CA-TPA
//     the minimum increment, or the least-loaded core once the
//     imbalance exceeds alpha;
//   - each core's Util and OwnLevelLoad are bitwise the sum of its
//     members' MaxUtil in placement order, and the aggregate metrics
//     are recomputed from those sums.
//
// Exact float equality is intentional: the backend accumulates the
// same sums in the same order, so any divergence is a real protocol
// regression, not rounding noise.
func FuzzBackendAgreement(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(2))
	seed := make([]byte, 0, 16*6)
	for i := 0; i < 16; i++ {
		seed = append(seed,
			byte(37*i), byte(i), // period
			byte(200+13*i), byte(2), // u1
			byte(i),   // crit
			byte(5*i)) // growth
	}
	f.Add(seed, uint8(1), uint8(4))
	f.Add(seed, uint8(3), uint8(3))
	// CA-TPA (schemeSel 4): the heavy seed above fails within m+1
	// steps; a lighter 24-task set fails late on four cores and fits on
	// eight, taking both the imbalance fallback and the minimum
	// increment on the way.
	f.Add(seed, uint8(4), uint8(7))
	light := make([]byte, 0, 24*6)
	for i := 0; i < 24; i++ {
		light = append(light,
			byte(53*i), byte(i%7), // period
			byte(30+9*i), 0, // u1
			byte(i),    // crit
			byte(11*i)) // growth
	}
	for _, mSel := range []uint8{1, 3, 7} {
		f.Add(light, uint8(4), mSel)
	}

	f.Fuzz(func(t *testing.T, data []byte, schemeSel, mSel uint8) {
		ts := decodeDualSet(t, data)
		if ts == nil {
			return
		}
		scheme := partition.Schemes[int(schemeSel)%len(partition.Schemes)]
		m := 1 + int(mSel)%8
		r := partition.NewWithBackend(m, 2, &Backend{}).Run(ts, scheme, &partition.Options{Trace: true})
		checkTraceAgainstSchedulable(t, ts, m, scheme, r)
	})
}

// checkTraceAgainstSchedulable replays the traced run r step by step
// against Schedulable; see FuzzBackendAgreement for what it checks.
func checkTraceAgainstSchedulable(t *testing.T, ts *mc.TaskSet, m int, scheme partition.Scheme, r *partition.Result) {
	t.Helper()
	var order []int
	switch scheme {
	case partition.CATPA:
		order = mc.SortByContribution(ts)
	case partition.Hybrid:
		for _, hi := range []bool{true, false} {
			for _, ti := range mc.SortByMaxUtil(ts) {
				if (ts.Tasks[ti].Crit >= 2) == hi {
					order = append(order, ti)
				}
			}
		}
	default:
		order = mc.SortByMaxUtil(ts)
	}

	members := make([][]int, m)
	loads := make([]float64, m)
	assign := make([]int, ts.Len())
	for i := range assign {
		assign[i] = -1
	}
	fits := make([]bool, m)
	var trial []mc.Task
	failed := -1
	for step, st := range r.Trace {
		if failed >= 0 || step >= len(order) || st.Task != order[step] {
			t.Fatalf("%v m=%d step %d: task %d, want order %v up to the first failure", scheme, m, step, st.Task, order)
		}
		ti := st.Task
		for c := range fits {
			trial = trial[:0]
			for _, tj := range members[c] {
				trial = append(trial, ts.Tasks[tj])
			}
			fits[c] = Schedulable(append(trial, ts.Tasks[ti]))
		}
		want := pickBySchedulable(scheme, &ts.Tasks[ti], fits, loads)
		if st.Core != want {
			t.Fatalf("%v m=%d step %d: task %d on core %d, Schedulable scan picks %d (fits %v, loads %v)",
				scheme, m, step, ti, st.Core, want, fits, loads)
		}
		if want < 0 {
			failed = ti
			continue
		}
		members[want] = append(members[want], ti)
		loads[want] += ts.Tasks[ti].MaxUtil()
		assign[ti] = want
		if math.Float64bits(st.Util) != math.Float64bits(loads[want]) {
			t.Fatalf("%v m=%d step %d: core %d util %v, MaxUtil sum %v", scheme, m, step, want, st.Util, loads[want])
		}
	}
	if failed < 0 && len(r.Trace) != len(order) {
		t.Fatalf("%v m=%d: trace has %d steps for %d tasks and no failure", scheme, m, len(r.Trace), len(order))
	}
	if r.Feasible != (failed < 0) || r.FailedTask != failed {
		t.Fatalf("%v m=%d: verdict (%v, failed %d), trace failed %d", scheme, m, r.Feasible, r.FailedTask, failed)
	}
	if !slices.Equal(r.Assignment, assign) {
		t.Fatalf("%v m=%d: assignment %v, trace %v", scheme, m, r.Assignment, assign)
	}
	maxU, minU, sum := math.Inf(-1), math.Inf(1), 0.0
	for c, ci := range r.Cores {
		if !slices.Equal(ci.Tasks, members[c]) {
			t.Fatalf("%v m=%d core %d: tasks %v, trace %v", scheme, m, c, ci.Tasks, members[c])
		}
		u := loads[c]
		if math.Float64bits(ci.Util) != math.Float64bits(u) || math.Float64bits(ci.OwnLevelLoad) != math.Float64bits(u) {
			t.Fatalf("%v m=%d core %d: Util %v OwnLevelLoad %v, MaxUtil sum %v", scheme, m, c, ci.Util, ci.OwnLevelLoad, u)
		}
		sum += u
		maxU = math.Max(maxU, u)
		minU = math.Min(minU, u)
	}
	imb := 0.0
	if maxU > Eps {
		imb = (maxU - minU) / maxU
	}
	if r.Usys != maxU || r.Uavg != sum/float64(m) || r.Imbalance != imb {
		t.Fatalf("%v m=%d: metrics (%v, %v, %v), recomputed (%v, %v, %v)",
			scheme, m, r.Usys, r.Uavg, r.Imbalance, maxU, sum/float64(m), imb)
	}
}

// pickBySchedulable is the core each scheme's scan selects for task t
// when fits[c] is Schedulable's verdict on core c plus t and loads[c]
// the core's MaxUtil sum, or -1 when no core fits.
func pickBySchedulable(scheme partition.Scheme, t *mc.Task, fits []bool, loads []float64) int {
	maxU, minU := loads[0], loads[0]
	for _, u := range loads {
		maxU, minU = math.Max(maxU, u), math.Min(minU, u)
	}
	switch {
	case scheme == partition.Hybrid && t.Crit >= 2:
		scheme = partition.WFD
	case scheme == partition.Hybrid:
		scheme = partition.FFD
	case scheme == partition.CATPA && maxU > Eps && (maxU-minU)/maxU > partition.DefaultAlpha:
		scheme = partition.WFD // the imbalance fallback: the least-loaded core
	}
	best, bestInc := -1, math.Inf(1)
	for c, ok := range fits {
		if !ok {
			continue
		}
		switch scheme {
		case partition.FFD:
			return c
		case partition.BFD:
			if best < 0 || loads[c] > loads[best]+Eps {
				best = c
			}
		case partition.WFD:
			if best < 0 || loads[c] < loads[best]-Eps {
				best = c
			}
		case partition.CATPA:
			// The minimum increment: MaxUtil on every core, up to
			// rounding.
			if inc := loads[c] + t.MaxUtil() - loads[c]; inc < bestInc-Eps {
				best, bestInc = c, inc
			}
		}
	}
	return best
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
				if core[ti] < 0 && !math.IsInf(b.ProbeUtil(c, ti, false, 0, math.Inf(1)), 1) {
					if op&0x80 != 0 {
						b.ProbeUtil((c+1)%m, ti, false, 0, math.Inf(1))
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
