package partition_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"catpa/internal/edfvd"
	"catpa/internal/fpamc"
	"catpa/internal/mc"
	"catpa/internal/partition"
)

// The metamorphic properties of one core under the Backend contract,
// for both adapters NewBackend returns. A core is the member list M
// placed on it plus a candidate task; its verdict is FeasibleWith of
// the candidate. The properties need no oracle — each compares the
// backend with itself on a related input:
//
//   - removal: removing a task from a feasible core (a member through
//     the Remove delta, or the candidate) keeps the core feasible;
//   - WCET monotonicity: lowering one WCET, with the vector kept
//     monotone, keeps a feasible core feasible, and raising it never
//     makes an infeasible core feasible;
//   - order independence: the verdict and CoreUtil (within approxEq)
//     do not depend on the order of the members' Place calls.
//
// Removal and monotonicity hold bitwise: every float operation of both
// analyses is monotone in the utilizations. Order independence holds
// only up to rounding, since the cached sums accumulate in placement
// order, so an EDF-VD core whose deciding Theorem-1 margin lies within
// 1e-12 of the Eps boundary is skipped (and counted by the sweep)
// instead of compared.

// metaMaxTasks bounds a decoded core (members plus candidate).
const metaMaxTasks = 8

// decodeMetaSet decodes up to metaMaxTasks tasks of criticality 1..k
// from data, six bytes per task: period, level-1 utilization (up to
// 1/2), level, WCET growth per level (up to 1.5x), so a few tasks
// already straddle the schedulability boundary.
func decodeMetaSet(t *testing.T, data []byte, k int) *mc.TaskSet {
	t.Helper()
	const bytesPerTask = 6
	n := min(len(data)/bytesPerTask, metaMaxTasks)
	ts := mc.NewTaskSetCap(n)
	for i := 0; i < n; i++ {
		b := data[i*bytesPerTask:]
		period := float64(1 + (uint16(b[0])|uint16(b[1])<<8)%2000)
		u1 := float64(1+(uint16(b[2])|uint16(b[3])<<8)%999) / 2000
		crit := 1 + int(b[4])%k
		growth := 1 + float64(b[5]%129)/256
		w := make([]float64, crit)
		w[0] = u1 * period
		for l := 1; l < crit; l++ {
			w[l] = math.Min(w[l-1]*growth, period)
		}
		ts.Tasks = append(ts.Tasks, mc.MustTask(i+1, "", period, w...))
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("decoder produced invalid task set: %v", err)
	}
	return ts
}

// coreVerdict places members on core c of be, in order, over the
// prepared set and returns FeasibleWith of cand. be must have been
// Begun with core c empty.
func coreVerdict(be partition.Backend, c int, members []int, cand int) bool {
	for _, ti := range members {
		be.Place(c, ti)
	}
	return be.FeasibleWith(c, cand)
}

// freshBackend returns the named backend reset to m cores and k levels,
// prepared with ts and begun.
func freshBackend(t *testing.T, name string, m, k int, ts *mc.TaskSet) partition.Backend {
	t.Helper()
	be, err := partition.NewBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	be.Reset(m, k)
	be.Prepare(ts)
	be.Begin()
	return be
}

// nearEpsBoundary reports whether the EDF-VD verdict on tasks idx of ts
// is decided within 1e-12 of the Eps boundary: the Eq. 4 load (the
// K = 1 test too) or any Theorem-1 availability A(k).
func nearEpsBoundary(ts *mc.TaskSet, idx []int, k int) bool {
	m := mc.NewUtilMatrix(k)
	for _, i := range idx {
		m.Add(&ts.Tasks[i])
	}
	if math.Abs(m.OwnLevelLoad()-(1+edfvd.Eps)) <= 1e-12 {
		return true
	}
	for _, a := range edfvd.Analyze(m).Avail {
		if math.Abs(a+edfvd.Eps) <= 1e-12 {
			return true
		}
	}
	return false
}

// withWCET returns a deep copy of ts whose task j has WCET level l
// (0-based) set to w.
func withWCET(ts *mc.TaskSet, j, l int, w float64) *mc.TaskSet {
	out := ts.Clone()
	out.Tasks[j].WCET[l] = w
	return out
}

// checkBackendMetamorphic checks the three properties on the core
// holding every decoded task but the last, with the last one as the
// candidate. edit picks the task, level and fraction of the WCET
// change. It reports whether the order check was skipped for lying at
// the Eps boundary.
func checkBackendMetamorphic(t *testing.T, name string, k int, ts *mc.TaskSet, edit uint16) (skipped bool) {
	n := ts.Len()
	if n < 2 {
		return false
	}
	members := make([]int, n-1)
	for i := range members {
		members[i] = i
	}
	cand := n - 1
	feasible := coreVerdict(freshBackend(t, name, 1, k, ts), 0, members, cand)

	// Removal: every member through the Remove delta, and the
	// candidate (the members alone, their last one as the candidate).
	if feasible {
		for _, x := range members {
			be := freshBackend(t, name, 1, k, ts)
			coreVerdict(be, 0, members, cand)
			be.Remove(0, x)
			if !be.FeasibleWith(0, cand) {
				t.Fatalf("%s K=%d: core feasible, infeasible after Remove(%d)", name, k, x)
			}
		}
		if len(members) > 1 && !coreVerdict(freshBackend(t, name, 1, k, ts), 0, members[:len(members)-1], members[len(members)-1]) {
			t.Fatalf("%s K=%d: core feasible, infeasible without its candidate", name, k)
		}
	}

	// WCET monotonicity: one level of one task, moved a fraction of the
	// way toward its lower neighbour (or 0) and, separately, toward its
	// upper neighbour (the period at the top level).
	j := int(edit&0xf) % n
	task := &ts.Tasks[j]
	l := int(edit>>4&0xf) % task.Crit
	f := (float64(edit>>8) + 1) / 257 // in (0, 1)
	c := task.WCET[l]
	lo, hi := 0.0, task.Period
	if l > 0 {
		lo = task.WCET[l-1]
	}
	if l+1 < task.Crit {
		hi = task.WCET[l+1]
	}
	if lower := c - (c-lo)*f; lower > 0 && lower < c && feasible {
		if !coreVerdict(freshBackend(t, name, 1, k, withWCET(ts, j, l, lower)), 0, members, cand) {
			t.Fatalf("%s K=%d: lowering task %d c(%d) %v -> %v made a feasible core infeasible", name, k, j, l+1, c, lower)
		}
	}
	if raised := c + (hi-c)*f; raised > c && raised <= hi && !feasible {
		if coreVerdict(freshBackend(t, name, 1, k, withWCET(ts, j, l, raised)), 0, members, cand) {
			t.Fatalf("%s K=%d: raising task %d c(%d) %v -> %v made an infeasible core feasible", name, k, j, l+1, c, raised)
		}
	}

	// Order independence: the members in order on core 0, reversed on
	// core 1 of the same backend.
	if name == partition.DefaultBackend && (nearEpsBoundary(ts, members, k) || nearEpsBoundary(ts, append(members[:len(members):len(members)], cand), k)) {
		return true
	}
	be := freshBackend(t, name, 2, k, ts)
	fwd := coreVerdict(be, 0, members, cand)
	rev := make([]int, len(members))
	for i, ti := range members {
		rev[len(rev)-1-i] = ti
	}
	if back := coreVerdict(be, 1, rev, cand); back != fwd {
		t.Fatalf("%s K=%d: verdict %v in placement order, %v reversed", name, k, fwd, back)
	}
	if u0, u1 := be.CoreUtil(0), be.CoreUtil(1); !approxEq(u0, u1) {
		t.Fatalf("%s K=%d: CoreUtil %v in placement order, %v reversed", name, k, u0, u1)
	}
	return false
}

// approxEq is equality up to accumulation-order rounding, with
// infinities matched exactly.
func approxEq(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.IsInf(a, 1) == math.IsInf(b, 1) && math.IsInf(a, -1) == math.IsInf(b, -1)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// metaBackend maps the fuzz selector to a backend and its level count:
// edfvd at K = 1..6, amcrtb at its two levels.
func metaBackend(sel, kByte uint8) (string, int) {
	if sel%2 == 1 {
		return fpamc.BackendName, 2
	}
	return partition.DefaultBackend, 1 + int(kByte%6)
}

// FuzzBackendMetamorphic checks the per-core metamorphic properties
// above on decoded cores, under both backends. Its committed seed
// corpus holds K = 2, 4 and 6 cores for edfvd and K = 2 cores for
// amcrtb. An input whose order check lies at the EDF-VD Eps boundary
// is skipped after the removal and monotonicity checks.
func FuzzBackendMetamorphic(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel, kByte uint8, edit uint16, data []byte) {
		name, k := metaBackend(sel, kByte)
		ts := decodeMetaSet(t, data, k)
		if checkBackendMetamorphic(t, name, k, ts, edit) {
			t.Skip("order check skipped: a deciding margin lies within 1e-12 of the Eps boundary")
		}
	})
}

// TestBackendMetamorphicSweep is the deterministic slice of the fuzz
// target: random cores at every level count of both backends. It
// counts the order checks skipped at the Eps boundary and fails if the
// population never straddles the schedulability boundary.
func TestBackendMetamorphicSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	data := make([]byte, 6*metaMaxTasks)
	for _, sel := range []uint8{0, 1} {
		for kByte := uint8(0); kByte < 6; kByte++ {
			name, k := metaBackend(sel, kByte)
			skipped, feasible, total := 0, 0, 0
			for trial := 0; trial < 150; trial++ {
				rng.Read(data)
				ts := decodeMetaSet(t, data[:6*(2+rng.Intn(metaMaxTasks-1))], k)
				if checkBackendMetamorphic(t, name, k, ts, uint16(rng.Intn(1<<16))) {
					skipped++
				}
				members := make([]int, ts.Len()-1)
				for i := range members {
					members[i] = i
				}
				if coreVerdict(freshBackend(t, name, 1, k, ts), 0, members, ts.Len()-1) {
					feasible++
				}
				total++
			}
			ctx := fmt.Sprintf("%s K=%d", name, k)
			if feasible == 0 || feasible == total {
				t.Errorf("%s: %d of %d cores feasible; the sweep misses the boundary", ctx, feasible, total)
			}
			t.Logf("%s: %d of %d cores feasible", ctx, feasible, total)
			if skipped > 0 {
				t.Logf("%s: %d of %d order checks skipped at the Eps boundary", ctx, skipped, total)
			}
			if sel == 1 {
				break // amcrtb has one level count
			}
		}
	}
}
