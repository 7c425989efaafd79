package partition

import (
	"fmt"
	"math"

	"catpa/internal/edfvd"
	"catpa/internal/mc"
)

// edfvdBackend is the paper's per-core analysis: the EDF-VD Theorem-1
// test with virtual-deadline reduction factors (internal/edfvd), in
// its incremental scalar form. Each core's analysis inputs live in an
// edfvd.State — the aggregate sums the Theorem-1 ladder consumes,
// updated in O(1) per criticality level on every placement — so probe
// queries run the whole ladder in O(K) from cached scalars and never
// touch per-task storage, where the matrix-based predecessor re-read a
// K x K matrix per query.
//
// Delta discipline: probed queries evaluate `cached + urow` with
// exactly the float operations Place's State.Add performs, so probe
// answers are bitwise the committed answers after the placement.
// Remove marks the core dirty and the next query replays the
// surviving members' deltas in placement order — the exact-recompute
// fallback, forced unconditionally by Reanalyze. The replay performs
// the identical Add sequence an incremental build over exactly those
// members would have, so its state is bitwise indistinguishable from
// one that never saw the removed task. The backend keeps its own
// per-core member lists for that replay.
type edfvdBackend struct {
	m, k int
	ts   *mc.TaskSet

	states  []edfvd.State // per-core incremental Theorem-1 sums
	slab    []float64     // contiguous backing for all states' sum vectors
	members [][]int       // per-core committed task indices, placement order
	dirty   []bool        // state must be rebuilt by replay before the next read
	ndirty  int           // count of dirty cores: zero short-circuits ensure

	// Committed analysis cache: aEval[c] holds the Eq. 9 utilization
	// and the holding condition of core c's committed subset when aOK[c].
	aEval []edfvd.ProbeEval
	aOK   []bool

	// Per-core probe slots: an unpruned ProbeUtil(c, ti) evaluates into
	// pEval[c] and sets pTask[c] = ti; Place(c, ti) installs pEval[c]
	// as the committed analysis when pTask[c] == ti. Every commit,
	// removal, Reanalyze and Begin on c resets pTask[c] to -1.
	pEval []edfvd.ProbeEval
	pTask []int

	crit  []int     // per-task criticality levels, flat (avoids Task derefs)
	urows []float64 // N x K precomputed utilization rows (Task.UtilRow)

	rep edfvd.Report // ReportInto scratch, reused across cores
}

// Name implements Backend.
//
//mc:allocfree constant
func (b *edfvdBackend) Name() string { return DefaultBackend }

// MaxLevels implements Backend: the Theorem-1 analysis handles any K.
//
//mc:allocfree constant
func (b *edfvdBackend) MaxLevels() int { return 0 }

// Reset implements Backend.
func (b *edfvdBackend) Reset(m, k int) {
	if m == b.m && k == b.k && b.states != nil {
		return
	}
	b.m, b.k = m, k
	if cap(b.states) < m {
		states := make([]edfvd.State, m)
		copy(states, b.states)
		b.states = states
	} else {
		b.states = b.states[:m]
	}
	// All cores' scalar sums live in one contiguous slab, so the
	// per-task probe scan over the m cores stays within a few cache
	// lines.
	stride := 3*k - 2
	b.slab = resize(b.slab, m*stride)
	for c := range b.states {
		b.states[c].ResetSlab(k, b.slab[c*stride:(c+1)*stride])
	}
	if cap(b.members) < m {
		members := make([][]int, m)
		copy(members, b.members)
		b.members = members
	} else {
		b.members = b.members[:m]
	}
	if cap(b.aEval) < m {
		b.aEval = make([]edfvd.ProbeEval, m)
		b.pEval = make([]edfvd.ProbeEval, m)
	} else {
		b.aEval = b.aEval[:m]
		b.pEval = b.pEval[:m]
	}
	b.pTask = resize(b.pTask, m)
	b.dirty = resize(b.dirty, m)
	b.aOK = resize(b.aOK, m)
}

// Prepare implements Backend: it precomputes every task's per-level
// utilization row and criticality once, so the delta updates and probe
// reads add K cached floats instead of re-deriving c(k)/p, and the hot
// queries never touch the Task structs at all.
//
//mc:allocfree utilization rows fill amortized storage
func (b *edfvdBackend) Prepare(ts *mc.TaskSet) {
	b.ts = ts
	n := ts.Len()
	b.urows = resize(b.urows, n*b.k)
	b.crit = resize(b.crit, n)
	for i := 0; i < n; i++ {
		ts.Tasks[i].UtilRow(b.k, b.urows[i*b.k:(i+1)*b.k])
		b.crit[i] = ts.Tasks[i].Crit
	}
}

// Begin implements Backend.
//
//mc:allocfree resets scalar state in place
func (b *edfvdBackend) Begin() {
	for c := 0; c < b.m; c++ {
		b.states[c].Clear()
		b.members[c] = b.members[c][:0]
		b.dirty[c] = false
		b.aOK[c] = false
		b.pTask[c] = -1
	}
	b.ndirty = 0
}

// urow returns task ti's precomputed utilization row.
//
//mc:allocfree reslices the precomputed rows
func (b *edfvdBackend) urow(ti int) []float64 {
	base := ti * b.k
	return b.urows[base : base+b.k]
}

// ensure rebuilds core c's scalar state from its committed members —
// the exact-recompute fallback after a removal. Replaying the
// survivors' deltas in placement order reproduces bitwise the state an
// incremental build over exactly those members would have produced.
// The guard is a single counter load: in removal-free runs (every
// batch partition) no query ever touches the per-core dirty flags.
//
//mc:allocfree inlineable guard around the replay
func (b *edfvdBackend) ensure(c int) {
	if b.ndirty != 0 && b.dirty[c] {
		b.rebuild(c)
	}
}

// rebuild replays core c's surviving deltas; split from ensure so the
// clean-path guard inlines into every query.
//
//mc:allocfree replays deltas into amortized state
func (b *edfvdBackend) rebuild(c int) {
	b.states[c].Clear()
	for _, ti := range b.members[c] {
		b.states[c].Add(b.crit[ti], b.urow(ti))
	}
	b.dirty[c] = false
	b.ndirty--
}

// FeasibleWith implements Backend with the Theorem-1 ladder of
// Section IV: the cheap Eq. 4 accept, then the full Theorem-1 verdict
// — which opens with the O(1) overload reject, shares its min term
// with the lambda recursion, and exits at the first holding condition
// — every rung answered from the core's cached scalar sums plus the
// candidate's row, in O(K) total and without mutating committed state.
//
//mc:allocfree all screens read cached scalars
func (b *edfvdBackend) FeasibleWith(c, ti int) bool {
	b.ensure(c)
	s := &b.states[c]
	crit := b.crit[ti]
	u := b.urow(ti)
	if s.SimpleFeasibleWith(crit, u) {
		return true
	}
	return s.FeasibleWith(crit, u)
}

// ProbeUtil implements Backend: the core utilization U^{Psi_c + tau_i}
// of Eq. 15, +Inf when the extended subset is infeasible or the probe
// is pruned. State.ProbeBoundedWith fuses the certified Eq. 9 floor
// prune (State.UtilFloorWith) with the analysis, sharing the min term
// and the overload fast-reject, so the whole probe runs in O(K) from
// the cached sums with no tentative mutation and no undo. An unpruned
// analysis lands in core c's probe slot for Place; a pruned one leaves
// the slot untouched.
//
//mc:allocfree O(K) scalar analysis into reusable scratch
func (b *edfvdBackend) ProbeUtil(c, ti int, base, margin float64) float64 {
	b.ensure(c)
	ev := &b.pEval[c]
	if !b.states[c].ProbeBoundedWith(b.crit[ti], b.urow(ti), base, margin, ev) {
		return math.Inf(1)
	}
	b.pTask[c] = ti
	return ev.CoreUtil
}

// Place implements Backend: the O(1)-per-level delta commit. When core
// c's probe slot holds ti's analysis, it becomes the core's committed
// analysis — bitwise what a recompute would produce, by the delta
// discipline; otherwise the cache is invalidated and the next CoreUtil
// or ReportInto re-analyzes lazily.
//
//mc:allocfree delta adds and scalar copies
func (b *edfvdBackend) Place(c, ti int) {
	b.ensure(c)
	b.states[c].Add(b.crit[ti], b.urow(ti))
	b.members[c] = append(b.members[c], ti)
	if b.pTask[c] == ti {
		b.aEval[c] = b.pEval[c]
		b.aOK[c] = true
	} else {
		b.aOK[c] = false
	}
	b.pTask[c] = -1
}

// Remove implements Backend: O(1) — the task leaves the member list
// and the core is marked for the exact-recompute fallback, which the
// next query triggers through ensure. The replay performs the same Add
// sequence that built the pre-Place state (placement order is
// preserved), so the restored analysis is bitwise what it was before
// the task ever arrived.
//
//mc:allocfree list excision and a dirty mark; panic path exempt
func (b *edfvdBackend) Remove(c, ti int) {
	mem := b.members[c]
	for i := len(mem) - 1; i >= 0; i-- {
		if mem[i] == ti {
			copy(mem[i:], mem[i+1:])
			b.members[c] = mem[:len(mem)-1]
			if !b.dirty[c] {
				b.dirty[c] = true
				b.ndirty++
			}
			b.aOK[c] = false
			b.pTask[c] = -1
			return
		}
	}
	panic(fmt.Sprintf("partition: Remove(%d, %d): task not committed on core", c, ti))
}

// Reanalyze implements Backend: it discards core c's incremental state
// and rebuilds it from the committed members, unconditionally.
//
//mc:allocfree forces the replay fallback
func (b *edfvdBackend) Reanalyze(c int) {
	if !b.dirty[c] {
		b.dirty[c] = true
		b.ndirty++
	}
	b.aOK[c] = false
	b.pTask[c] = -1
	b.ensure(c)
}

// OwnLoad implements Backend: the Eq. 4 own-level load of core c, a
// cached scalar.
//
//mc:allocfree cached scalar read
func (b *edfvdBackend) OwnLoad(c int) float64 {
	b.ensure(c)
	return b.states[c].OwnLoad()
}

// CoreUtil implements Backend: the committed Eq. 9 core utilization,
// analyzing the core's cached sums in O(K)
// if no committed analysis is current.
//
//mc:allocfree reads or refills the scalar cache
func (b *edfvdBackend) CoreUtil(c int) float64 {
	b.ensure(c)
	if !b.aOK[c] {
		b.states[c].Eval(&b.aEval[c])
		b.aOK[c] = true
	}
	return b.aEval[c].CoreUtil
}

// ReportInto implements Backend: the full committed analysis — lambda
// vector included — derived from the cached sums in O(K).
//
//mc:allocfree fills the caller-owned CoreInfo via reusable scratch
func (b *edfvdBackend) ReportInto(c int, ci *CoreInfo) {
	b.ensure(c)
	b.states[c].ReportInto(&b.rep)
	ci.Util = b.rep.CoreUtil
	ci.FeasibleK = b.rep.FeasibleK
	ci.Lambda = append(ci.Lambda[:0], b.rep.Lambda...)
}
