package fpamc

import (
	"fmt"
	"math"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// BackendName is the registry name of the AMC-rtb analysis backend.
const BackendName = "amcrtb"

func init() {
	partition.RegisterBackend(BackendName, func() partition.Backend { return &Backend{} })
}

// Backend adapts the AMC-rtb response-time analysis to the allocator's
// per-core schedulability protocol, so every heuristic — including
// CA-TPA, which the old fixed-priority shells never supported — runs
// atop partitioned fixed-priority AMC through the one allocation shell
// in internal/partition.
//
// A response-time analysis has no single utilization figure, so the
// core-utilization metric this backend reports (ProbeUtil, CoreUtil,
// reflected into CoreInfo.Util) is the Eq. 4 own-level load
// sum MaxUtil — exactly what the deleted fpamc.Partition shells
// reported. That makes the probe increment core-independent (always
// the candidate's MaxUtil), so CA-TPA's minimum-increment search
// degenerates to first-feasible under its contribution ordering; the
// ordering itself and the imbalance fallback remain active (see
// DESIGN.md Section 11).
//
// Incremental delta state (DESIGN.md Section 14). Each core caches its
// committed deadline-monotonic ranks and the exact AMC-rtb fixed-point
// responses (LO, stable HI, LO->HI transition) of every committed
// task. A probe then touches only the tasks the candidate can affect:
// committed tasks of higher priority than the candidate keep their
// stored responses untouched (their interference sets are unchanged,
// so the stored values are bitwise what a recompute would produce),
// the candidate runs cold fixed points over its higher-priority
// committed set, and lower-priority tasks re-run their fixed points
// warm-started from the stored responses — sound because adding an
// interferer only grows each demand sum, so the stored response stays
// a lower bound of the new least fixed point.
//
// Warm starts preserve bit-identity with the cold batch arithmetic
// only when every fixed point plateaus exactly — each non-final
// iteration grows the demand by at least one whole level-1 budget —
// and the cold iteration count provably stays under maxIterations, so
// the iteration cap cannot produce a verdict the warm path would
// miss. Prepare checks both conditions (warmOK); when either fails,
// probes fall back to cold recomputation, which is trivially identical
// to the batch path. Removal breaks the monotone-climb argument in the
// other direction (responses shrink), so Remove always takes the
// exact-recompute fallback: the core is marked dirty and the next
// query rebuilds ranks, loads and responses cold from the surviving
// members in placement order. Reanalyze forces that same rebuild
// unconditionally — the reference path the differential gates compare
// the incremental path against.
//
// Every verdict remains identical to Schedulable on the corresponding
// task slice: the demand sums run in the same trial-index order (the
// committed placement order with the candidate appended last) with the
// same float operations, warm and cold fixed points meet in the same
// least fixed point bit-for-bit under warmOK, and a task is only ever
// skipped when its inputs are unchanged since its last recompute. The
// differential tests in backend_diff_test.go and the
// FuzzIncrementalAgreement gate in internal/partition check this on
// random subsets and random placement histories.
type Backend struct {
	m  int
	ts *mc.TaskSet

	cores [][]int   // per-core placed task indices, in allocation order
	loads []float64 // per-core Eq. 4 own-level load (sum MaxUtil)

	// Committed incremental state, all aligned with cores[c]:
	// deadline-monotonic rank of each committed task within its core,
	// and the exact fixed-point responses its last (re)computation
	// produced. rHI/rTR are meaningful only for high-criticality tasks.
	ranks [][]int
	rLO   [][]float64
	rHI   [][]float64
	rTR   [][]float64
	dirty []bool // core must be rebuilt cold before the next query
	allOK []bool // every committed task met its deadline bound

	// warmOK gates the warm-start path: true when every fixed point
	// over the prepared set plateaus exactly and converges under the
	// iteration cap, so warm and cold arithmetic are bitwise equal.
	warmOK bool

	// Probe scratch: the most recent feasible probe's candidate
	// responses plus the recomputed lower-priority responses (aligned
	// with cores[pCore]); valid while pOK and no commit intervened.
	pCore, pTask, pPos int
	pcLO, pcHI, pcTR   float64
	pLO, pHI, pTR      []float64
	pOK                bool

	// KeepProbe buffer: a copy of the probe scratch for the winning
	// candidate, committed by the next probed Place.
	kCore, kTask, kPos int
	kcLO, kcHI, kcTR   float64
	kLO, kHI, kTR      []float64
	kOK                bool

	// Batch scratch for schedulable (the verdict-only reference used
	// by the differential tests) and for ensure's rank rebuild.
	trial []int
	prio  []int
	rank  []int
}

// Name implements partition.Backend.
//
//mc:allocfree constant
func (b *Backend) Name() string { return BackendName }

// MaxLevels implements partition.Backend: AMC is dual-criticality.
//
//mc:allocfree constant
func (b *Backend) MaxLevels() int { return 2 }

// Reset implements partition.Backend.
func (b *Backend) Reset(m, k int) {
	b.m = m
	if cap(b.cores) < m {
		cores := make([][]int, m)
		copy(cores, b.cores)
		b.cores = cores
	} else {
		b.cores = b.cores[:m]
	}
	if cap(b.ranks) < m {
		ranks := make([][]int, m)
		copy(ranks, b.ranks)
		b.ranks = ranks
	} else {
		b.ranks = b.ranks[:m]
	}
	if cap(b.rLO) < m {
		rLO := make([][]float64, m)
		copy(rLO, b.rLO)
		b.rLO = rLO
	} else {
		b.rLO = b.rLO[:m]
	}
	if cap(b.rHI) < m {
		rHI := make([][]float64, m)
		copy(rHI, b.rHI)
		b.rHI = rHI
	} else {
		b.rHI = b.rHI[:m]
	}
	if cap(b.rTR) < m {
		rTR := make([][]float64, m)
		copy(rTR, b.rTR)
		b.rTR = rTR
	} else {
		b.rTR = b.rTR[:m]
	}
	b.loads = resizeFloats(b.loads, m)
	b.dirty = resizeBools(b.dirty, m)
	b.allOK = resizeBools(b.allOK, m)
	b.pOK, b.kOK = false, false
}

// Prepare implements partition.Backend. Beyond installing the set it
// decides whether warm-started fixed points are bitwise safe (see the
// type comment): every non-final iteration of a demand recursion grows
// the demand by at least one whole level-1 budget, so when the
// smallest budget clears the epsilon band the convergence test
// "demand <= r+Eps" only fires on an exact fixed point, and
// maxP/minC+8 bounds the cold iteration count away from the cap.
//
//mc:allocfree scans the prepared set
func (b *Backend) Prepare(ts *mc.TaskSet) {
	b.ts = ts
	b.pOK, b.kOK = false, false
	minC := math.Inf(1)
	maxP := 0.0
	for i := range ts.Tasks {
		if c := ts.Tasks[i].C(1); c < minC {
			minC = c
		}
		if p := ts.Tasks[i].Period; p > maxP {
			maxP = p
		}
	}
	b.warmOK = ts.Len() > 0 && minC > 2*Eps && maxP/minC+8 < float64(maxIterations)
}

// Begin implements partition.Backend.
//
//mc:allocfree truncates per-core state in place
func (b *Backend) Begin() {
	for c := 0; c < b.m; c++ {
		b.cores[c] = b.cores[c][:0]
		b.ranks[c] = b.ranks[c][:0]
		b.rLO[c] = b.rLO[c][:0]
		b.rHI[c] = b.rHI[c][:0]
		b.rTR[c] = b.rTR[c][:0]
		b.loads[c] = 0
		b.dirty[c] = false
		b.allOK[c] = true
	}
	b.pOK, b.kOK = false, false
}

// ensure rebuilds core c's incremental state cold from the committed
// members — the exact-recompute fallback after a removal or a forced
// infeasible placement. Ranks come from the same stable insertion sort
// the batch path uses, loads re-accumulate in placement order, and
// every response re-runs its fixed point cold, reproducing bitwise the
// values the incremental commits would have left (see the type
// comment for why warm and cold meet in the same bits).
//
//mc:allocfree inlineable guard around the rebuild
func (b *Backend) ensure(c int) {
	if b.dirty[c] {
		b.rebuild(c)
	}
}

// rebuild is ensure's slow path, split out so the clean-path guard
// inlines into every query.
//
//mc:allocfree rebuilds into amortized per-core storage
func (b *Backend) rebuild(c int) {
	mem := b.cores[c]
	n := len(mem)
	b.ranks[c] = resizeInts(b.ranks[c], n)
	b.rLO[c] = resizeFloats(b.rLO[c], n)
	b.rHI[c] = resizeFloats(b.rHI[c], n)
	b.rTR[c] = resizeFloats(b.rTR[c], n)
	b.prio = resizeInts(b.prio, n)
	for i := 0; i < n; i++ {
		b.prio[i] = i
	}
	for i := 1; i < n; i++ {
		p := b.prio[i]
		j := i
		for j > 0 && b.priorityBefore(mem[p], mem[b.prio[j-1]]) {
			b.prio[j] = b.prio[j-1]
			j--
		}
		b.prio[j] = p
	}
	for pos, i := range b.prio {
		b.ranks[c][i] = pos
	}
	load := 0.0
	for _, t := range mem {
		load += b.ts.Tasks[t].MaxUtil()
	}
	b.loads[c] = load
	ok := true
	for j := 0; j < n; j++ {
		t := &b.ts.Tasks[mem[j]]
		deadline := t.Period
		lo := b.coreLo(c, t, b.ranks[c][j], -1, t.C(1), deadline)
		b.rLO[c][j] = lo
		if lo > deadline+Eps {
			ok = false
		}
		if t.Crit >= 2 {
			hi := b.coreHi(c, t, b.ranks[c][j], -1, t.C(2), deadline)
			b.rHI[c][j] = hi
			if hi > deadline+Eps {
				ok = false
			}
			tr := b.coreTr(c, t, b.ranks[c][j], -1, lo, t.C(2), deadline)
			b.rTR[c][j] = tr
			if tr > deadline+Eps {
				ok = false
			}
		}
	}
	b.allOK[c] = ok
	b.dirty[c] = false
}

// probe is the incremental feasibility test of core c plus candidate
// ti. It fills the probe scratch with everything a commit needs: the
// candidate's rank and cold responses, and the warm-recomputed
// responses of every committed task the candidate outranks.
// Higher-priority committed tasks are skipped — their interference
// sets are unchanged, so their stored responses and verdicts stand.
//
//mc:allocfree fixed points over cached state into reusable scratch
func (b *Backend) probe(c, ti int) bool {
	b.ensure(c)
	b.pOK = false
	if !b.allOK[c] {
		return false
	}
	ts := b.ts
	t := &ts.Tasks[ti]
	mem := b.cores[c]
	n := len(mem)
	pos := 0
	for _, tj := range mem {
		if b.priorityBefore(tj, ti) {
			pos++
		}
	}
	deadline := t.Period
	cLO := b.coreLo(c, t, pos, -1, t.C(1), deadline)
	if cLO > deadline+Eps {
		return false
	}
	var cHI, cTR float64
	candHI := t.Crit >= 2
	if candHI {
		cHI = b.coreHi(c, t, pos, -1, t.C(2), deadline)
		if cHI > deadline+Eps {
			return false
		}
		cTR = b.coreTr(c, t, pos, -1, cLO, t.C(2), deadline)
		if cTR > deadline+Eps {
			return false
		}
	}
	b.pLO = resizeFloats(b.pLO, n)
	b.pHI = resizeFloats(b.pHI, n)
	b.pTR = resizeFloats(b.pTR, n)
	for j := 0; j < n; j++ {
		if b.ranks[c][j] < pos {
			continue
		}
		tj := &ts.Tasks[mem[j]]
		dj := tj.Period
		seed := tj.C(1)
		if b.warmOK {
			seed = b.rLO[c][j]
		}
		nLO := b.coreLo(c, tj, b.ranks[c][j], ti, seed, dj)
		if nLO > dj+Eps {
			return false
		}
		b.pLO[j] = nLO
		if tj.Crit >= 2 {
			nHI := b.rHI[c][j]
			if candHI {
				seed = tj.C(2)
				if b.warmOK {
					seed = b.rHI[c][j]
				}
				nHI = b.coreHi(c, tj, b.ranks[c][j], ti, seed, dj)
				if nHI > dj+Eps {
					return false
				}
			}
			b.pHI[j] = nHI
			seed = tj.C(2)
			if b.warmOK {
				seed = b.rTR[c][j]
			}
			nTR := b.coreTr(c, tj, b.ranks[c][j], ti, nLO, seed, dj)
			if nTR > dj+Eps {
				return false
			}
			b.pTR[j] = nTR
		}
	}
	b.pCore, b.pTask, b.pPos = c, ti, pos
	b.pcLO, b.pcHI, b.pcTR = cLO, cHI, cTR
	b.pOK = true
	return true
}

// commit installs a successful probe's analysis as core c's committed
// state: lower-priority ranks shift down by one, their recomputed
// responses replace the stored ones, and the candidate appends with
// its rank and cold responses.
//
//mc:allocfree per-core lists grow amortized
func (b *Backend) commit(c, ti, pos int, cLO, cHI, cTR float64, lo, hi, tr []float64) {
	ts := b.ts
	candHI := ts.Tasks[ti].Crit >= 2
	mem := b.cores[c]
	for j := range mem {
		if b.ranks[c][j] < pos {
			continue
		}
		b.ranks[c][j]++
		b.rLO[c][j] = lo[j]
		if ts.Tasks[mem[j]].Crit >= 2 {
			if candHI {
				b.rHI[c][j] = hi[j]
			}
			b.rTR[c][j] = tr[j]
		}
	}
	b.cores[c] = append(b.cores[c], ti)
	b.ranks[c] = append(b.ranks[c], pos)
	b.rLO[c] = append(b.rLO[c], cLO)
	b.rHI[c] = append(b.rHI[c], cHI)
	b.rTR[c] = append(b.rTR[c], cTR)
	b.loads[c] += ts.Tasks[ti].MaxUtil()
	b.pOK, b.kOK = false, false
}

// FeasibleWith implements partition.Backend: it reports whether core
// c's subset plus task ti passes the AMC-rtb response-time test
// (Eqs. rtb-LO/rtb-HI), the fixed-priority counterpart of the
// Theorem-1 screens — answered incrementally from the cached committed
// responses.
//
//mc:allocfree delegates to the scratch-based incremental probe
func (b *Backend) FeasibleWith(c, ti int) bool {
	return b.probe(c, ti)
}

// ProbeUtil implements partition.Backend: the own-level load of core c
// with task ti added, +Inf when the extended subset fails AMC-rtb.
// The worst flag is ignored — the load metric has only one reading.
// The load sum is exact whenever the probe is feasible, so it is its
// own certified floor: the margin prune compares it before running the
// response-time fixed points, and a pruned call leaves the probe
// scratch untouched.
//
//mc:allocfree delegates to the scratch-based incremental probe
func (b *Backend) ProbeUtil(c, ti int, worst bool, base, margin float64) float64 {
	b.ensure(c)
	load := b.loads[c] + b.ts.Tasks[ti].MaxUtil()
	if load-base >= margin || !b.probe(c, ti) {
		return math.Inf(1)
	}
	return load
}

// KeepProbe implements partition.Backend: it snapshots the most recent
// probe's analysis so a later probed Place can commit it even after
// probes of other cores have overwritten the live scratch.
//
//mc:allocfree copies into amortized keep buffers
func (b *Backend) KeepProbe() {
	if !b.pOK {
		b.kOK = false
		return
	}
	b.kCore, b.kTask, b.kPos = b.pCore, b.pTask, b.pPos
	b.kcLO, b.kcHI, b.kcTR = b.pcLO, b.pcHI, b.pcTR
	b.kLO = append(b.kLO[:0], b.pLO...)
	b.kHI = append(b.kHI[:0], b.pHI...)
	b.kTR = append(b.kTR[:0], b.pTR...)
	b.kOK = true
}

// Place implements partition.Backend. A placement that matches the
// kept (probed) or live probe scratch commits that analysis directly —
// the delta the screen loops already paid for; any other placement
// re-probes first. Forcing an infeasible task onto a core records it
// and schedules the exact-recompute fallback, which marks the core
// unschedulable for every later probe (matching the batch path, where
// any subset containing the infeasible member fails).
//
//mc:allocfree commits from scratch or marks the core for rebuild
func (b *Backend) Place(c, ti int, probed bool) {
	if probed && b.kOK && b.kCore == c && b.kTask == ti {
		b.commit(c, ti, b.kPos, b.kcLO, b.kcHI, b.kcTR, b.kLO, b.kHI, b.kTR)
		return
	}
	if b.pOK && b.pCore == c && b.pTask == ti {
		b.commit(c, ti, b.pPos, b.pcLO, b.pcHI, b.pcTR, b.pLO, b.pHI, b.pTR)
		return
	}
	if b.probe(c, ti) {
		b.commit(c, ti, b.pPos, b.pcLO, b.pcHI, b.pcTR, b.pLO, b.pHI, b.pTR)
		return
	}
	b.cores[c] = append(b.cores[c], ti)
	b.loads[c] += b.ts.Tasks[ti].MaxUtil()
	b.dirty[c] = true
	b.pOK, b.kOK = false, false
}

// Remove implements partition.Backend. Removal shrinks every affected
// demand sum, which breaks the monotone-climb argument warm starts
// rely on, so the backend always takes the exact-recompute fallback:
// delete the member, mark the core, and let the next query rebuild
// cold in placement order.
//
//mc:allocfree in-place delete and a dirty mark; panic path exempt
func (b *Backend) Remove(c, ti int) {
	b.pOK, b.kOK = false, false
	mem := b.cores[c]
	for i, t := range mem {
		if t == ti {
			copy(mem[i:], mem[i+1:])
			b.cores[c] = mem[:len(mem)-1]
			b.dirty[c] = true
			return
		}
	}
	panic(fmt.Sprintf("fpamc: Remove(%d, %d): task not committed on core", c, ti))
}

// Reanalyze implements partition.Backend: it discards core c's cached
// ranks and responses and rebuilds them cold from the committed
// members, unconditionally.
//
//mc:allocfree forces the cold rebuild
func (b *Backend) Reanalyze(c int) {
	b.dirty[c] = true
	b.pOK, b.kOK = false, false
	b.ensure(c)
}

// OwnLoad implements partition.Backend.
//
//mc:allocfree accessor behind the rebuild check
func (b *Backend) OwnLoad(c int) float64 {
	b.ensure(c)
	return b.loads[c]
}

// CoreUtil implements partition.Backend; worst is ignored (one
// reading, see ProbeUtil).
//
//mc:allocfree accessor behind the rebuild check
func (b *Backend) CoreUtil(c int, worst bool) float64 {
	b.ensure(c)
	return b.loads[c]
}

// ReportInto implements partition.Backend. FeasibleK and Lambda are
// EDF-VD notions with no AMC counterpart; they stay zero and empty.
//
//mc:allocfree fills the caller-owned CoreInfo in place
func (b *Backend) ReportInto(c int, ci *partition.CoreInfo) {
	b.ensure(c)
	ci.Util = b.loads[c]
	ci.FeasibleK = 0
	ci.Lambda = ci.Lambda[:0]
}

// coreLo is the LO-mode demand recursion over core c's committed
// members (everyone of higher priority interferes with level-1
// budgets, summed in placement order), plus candidate cand's term
// appended last when cand >= 0 — exactly the trial-index order the
// batch path uses, so warm and cold runs share every float operation.
//
//mc:allocfree arithmetic over cached per-core state
func (b *Backend) coreLo(c int, t *mc.Task, myRank, cand int, seed, bound float64) float64 {
	ts := b.ts
	mem := b.cores[c]
	ranks := b.ranks[c]
	r := seed
	for iter := 0; iter < maxIterations; iter++ {
		demand := t.C(1)
		for j, tj := range mem {
			if ranks[j] < myRank {
				demand += math.Ceil((r-Eps)/ts.Tasks[tj].Period) * ts.Tasks[tj].C(1)
			}
		}
		if cand >= 0 {
			demand += math.Ceil((r-Eps)/ts.Tasks[cand].Period) * ts.Tasks[cand].C(1)
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// coreHi is the stable HI-mode demand recursion over core c (only
// high-criticality higher-priority members interfere, at level-2
// budgets); cand must be high-criticality when >= 0.
//
//mc:allocfree arithmetic over cached per-core state
func (b *Backend) coreHi(c int, t *mc.Task, myRank, cand int, seed, bound float64) float64 {
	ts := b.ts
	mem := b.cores[c]
	ranks := b.ranks[c]
	r := seed
	for iter := 0; iter < maxIterations; iter++ {
		demand := t.C(2)
		for j, tj := range mem {
			if ranks[j] < myRank && ts.Tasks[tj].Crit >= 2 {
				demand += math.Ceil((r-Eps)/ts.Tasks[tj].Period) * ts.Tasks[tj].C(2)
			}
		}
		if cand >= 0 {
			demand += math.Ceil((r-Eps)/ts.Tasks[cand].Period) * ts.Tasks[cand].C(2)
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// coreTr is the AMC-rtb LO->HI transition recursion over core c: HI
// interference at level-2 budgets over the whole window, LO
// interference at level-1 budgets frozen at the task's own LO-mode
// response loR; candidate cand contributes whichever term its
// criticality selects, appended last.
//
//mc:allocfree arithmetic over cached per-core state
func (b *Backend) coreTr(c int, t *mc.Task, myRank, cand int, loR, seed, bound float64) float64 {
	ts := b.ts
	mem := b.cores[c]
	ranks := b.ranks[c]
	r := seed
	for iter := 0; iter < maxIterations; iter++ {
		demand := t.C(2)
		for j, tj := range mem {
			if ranks[j] >= myRank {
				continue
			}
			if ts.Tasks[tj].Crit >= 2 {
				demand += math.Ceil((r-Eps)/ts.Tasks[tj].Period) * ts.Tasks[tj].C(2)
			} else {
				demand += math.Ceil((loR-Eps)/ts.Tasks[tj].Period) * ts.Tasks[tj].C(1)
			}
		}
		if cand >= 0 {
			if ts.Tasks[cand].Crit >= 2 {
				demand += math.Ceil((r-Eps)/ts.Tasks[cand].Period) * ts.Tasks[cand].C(2)
			} else {
				demand += math.Ceil((loR-Eps)/ts.Tasks[cand].Period) * ts.Tasks[cand].C(1)
			}
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// schedulable is the verdict-only AMC-rtb batch test over a subset
// given as task indices into the prepared set — the reference the
// incremental probe is differentially tested against. It reproduces
// Schedulable's verdict exactly — same priority order (a stable
// insertion sort with the Priorities comparison), same fixed points
// with the demand sums accumulated in the same index order — without
// building an Analysis.
//
//mc:allocfree order and rank live in reusable scratch
func (b *Backend) schedulable(idx []int) bool {
	n := len(idx)
	b.prio = resizeInts(b.prio, n)
	b.rank = resizeInts(b.rank, n)
	for i := 0; i < n; i++ {
		b.prio[i] = i
	}
	// Stable insertion sort on positions: strict-before moves keep
	// equal elements in input order, matching sort.SliceStable in
	// Priorities.
	for i := 1; i < n; i++ {
		p := b.prio[i]
		j := i
		for j > 0 && b.priorityBefore(idx[p], idx[b.prio[j-1]]) {
			b.prio[j] = b.prio[j-1]
			j--
		}
		b.prio[j] = p
	}
	for pos, i := range b.prio {
		b.rank[i] = pos
	}
	for i := 0; i < n; i++ {
		if !b.taskSchedulable(idx, i) {
			return false
		}
	}
	return true
}

// priorityBefore reports whether task a strictly precedes task b in
// the deadline-monotonic order: shorter period first, ties toward the
// higher criticality, then the smaller ID (the Priorities comparison).
//
//mc:allocfree three comparisons
func (b *Backend) priorityBefore(a, c int) bool {
	ta, tc := &b.ts.Tasks[a], &b.ts.Tasks[c]
	//lint:ignore mclint/floateq deliberately exact: an epsilon here would break the strict weak ordering the sort contract requires
	if ta.Period != tc.Period {
		return ta.Period < tc.Period
	}
	if ta.Crit != tc.Crit {
		return ta.Crit > tc.Crit
	}
	return ta.ID < tc.ID
}

// taskSchedulable checks the applicable AMC-rtb bounds of the task at
// position i of idx, in the order analyzeTask derives them: LO for
// everyone, then stable HI and the transition bound for
// high-criticality tasks. Early exits are verdict-equivalent — each
// fixed point depends only on task parameters and (for the transition
// bound) the task's own LO response, never on another task's verdict.
//
//mc:allocfree three closure-free fixed points
func (b *Backend) taskSchedulable(idx []int, i int) bool {
	t := &b.ts.Tasks[idx[i]]
	deadline := t.Period
	lo := b.loResponse(idx, i, deadline)
	if lo > deadline+Eps {
		return false
	}
	if t.Crit < 2 {
		return true
	}
	if b.hiResponse(idx, i, deadline) > deadline+Eps {
		return false
	}
	return b.transitionResponse(idx, i, deadline, lo) <= deadline+Eps
}

// loResponse is the LO-mode fixed point of analyzeTask (everyone
// interferes with level-1 budgets), inlined without the closure.
//
//mc:allocfree arithmetic over the prepared set
func (b *Backend) loResponse(idx []int, i int, bound float64) float64 {
	ts := b.ts
	t := &ts.Tasks[idx[i]]
	r := t.C(1)
	for iter := 0; iter < maxIterations; iter++ {
		demand := t.C(1)
		for j := range idx {
			if j != i && b.rank[j] < b.rank[i] {
				demand += math.Ceil((r-Eps)/ts.Tasks[idx[j]].Period) * ts.Tasks[idx[j]].C(1)
			}
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// hiResponse is the stable HI-mode fixed point (only high-criticality
// tasks interfere, at level-2 budgets).
//
//mc:allocfree arithmetic over the prepared set
func (b *Backend) hiResponse(idx []int, i int, bound float64) float64 {
	ts := b.ts
	t := &ts.Tasks[idx[i]]
	r := t.C(2)
	for iter := 0; iter < maxIterations; iter++ {
		demand := t.C(2)
		for j := range idx {
			if j != i && b.rank[j] < b.rank[i] && ts.Tasks[idx[j]].Crit >= 2 {
				demand += math.Ceil((r-Eps)/ts.Tasks[idx[j]].Period) * ts.Tasks[idx[j]].C(2)
			}
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// transitionResponse is the AMC-rtb LO->HI fixed point: HI
// interference at level-2 budgets over the whole window, LO
// interference at level-1 budgets frozen at the task's own LO-mode
// response loR.
//
//mc:allocfree arithmetic over the prepared set
func (b *Backend) transitionResponse(idx []int, i int, bound, loR float64) float64 {
	ts := b.ts
	t := &ts.Tasks[idx[i]]
	r := t.C(2)
	for iter := 0; iter < maxIterations; iter++ {
		demand := t.C(2)
		for j := range idx {
			if j == i || b.rank[j] >= b.rank[i] {
				continue
			}
			if ts.Tasks[idx[j]].Crit >= 2 {
				demand += math.Ceil((r-Eps)/ts.Tasks[idx[j]].Period) * ts.Tasks[idx[j]].C(2)
			} else {
				demand += math.Ceil((loR-Eps)/ts.Tasks[idx[j]].Period) * ts.Tasks[idx[j]].C(1)
			}
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

//mc:allocfree amortized: reallocates only on growth
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

//mc:allocfree amortized: reallocates only on growth
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

//mc:allocfree amortized: reallocates only on growth
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Partition allocates a dual-criticality task set onto m cores under
// partitioned fixed-priority AMC scheduling: the unified allocator of
// internal/partition running atop the AMC-rtb backend. All five
// schemes are supported, including CA-TPA (see Backend for how its
// probe metric degenerates).
//
// The result reuses partition.Result; core utilizations are the Eq. 4
// own-level loads (a response-time analysis has no single utilization
// figure), so FeasibleK and Lambda are not populated.
func Partition(ts *mc.TaskSet, m int, scheme partition.Scheme) (*partition.Result, error) {
	if maxCrit := ts.MaxCrit(); maxCrit > 2 {
		return nil, fmt.Errorf("fpamc: task set has criticality %d; AMC-rtb partitioning is dual-criticality", maxCrit)
	}
	if m < 1 {
		return nil, fmt.Errorf("fpamc: invalid core count %d", m)
	}
	switch scheme {
	case partition.WFD, partition.FFD, partition.BFD, partition.Hybrid, partition.CATPA:
	default:
		return nil, fmt.Errorf("fpamc: unsupported scheme %v", scheme)
	}
	return partition.NewWithBackend(m, 2, &Backend{}).Run(ts, scheme, nil), nil
}
