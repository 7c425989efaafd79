package fpamc

import (
	"fmt"
	"math"

	"catpa/internal/mc"
)

// BackendName is the name under which internal/partition offers the
// AMC-rtb analysis as an allocator backend.
const BackendName = "amcrtb"

// Backend is the AMC-rtb response-time analysis in the allocator's
// per-core schedulability protocol: it holds every partition.Backend
// method except Name, MaxLevels and ReportInto, which the "amcrtb"
// adapter in internal/partition adds. Through it every heuristic —
// including CA-TPA, which the old fixed-priority shells never
// supported — runs atop partitioned fixed-priority AMC through the one
// allocation shell in internal/partition.
//
// A response-time analysis has no single utilization figure, so the
// core-utilization metric this backend reports (ProbeUtil, CoreUtil,
// reflected into CoreInfo.Util) is the Eq. 4 own-level load sum
// MaxUtil, exactly what the old fixed-priority shells reported. That
// makes the probe increment core-independent (always the candidate's
// MaxUtil), so CA-TPA's minimum-increment search degenerates to
// first-feasible under its contribution ordering; the ordering itself
// and the imbalance fallback remain active (see DESIGN.md Section 11).
//
// Incremental delta state (DESIGN.md Section 14). Each core caches its
// committed deadline-monotonic ranks and the exact AMC-rtb fixed-point
// responses (LO, stable HI, LO->HI transition) of every committed
// task. A probe then touches only the tasks the candidate can affect:
// committed tasks of higher priority than the candidate keep their
// stored responses untouched (their interference sets are unchanged,
// so the stored values are bitwise what a recompute would produce),
// the candidate runs its fixed points over its higher-priority
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
// to the batch path. Under warmOK a probe also (a) rejects without any
// fixed point when the core's level-1 or HI-task level-2 utilization
// plus the candidate's exceeds 1+δ, a bound under which the
// lowest-priority task provably misses (see Prepare), (b) takes the
// first warm iteration of each displaced task in O(1), because a
// stored response is an exact plateau of its old demand sum and the
// candidate's term is added last, and (c) seeds the candidate's LO and
// HI fixed points from its nearest higher-priority neighbour's stored
// response plus its own budget, a lower bound of its least fixed point.
//
// Removal shrinks demand sums, which breaks the monotone-climb
// argument in the other direction, but only for the tasks below the
// removed one: on a clean, schedulable core Remove keeps the
// higher-priority members' stored responses (their interference sets
// did not change) and marks the core so the next probe of it
// recomputes cold only the members of the removed rank and below. A
// dirty or unschedulable core, a removed rank-0 task, a forced
// infeasible Place and Reanalyze take the full cold rebuild of ranks
// and responses from the surviving members in placement order — the
// reference path the differential gates compare the incremental path
// against. The per-core sums are never stale: Remove re-sums them over
// the survivors in placement order at once, so the load reads never
// rebuild, repeated removals from a core coalesce into one rebuild,
// and a core the load-margin prune skips is never rebuilt at all.
//
// Every verdict remains identical to Schedulable on the corresponding
// task slice: the demand sums run in the same trial-index order (the
// committed placement order with the candidate appended last) with the
// same float operations, warm and cold fixed points meet in the same
// least fixed point bit-for-bit under warmOK, and a task is only ever
// skipped when its inputs are unchanged since its last recompute.
// FuzzAMCProbeAgreement (every probe against Schedulable),
// FuzzBackendAgreement (every heuristic's cores against Schedulable)
// and the FuzzIncrementalAgreement gate in internal/partition check
// this on random subsets and random placement histories.
type Backend struct {
	m  int
	ts *mc.TaskSet

	// Packed per-task parameters, indexed like ts.Tasks and filled by
	// Prepare so the fixed points read flat slices instead of the
	// out-of-line Task.C: period, level-1 and level-2 budgets (C(2)
	// saturates, so it is C(1) for a LO task), level-1 utilization,
	// level-2 utilization (bitwise MaxUtil for a dual-criticality
	// task), and the high-criticality test.
	per, c1, c2, u1, u2 []float64
	hi                  []bool

	cores [][]int   // per-core placed task indices, in allocation order
	loads []float64 // per-core Eq. 4 own-level load (sum MaxUtil)
	// Per-core screen sums in placement order: level-1 utilization of
	// every member and level-2 utilization of the HI members. Place
	// adds to them, like to loads, and Remove re-sums all three over
	// the survivors; nothing subtracts.
	lu1, lu2 []float64

	// Committed incremental state, all aligned with cores[c]:
	// deadline-monotonic rank of each committed task within its core,
	// and the exact fixed-point responses its last (re)computation
	// produced. rHI/rTR are meaningful only for high-criticality tasks.
	ranks [][]int
	rLO   [][]float64
	rHI   [][]float64
	rTR   [][]float64
	dirty []bool // core must be rebuilt cold, ranks included, before the next probe
	from  []int  // lowest stale rank after a suffix-only Remove, -1 when none
	allOK []bool // every committed task met its deadline bound

	// warmOK gates the warm-start path: true when every fixed point
	// over the prepared set plateaus exactly and converges under the
	// iteration cap, so warm and cold arithmetic are bitwise equal.
	warmOK bool
	// screen is 1+δ, the utilization above which a warmOK probe
	// rejects without running a fixed point (see Prepare).
	screen float64

	// Probe scratch: the most recent feasible probe's candidate
	// responses plus the recomputed lower-priority responses (aligned
	// with cores[pCore]); valid while pOK and no commit intervened.
	// Place commits it when it matches, and re-probes otherwise.
	pCore, pTask, pPos int
	pcLO, pcHI, pcTR   float64
	pLO, pHI, pTR      []float64
	pOK                bool

	// Scratch for rebuild's priority sort.
	prio []int
}

// Reset is partition.Backend's Reset.
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
	b.loads = resize(b.loads, m)
	b.lu1 = resize(b.lu1, m)
	b.lu2 = resize(b.lu2, m)
	b.dirty = resize(b.dirty, m)
	b.from = resize(b.from, m)
	b.allOK = resize(b.allOK, m)
	b.pOK = false
}

// Prepare is partition.Backend's Prepare. It packs the per-task
// parameters, then decides whether warm-started fixed points are
// bitwise safe (see the type comment): every non-final iteration of a
// demand recursion grows the demand by at least one whole level-1
// budget, so when the smallest budget clears the epsilon band the
// convergence test "demand <= r+Eps" only fires on an exact fixed
// point, and maxP/minC+8 bounds the cold iteration count away from the
// cap.
//
// It also sets the utilization screen 1+δ with δ = 4·Eps/minC + 4η,
// η = (3n+8)·2^-53 for an n-task set. The lowest-priority task L of a
// level whose utilization U exceeds 1+δ has demand
// W(r) >= (r-Eps)·U at every iterate r <= D_L+Eps (each ceiling is at
// least its argument, and C_L >= (r-Eps)·C_L/T_L there), and η bounds
// the float rounding of the screened sum and of W, so the computed
// demand always exceeds r+Eps for r >= minC: L's fixed point never
// converges inside its deadline and the full analysis rejects.
// DESIGN.md Section 14 writes out the derivation.
//
//mc:allocfree packs the prepared set into amortized storage
func (b *Backend) Prepare(ts *mc.TaskSet) {
	b.ts = ts
	b.pOK = false
	n := ts.Len()
	b.per = resize(b.per, n)
	b.c1 = resize(b.c1, n)
	b.c2 = resize(b.c2, n)
	b.u1 = resize(b.u1, n)
	b.u2 = resize(b.u2, n)
	b.hi = resize(b.hi, n)
	minC := math.Inf(1)
	maxP := 0.0
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		b.per[i], b.c1[i], b.c2[i] = t.Period, t.C(1), t.C(2)
		b.u1[i], b.u2[i] = t.Util(1), t.Util(2)
		b.hi[i] = t.Crit >= 2
		if c := b.c1[i]; c < minC {
			minC = c
		}
		if p := t.Period; p > maxP {
			maxP = p
		}
	}
	b.warmOK = n > 0 && minC > 2*Eps && maxP/minC+8 < float64(maxIterations)
	b.screen = 1 + 4*Eps/minC + 4*float64(3*n+8)*0x1p-53
}

// Begin is partition.Backend's Begin.
//
//mc:allocfree truncates per-core state in place
func (b *Backend) Begin() {
	for c := 0; c < b.m; c++ {
		b.cores[c] = b.cores[c][:0]
		b.ranks[c] = b.ranks[c][:0]
		b.rLO[c] = b.rLO[c][:0]
		b.rHI[c] = b.rHI[c][:0]
		b.rTR[c] = b.rTR[c][:0]
		b.loads[c], b.lu1[c], b.lu2[c] = 0, 0, 0
		b.dirty[c] = false
		b.from[c] = -1
		b.allOK[c] = true
	}
	b.pOK = false
}

// ensure brings core c's ranks and responses up to date before a
// probe: the full cold rebuild after a forced infeasible placement, a
// removal from a dirty or unschedulable core, or Reanalyze; the
// suffix-only rebuild after a removal from a clean, schedulable core.
//
//mc:allocfree inlineable guard around the rebuild
func (b *Backend) ensure(c int) {
	if b.dirty[c] || b.from[c] >= 0 {
		b.rebuild(c)
	}
}

// rebuild is ensure's slow path, split out so the clean-path guard
// inlines into every probe. A dirty core re-sorts its ranks with the
// same stable insertion sort the batch path uses and recomputes every
// response; a suffix-marked core keeps its ranks and the responses
// above the marked rank. Either way the recomputed fixed points run
// cold, reproducing bitwise the values the incremental commits would
// have left (see the type comment for why warm and cold meet in the
// same bits).
//
//mc:allocfree rebuilds into amortized per-core storage
func (b *Backend) rebuild(c int) {
	mem := b.cores[c]
	n := len(mem)
	from := b.from[c]
	if b.dirty[c] {
		from = 0
		b.ranks[c] = resize(b.ranks[c], n)
		b.rLO[c] = resize(b.rLO[c], n)
		b.rHI[c] = resize(b.rHI[c], n)
		b.rTR[c] = resize(b.rTR[c], n)
		b.prio = resize(b.prio, n)
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
	}
	ok := true
	for j := 0; j < n; j++ {
		rank := b.ranks[c][j]
		if rank < from {
			continue
		}
		t := mem[j]
		deadline := b.per[t]
		lo := b.coreLo(c, t, rank, -1, b.c1[t], deadline)
		b.rLO[c][j] = lo
		if lo > deadline+Eps {
			ok = false
		}
		if b.hi[t] {
			hi := b.coreHi(c, t, rank, -1, b.c2[t], deadline)
			b.rHI[c][j] = hi
			if hi > deadline+Eps {
				ok = false
			}
			tr := b.coreTr(c, t, rank, -1, lo, b.c2[t], deadline)
			b.rTR[c][j] = tr
			if tr > deadline+Eps {
				ok = false
			}
		}
	}
	b.allOK[c] = ok
	b.dirty[c] = false
	b.from[c] = -1
}

// probe is the incremental feasibility test of core c plus candidate
// ti. It fills the probe scratch with everything a commit needs: the
// candidate's rank and responses, and the warm-recomputed responses of
// every committed task the candidate outranks. Higher-priority
// committed tasks are skipped — their interference sets are
// unchanged, so their stored responses and verdicts stand.
//
//mc:allocfree fixed points over cached state into reusable scratch
func (b *Backend) probe(c, ti int) bool {
	b.ensure(c)
	b.pOK = false
	if !b.allOK[c] {
		return false
	}
	candHI := b.hi[ti]
	if b.warmOK && (b.lu1[c]+b.u1[ti] > b.screen || candHI && b.lu2[c]+b.u2[ti] > b.screen) {
		return false
	}
	mem := b.cores[c]
	ranks := b.ranks[c]
	n := len(mem)
	// pos is the candidate's rank; pred and predHI index the members
	// of rank pos-1 and the nearest higher-priority HI member.
	pos, pred, predHI := 0, -1, -1
	for j, tj := range mem {
		if b.priorityBefore(tj, ti) {
			pos++
			if pred < 0 || ranks[j] > ranks[pred] {
				pred = j
			}
			if b.hi[tj] && (predHI < 0 || ranks[j] > ranks[predHI]) {
				predHI = j
			}
		}
	}
	deadline := b.per[ti]
	seed := b.c1[ti]
	if b.warmOK && pred >= 0 {
		seed += b.rLO[c][pred]
	}
	cLO := b.coreLo(c, ti, pos, -1, seed, deadline)
	if cLO > deadline+Eps {
		return false
	}
	var cHI, cTR float64
	if candHI {
		seed = b.c2[ti]
		if b.warmOK && predHI >= 0 {
			seed += b.rHI[c][predHI]
		}
		cHI = b.coreHi(c, ti, pos, -1, seed, deadline)
		if cHI > deadline+Eps {
			return false
		}
		cTR = b.coreTr(c, ti, pos, -1, cLO, b.c2[ti], deadline)
		if cTR > deadline+Eps {
			return false
		}
	}
	b.pLO = resize(b.pLO, n)
	b.pHI = resize(b.pHI, n)
	b.pTR = resize(b.pTR, n)
	for j := 0; j < n; j++ {
		rank := ranks[j]
		if rank < pos {
			continue
		}
		tj := mem[j]
		dj := b.per[tj]
		var nLO float64
		if b.warmOK {
			nLO = b.warmLo(c, tj, rank, ti, b.rLO[c][j], dj)
		} else {
			nLO = b.coreLo(c, tj, rank, ti, b.c1[tj], dj)
		}
		if nLO > dj+Eps {
			return false
		}
		b.pLO[j] = nLO
		if b.hi[tj] {
			nHI := b.rHI[c][j]
			if candHI {
				if b.warmOK {
					nHI = b.warmHi(c, tj, rank, ti, nHI, dj)
				} else {
					nHI = b.coreHi(c, tj, rank, ti, b.c2[tj], dj)
				}
				if nHI > dj+Eps {
					return false
				}
			}
			b.pHI[j] = nHI
			seed = b.c2[tj]
			if b.warmOK {
				seed = b.rTR[c][j]
			}
			nTR := b.coreTr(c, tj, rank, ti, nLO, seed, dj)
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

// commit installs the probe scratch of (c, ti) as core c's committed
// state: lower-priority ranks shift down by one, their recomputed
// responses replace the stored ones, and the candidate appends with
// its rank and cold responses.
//
//mc:allocfree per-core lists grow amortized
func (b *Backend) commit(c, ti int) {
	candHI := b.hi[ti]
	pos := b.pPos
	mem := b.cores[c]
	for j := range mem {
		if b.ranks[c][j] < pos {
			continue
		}
		b.ranks[c][j]++
		b.rLO[c][j] = b.pLO[j]
		if b.hi[mem[j]] {
			if candHI {
				b.rHI[c][j] = b.pHI[j]
			}
			b.rTR[c][j] = b.pTR[j]
		}
	}
	b.cores[c] = append(b.cores[c], ti)
	b.ranks[c] = append(b.ranks[c], pos)
	b.rLO[c] = append(b.rLO[c], b.pcLO)
	b.rHI[c] = append(b.rHI[c], b.pcHI)
	b.rTR[c] = append(b.rTR[c], b.pcTR)
	b.addSums(c, ti)
	b.pOK = false
}

// addSums folds task ti into core c's load and screen sums, the step
// refold repeats per member.
//
//mc:allocfree three scalar adds
func (b *Backend) addSums(c, ti int) {
	b.loads[c] += b.u2[ti]
	b.lu1[c] += b.u1[ti]
	if b.hi[ti] {
		b.lu2[c] += b.u2[ti]
	}
}

// refold re-sums core c's load and screen sums over its members in
// placement order: bitwise the sums Place's adds would have left on a
// core that only ever held those members.
//
//mc:allocfree one pass over the core's members
func (b *Backend) refold(c int) {
	b.loads[c], b.lu1[c], b.lu2[c] = 0, 0, 0
	for _, t := range b.cores[c] {
		b.addSums(c, t)
	}
}

// FeasibleWith is partition.Backend's FeasibleWith: it reports whether core
// c's subset plus task ti passes the AMC-rtb response-time test
// (Eqs. rtb-LO/rtb-HI), the fixed-priority counterpart of the
// Theorem-1 screens — answered incrementally from the cached committed
// responses.
//
//mc:allocfree delegates to the scratch-based incremental probe
func (b *Backend) FeasibleWith(c, ti int) bool {
	return b.probe(c, ti)
}

// ProbeUtil is partition.Backend's ProbeUtil: the own-level load of core c
// with task ti added, +Inf when the extended subset fails AMC-rtb.
// The load sum is exact whenever the probe is feasible, so it is its
// own certified floor: the margin prune compares it before running the
// response-time fixed points (and before any pending rebuild of the
// core), and a pruned call leaves the probe scratch untouched.
//
//mc:allocfree delegates to the scratch-based incremental probe
func (b *Backend) ProbeUtil(c, ti int, base, margin float64) float64 {
	load := b.loads[c] + b.u2[ti]
	if load-base >= margin || !b.probe(c, ti) {
		return math.Inf(1)
	}
	return load
}

// Place is partition.Backend's Place. A placement that matches the
// live probe scratch commits that analysis directly — the delta the
// pick scan already paid for; any other placement re-probes first.
// Forcing an infeasible task onto a core records it and schedules the
// full rebuild, which marks the core unschedulable for every later
// probe (matching the batch path, where any subset containing the
// infeasible member fails).
//
//mc:allocfree commits from scratch or marks the core for rebuild
func (b *Backend) Place(c, ti int) {
	if (b.pOK && b.pCore == c && b.pTask == ti) || b.probe(c, ti) {
		b.commit(c, ti)
		return
	}
	b.cores[c] = append(b.cores[c], ti)
	b.addSums(c, ti)
	b.dirty[c] = true
	b.pOK = false
}

// Remove is partition.Backend's Remove. It re-sums the core's load and
// screen sums over the survivors in placement order at once, and
// defers the fixed points to the next probe of the core. Removal
// shrinks the demand sums of the removed task's lower-priority members
// only, so on a clean, schedulable core it deletes the member's entry,
// closes the rank gap, and marks the core so that probe recomputes
// cold just the members at the removed rank and below; the
// higher-priority members' stored responses are already bitwise what a
// cold recompute gives. A dirty or unschedulable core, or a removed
// rank-0 task, takes the full rebuild instead.
//
//mc:allocfree in-place deletes, a re-sum and a rebuild mark; panic path exempt
func (b *Backend) Remove(c, ti int) {
	b.pOK = false
	mem := b.cores[c]
	for i, t := range mem {
		if t != ti {
			continue
		}
		b.cores[c] = deleteAt(mem, i)
		b.refold(c)
		if b.dirty[c] || !b.allOK[c] || b.ranks[c][i] == 0 {
			b.dirty[c] = true
			return
		}
		r := b.ranks[c][i]
		ranks := deleteAt(b.ranks[c], i)
		for j := range ranks {
			if ranks[j] > r {
				ranks[j]--
			}
		}
		b.ranks[c] = ranks
		b.rLO[c] = deleteAt(b.rLO[c], i)
		b.rHI[c] = deleteAt(b.rHI[c], i)
		b.rTR[c] = deleteAt(b.rTR[c], i)
		if b.from[c] < 0 || r < b.from[c] {
			b.from[c] = r
		}
		return
	}
	panic(fmt.Sprintf("fpamc: Remove(%d, %d): task not committed on core", c, ti))
}

// Reanalyze is partition.Backend's Reanalyze: it discards core c's cached
// sums, ranks and responses and rebuilds them cold from the committed
// members, unconditionally.
//
//mc:allocfree forces the re-sum and the cold rebuild
func (b *Backend) Reanalyze(c int) {
	b.dirty[c] = true
	b.pOK = false
	b.refold(c)
	b.ensure(c)
}

// OwnLoad is partition.Backend's OwnLoad: the committed own-level load,
// current even while a rebuild of the core is pending.
//
//mc:allocfree cached scalar read
func (b *Backend) OwnLoad(c int) float64 {
	return b.loads[c]
}

// CoreUtil is partition.Backend's CoreUtil: the committed own-level
// load, the metric ProbeUtil answers with.
//
//mc:allocfree cached scalar read
func (b *Backend) CoreUtil(c int) float64 {
	return b.loads[c]
}

// coreLo is the LO-mode demand recursion of task t over core c's
// committed members (everyone of higher priority interferes with
// level-1 budgets, summed in placement order), plus candidate cand's
// term appended last when cand >= 0 — exactly the trial-index order
// the batch path uses, so warm and cold runs share every float
// operation.
//
//mc:allocfree arithmetic over cached per-core state
func (b *Backend) coreLo(c, t, myRank, cand int, seed, bound float64) float64 {
	per, c1 := b.per, b.c1
	mem := b.cores[c]
	ranks := b.ranks[c]
	r := seed
	for iter := 0; iter < maxIterations; iter++ {
		demand := c1[t]
		for j, tj := range mem {
			if ranks[j] < myRank {
				demand += math.Ceil((r-Eps)/per[tj]) * c1[tj]
			}
		}
		if cand >= 0 {
			demand += math.Ceil((r-Eps)/per[cand]) * c1[cand]
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// coreHi is the stable HI-mode demand recursion of task t over core c
// (only high-criticality higher-priority members interfere, at level-2
// budgets); cand must be high-criticality when >= 0.
//
//mc:allocfree arithmetic over cached per-core state
func (b *Backend) coreHi(c, t, myRank, cand int, seed, bound float64) float64 {
	per, c2, hi := b.per, b.c2, b.hi
	mem := b.cores[c]
	ranks := b.ranks[c]
	r := seed
	for iter := 0; iter < maxIterations; iter++ {
		demand := c2[t]
		for j, tj := range mem {
			if ranks[j] < myRank && hi[tj] {
				demand += math.Ceil((r-Eps)/per[tj]) * c2[tj]
			}
		}
		if cand >= 0 {
			demand += math.Ceil((r-Eps)/per[cand]) * c2[cand]
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
}

// warmLo is coreLo warm-started from r0, the stored LO response of
// committed task t, with candidate cand interfering. r0 is an exact
// plateau of t's old demand sum and cand's term comes last in the new
// one, so the first iteration is bitwise r0 plus cand's term — O(1)
// instead of a rescan of the core. The remaining iterations, if any,
// run the full recursion; the convergence and bound tests are those of
// coreLo's first pass.
//
//mc:allocfree one demand term, then the shared recursion
func (b *Backend) warmLo(c, t, myRank, cand int, r0, bound float64) float64 {
	d := r0 + math.Ceil((r0-Eps)/b.per[cand])*b.c1[cand]
	if d <= r0+Eps || d > bound+Eps {
		return d
	}
	return b.coreLo(c, t, myRank, cand, d, bound)
}

// warmHi is warmLo's stable HI-mode counterpart, warm-started from the
// stored HI response r0 of committed task t; cand must be
// high-criticality.
//
//mc:allocfree one demand term, then the shared recursion
func (b *Backend) warmHi(c, t, myRank, cand int, r0, bound float64) float64 {
	d := r0 + math.Ceil((r0-Eps)/b.per[cand])*b.c2[cand]
	if d <= r0+Eps || d > bound+Eps {
		return d
	}
	return b.coreHi(c, t, myRank, cand, d, bound)
}

// coreTr is the AMC-rtb LO->HI transition recursion of task t over
// core c: HI interference at level-2 budgets over the whole window, LO
// interference at level-1 budgets frozen at the task's own LO-mode
// response loR; candidate cand contributes whichever term its
// criticality selects, appended last.
//
//mc:allocfree arithmetic over cached per-core state
func (b *Backend) coreTr(c, t, myRank, cand int, loR, seed, bound float64) float64 {
	per, c1, c2, hi := b.per, b.c1, b.c2, b.hi
	mem := b.cores[c]
	ranks := b.ranks[c]
	r := seed
	for iter := 0; iter < maxIterations; iter++ {
		demand := c2[t]
		for j, tj := range mem {
			if ranks[j] >= myRank {
				continue
			}
			if hi[tj] {
				demand += math.Ceil((r-Eps)/per[tj]) * c2[tj]
			} else {
				demand += math.Ceil((loR-Eps)/per[tj]) * c1[tj]
			}
		}
		if cand >= 0 {
			if hi[cand] {
				demand += math.Ceil((r-Eps)/per[cand]) * c2[cand]
			} else {
				demand += math.Ceil((loR-Eps)/per[cand]) * c1[cand]
			}
		}
		if demand <= r+Eps || demand > bound+Eps {
			return demand
		}
		r = demand
	}
	return math.Inf(1)
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

// resize returns s with length n, reallocating only on growth.
//
//mc:allocfree amortized: reallocates only on growth
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// deleteAt removes s[i] in place, keeping the order of the rest.
//
//mc:allocfree shifts within the slice
func deleteAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
