package partition

import (
	"fmt"
	"math"

	"catpa/internal/mc"
)

// allocator is the one allocation shell shared by every heuristic and
// every analysis backend: it owns the heuristic state of a run —
// per-core task lists, the assignment, cached core utilizations,
// ordering scratch — and consults a Backend for every schedulability
// question (Algorithm 1's oracle seam). It is re-dimensioned by reset
// and cleared per run, so steady-state runs perform no allocations in
// the shell; whether the analysis itself allocates is the backend's
// contract (the EDF-VD backend does not).
type allocator struct {
	m, k int
	be   Backend

	// Per-run inputs.
	ts     *mc.TaskSet
	scheme Scheme
	opts   *Options

	// Per-core state. utils is the per-core U^Psi of Eq. 9 (CA-TPA's
	// decision metric), refreshed from the backend on CA-TPA or traced
	// placements; ownLoad the Eq. 4 own-level load the classical
	// schemes compare cores by.
	utils   []float64
	ownLoad []float64
	tasks   [][]int // per-core task indices in allocation order

	// uMax/uMin cache max and min over utils, maintained by bumpUtil on
	// every refresh so the per-task Eq. 16 imbalance read is O(1)
	// instead of an O(m) rescan.
	uMax, uMin float64

	// verdict memoizes pickLeastLoaded's per-core probes within one
	// call: unprobed, feasible or infeasible.
	verdict []int8

	// Per-task state.
	assign []int // task -> core

	// Ordering cache: one slot per task order (byContribution,
	// byMaxUtil), valid for the current task set, and the sorts' shared
	// scratch. The four classical schemes share byMaxUtil, so each
	// order is sorted at most once per Prepare.
	ordIdx     [2][]int
	ordOK      [2]bool
	ordScratch mc.SortScratch

	failed int // first unplaceable task, -1

	trace []Step
}

// The allocator's ordering-cache slots.
const (
	// byContribution is CA-TPA's order: decreasing utilization
	// contribution (Eqs. 12-13 with the paper's tie rules).
	byContribution = iota
	// byMaxUtil is the classical schemes' order: decreasing own-level
	// utilization.
	byMaxUtil
)

// reset re-dimensions the allocator for m cores and k levels, reusing
// storage where the dimensions allow.
func (a *allocator) reset(m, k int) {
	if m < 1 {
		panic(fmt.Sprintf("partition: invalid core count %d", m))
	}
	if k < 1 {
		k = 1
	}
	if maxK := a.be.MaxLevels(); maxK > 0 && k > maxK {
		panic(fmt.Sprintf("partition: backend %s supports at most K=%d levels, got %d", a.be.Name(), maxK, k))
	}
	a.be.Reset(m, k)
	if m == a.m && k == a.k && a.utils != nil {
		return
	}
	a.m, a.k = m, k
	a.utils = resize(a.utils, m)
	a.ownLoad = resize(a.ownLoad, m)
	a.verdict = resize(a.verdict, m)
	if cap(a.tasks) < m {
		tasks := make([][]int, m)
		copy(tasks, a.tasks)
		a.tasks = tasks
	} else {
		a.tasks = a.tasks[:m]
	}
}

// prepSet installs a task set: it validates the dimensions and hands
// the set to the backend for per-set precomputation, invalidating the
// ordering cache. Once prepared, any number of runPrepared calls may
// share this work (the Prepare/Place/Summarize batch path).
//
//mc:allocfree hands the set to the backend; panic path exempt
func (a *allocator) prepSet(ts *mc.TaskSet) {
	if maxCrit := ts.MaxCrit(); a.k < maxCrit {
		panic(fmt.Sprintf("partition: K=%d below task set criticality %d", a.k, maxCrit))
	}
	a.ts = ts
	a.ordOK[0], a.ordOK[1] = false, false
	a.be.Prepare(ts)
}

// clearRun resets the per-run state for the already-prepared task set.
//
//mc:allocfree truncates and refills amortized per-run state
func (a *allocator) clearRun(scheme Scheme, opts *Options) {
	a.scheme, a.opts = scheme, opts
	a.failed = -1
	a.trace = a.trace[:0]
	a.be.Begin()
	for c := 0; c < a.m; c++ {
		a.utils[c] = 0
		a.ownLoad[c] = a.be.OwnLoad(c)
		a.tasks[c] = a.tasks[c][:0]
	}
	a.assign = resize(a.assign, a.ts.Len())
	for i := range a.assign {
		a.assign[i] = -1
	}
	a.uMax, a.uMin = 0, 0
}

// run executes one partitioning pass (allocation only; the caller
// assembles a Result afterwards).
//
//mc:allocfree one pass over amortized state
func (a *allocator) run(ts *mc.TaskSet, scheme Scheme, opts *Options) {
	a.prepSet(ts)
	a.runPrepared(scheme, opts)
}

// runPrepared executes one allocation run over the task set installed
// by the last prepSet: one ordered placement pass, or two for Hybrid,
// which places the high-criticality tasks (l_i >= 2) before the
// low-criticality ones (l_i = 1), per Rodriguez et al. The classical
// schemes order by decreasing own-level utilization, CA-TPA by
// decreasing contribution; pick supplies each scheme's core choice.
//
//mc:allocfree one or two placement passes
func (a *allocator) runPrepared(scheme Scheme, opts *Options) {
	a.clearRun(scheme, opts)
	switch scheme {
	case WFD, FFD, BFD:
		a.placeAll(a.orderTasks(byMaxUtil), 1, a.k)
	case Hybrid:
		order := a.orderTasks(byMaxUtil)
		if a.placeAll(order, 2, a.k) {
			a.placeAll(order, 1, 1)
		}
	case CATPA:
		a.placeAll(a.orderTasks(byContribution), 1, a.k)
	default:
		panic(fmt.Sprintf("partition: unknown scheme %v", scheme))
	}
}

// placeAll is the placement pass: it walks order and places every task
// of criticality lo..hi on the core pick chooses. It stops at the first
// task no core accepts, records it, and reports false.
//
//mc:allocfree the pick/place loop
func (a *allocator) placeAll(order []int, lo, hi int) bool {
	for _, ti := range order {
		if crit := a.ts.Tasks[ti].Crit; crit < lo || crit > hi {
			continue
		}
		c := a.pick(ti)
		if c < 0 {
			a.fail(ti)
			return false
		}
		a.place(ti, c)
	}
	return true
}

// place commits task ti to core c; the backend reuses the analysis
// of the pick's probe of (c, ti) when it has one. CA-TPA reads the
// committed utilization back because its next pick compares cores by
// it; the classical schemes defer per-core analysis to the finishing
// pass entirely, since their placement decisions never read core
// utilizations (only own-level loads). Tracing forces the eager
// utilization read because Step.Util reports the post-placement value.
//
//mc:allocfree per-core slices grow amortized; Step is a value
func (a *allocator) place(ti, c int) {
	prev := a.utils[c]
	a.be.Place(c, ti)
	a.ownLoad[c] = a.be.OwnLoad(c)
	a.tasks[c] = append(a.tasks[c], ti)
	a.assign[ti] = c
	if a.scheme == CATPA || a.opts.trace() {
		a.utils[c] = a.be.CoreUtil(c)
		a.bumpUtil(prev, a.utils[c])
	}
	if a.opts.trace() {
		a.trace = append(a.trace, Step{Task: ti, Core: c, Util: a.utils[c], Increment: a.utils[c] - prev})
	}
}

//
//mc:allocfree records the failure index
func (a *allocator) fail(ti int) {
	a.failed = ti
	if a.opts.trace() {
		a.trace = append(a.trace, Step{Task: ti, Core: -1})
	}
}

// orderTasks returns the task order of the given cache slot, sorting
// it at most once per prepared task set (the order is a pure function
// of the set).
//
//mc:allocfree ordering scratch reused across runs
func (a *allocator) orderTasks(slot int) []int {
	if !a.ordOK[slot] {
		if slot == byContribution {
			a.ordIdx[slot] = mc.SortByContributionInto(a.ts, a.ordIdx[slot], &a.ordScratch)
		} else {
			a.ordIdx[slot] = mc.SortByMaxUtilInto(a.ts, a.ordIdx[slot], &a.ordScratch)
		}
		a.ordOK[slot] = true
	}
	return a.ordIdx[slot]
}

// pickFFD returns the first feasible core for ti, or -1.
//
//mc:allocfree the FFD scan
func (a *allocator) pickFFD(ti int) int {
	for c := 0; c < a.m; c++ {
		if a.be.FeasibleWith(c, ti) {
			return c
		}
	}
	return -1
}

// pickBFD returns the fullest feasible core for ti — maximum current
// own-level load (cached; refreshed by place via the same OwnLoad
// sum) under the Eps hysteresis — or -1.
//
// The load-hysteresis test runs before the schedulability probe (here
// and in pickWFD): a core whose load would not displace the incumbent
// cannot change the pick whatever its verdict, so deferring the (much
// more expensive) feasibility call behind the load gate skips the
// analysis on most cores while selecting exactly the core the
// probe-first scan would.
//
//mc:allocfree the BFD scan
func (a *allocator) pickBFD(ti int) int {
	best := -1
	var bestLoad float64
	for c := 0; c < a.m; c++ {
		if load := a.ownLoad[c]; best < 0 || load > bestLoad+mc.Eps {
			if a.be.FeasibleWith(c, ti) {
				best, bestLoad = c, load
			}
		}
	}
	return best
}

// pickWFD returns the emptiest feasible core for ti — minimum current
// own-level load under the Eps hysteresis — or -1.
//
//mc:allocfree the WFD scan
func (a *allocator) pickWFD(ti int) int {
	best := -1
	var bestLoad float64
	for c := 0; c < a.m; c++ {
		if load := a.ownLoad[c]; best < 0 || load < bestLoad-mc.Eps {
			if a.be.FeasibleWith(c, ti) {
				best, bestLoad = c, load
			}
		}
	}
	return best
}

// imbalance computes the current workload imbalance factor Lambda
// (Eq. 16) from the cached utilization extrema — the same values a
// rescan of utils would produce, by the bumpUtil invariant.
//
//mc:allocfree reads two cached scalars
func (a *allocator) imbalance() float64 {
	if a.uMax <= mc.Eps {
		return 0
	}
	return (a.uMax - a.uMin) / a.uMax
}

// bumpUtil restores the uMax/uMin invariant after utils[c] changed
// from prev to cur: O(1) unless the update displaced the extremum it
// held, then one O(m) rescan.
//
//mc:allocfree scalar compares, rarely an O(m) rescan
func (a *allocator) bumpUtil(prev, cur float64) {
	//lint:ignore mclint/floateq deliberately exact: prev held the cached extremum iff it equals it bit for bit
	if (prev == a.uMax && cur < prev) || (prev == a.uMin && cur > prev) {
		a.rescanUtils()
		return
	}
	if cur > a.uMax {
		a.uMax = cur
	}
	if cur < a.uMin {
		a.uMin = cur
	}
}

// rescanUtils recomputes the cached utilization extrema from utils.
//
//mc:allocfree scans cached utilizations
func (a *allocator) rescanUtils() {
	maxU, minU := a.utils[0], a.utils[0]
	for _, u := range a.utils[1:] {
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	a.uMax, a.uMin = maxU, minU
}

// pickMinIncrement probes every core for its Eq. 15 utilization with ti
// added (lines 5-11 of Algorithm 1) and returns the feasible core with
// the smallest core-utilization increment, ties broken by smaller
// index; -1 if none is feasible.
//
//mc:allocfree the probe loop of Algorithm 1
func (a *allocator) pickMinIncrement(ti int) int {
	best := -1
	bestInc := math.Inf(1)
	for c := 0; c < a.m; c++ {
		// The margin lets the backend skip the full analysis when even
		// its certified utilization floor cannot beat the incumbent
		// increment under the selection's Eps hysteresis; the floor is
		// conservative, so no potential winner is pruned.
		u := a.be.ProbeUtil(c, ti, a.utils[c], bestInc-mc.Eps)
		if math.IsInf(u, 1) {
			continue // infeasible on this core, or pruned
		}
		if inc := u - a.utils[c]; inc < bestInc-mc.Eps {
			best, bestInc = c, inc
		}
	}
	return best
}

// pickLeastLoaded's per-core probe memo states.
const (
	unprobed int8 = iota
	probedFeasible
	probedInfeasible
)

// pickLeastLoaded returns the feasible core with minimum current core
// utilization (the imbalance fallback), or -1: the core an index-order
// scan picks when a feasible core displaces the incumbent only if its
// load is below the incumbent's by more than Eps. Core loads are
// finite: they are the utilizations of committed, schedulable subsets.
//
// It probes in load order instead of index order. First it probes the
// least-loaded unprobed core until one is feasible (load u*): every
// core probed before it is infeasible, and every other core is loaded
// at least u*. Then it grows a chain upward from u*, raising top to
// each next distinct load u while top < u-Eps fails. A feasible core
// above top can never displace a chain core (its load exceeds the
// incumbent's), and every feasible chain core displaces it (u <= top <
// its load - Eps), so the index-order scan over the chain cores alone
// — which holds u*'s core — picks what the scan over every core picks.
// That scan probes each chain core at most once, reusing the verdicts
// of the first phase.
//
//mc:allocfree the imbalance fallback scan over a reused memo
func (a *allocator) pickLeastLoaded(ti int) int {
	verdict := a.verdict
	clear(verdict)
	var top float64
	for {
		c := -1
		for d, v := range verdict {
			if v == unprobed && (c < 0 || a.utils[d] < a.utils[c]) {
				c = d
			}
		}
		if c < 0 {
			return -1 // every core is infeasible
		}
		if a.probe(c, ti) {
			verdict[c] = probedFeasible
			top = a.utils[c]
			break
		}
		verdict[c] = probedInfeasible
	}
	for {
		next := math.Inf(1)
		for _, u := range a.utils {
			if u > top && u < next {
				next = u
			}
		}
		if top < next-mc.Eps {
			break
		}
		top = next
	}
	best := -1
	bestU := math.Inf(1)
	for c, u := range a.utils {
		if u > top || u >= bestU-mc.Eps {
			continue
		}
		if verdict[c] == unprobed {
			verdict[c] = probedInfeasible
			if a.probe(c, ti) {
				verdict[c] = probedFeasible
			}
		}
		if verdict[c] == probedFeasible {
			best, bestU = c, u
		}
	}
	return best
}

// probe reports whether core c can take ti, through the plain
// ProbeUtil so the backend may reuse the analysis on Place.
//
//mc:allocfree one unpruned backend probe
func (a *allocator) probe(c, ti int) bool {
	return !math.IsInf(a.be.ProbeUtil(c, ti, 0, math.Inf(1)), 1)
}

// finishInto assembles the run's Result into r, reusing r's storage.
//
//mc:allocfree refills the Result's amortized slices
func (a *allocator) finishInto(r *Result) {
	r.Scheme = a.scheme
	r.Backend = a.be.Name()
	r.M, r.K = a.m, a.k
	r.Feasible = a.failed < 0
	r.FailedTask = a.failed
	r.Assignment = append(r.Assignment[:0], a.assign...)
	if cap(r.Cores) < a.m {
		r.Cores = make([]CoreInfo, a.m)
	} else {
		r.Cores = r.Cores[:a.m]
	}
	for c := 0; c < a.m; c++ {
		ci := &r.Cores[c]
		ci.Tasks = append(ci.Tasks[:0], a.tasks[c]...)
		a.be.ReportInto(c, ci)
		ci.OwnLevelLoad = a.be.OwnLoad(c)
	}
	if len(a.trace) > 0 {
		r.Trace = append(r.Trace[:0], a.trace...)
	} else {
		r.Trace = nil
	}
	r.finishMetrics()
}

// evaluate computes the cheap Eval summary: the same per-core
// utilizations the full Result would report, folded with the exact
// arithmetic of Result.finishMetrics, but without materializing
// per-core task lists or lambda vectors.
//
//mc:allocfree folds backend utilizations into a value
func (a *allocator) evaluate() Eval {
	ev := Eval{Feasible: a.failed < 0, FailedTask: a.failed}
	maxU, minU, sum := math.Inf(-1), math.Inf(1), 0.0
	for c := 0; c < a.m; c++ {
		u := a.be.CoreUtil(c)
		sum += u
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	ev.Usys = maxU
	ev.Uavg = sum / float64(a.m)
	if maxU > mc.Eps {
		ev.Imbalance = (maxU - minU) / maxU
	}
	return ev
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
