package partition

import (
	"fmt"

	"catpa/internal/mc"
)

// The online admission session: the API the ROADMAP's online scenario
// needs, built directly on the Backend delta contract. A session
// replaces the batch sweep's "re-partition everything per arrival"
// with O(1)-per-level delta commits on admission and the backend's
// removal delta on release (a replay or a partial recompute of the
// touched core, see Release), so admitting or releasing one task costs
// one pick scan plus one delta — independent of how many tasks are
// already placed.
//
// Protocol: StartIncremental installs the task universe and the pick
// rule, then any interleaving of Admit and Release follows. Admit uses
// exactly the per-task core selection the batch scheme would apply at
// that point — so a session that admits tasks in a batch run's
// allocation order commits bitwise the batch run's placements — and a
// failed Admit leaves the session unchanged, which is the load-shedding
// behavior an admission controller wants. Summarize reads the committed
// state at any point; its Feasible is true by construction (only
// schedulable placements are ever committed).

// StartIncremental begins an online admission session over ts with the
// given scheme's pick rule and options. It performs the same per-set
// preparation as a batch run (utilization rows, cleared cores) and
// leaves every task unassigned; the caller then drives Admit/Release
// by task index. Any batch entry point (Run, or Prepare with
// Place/Summarize) may be called afterwards — it re-prepares and clears the session —
// and vice versa, so pooled Partitioners can interleave both modes.
//
//mc:allocfree per-set preparation into amortized storage
func (p *Partitioner) StartIncremental(ts *mc.TaskSet, scheme Scheme, opts *Options) {
	p.a.prepSet(ts)
	p.a.clearRun(scheme, opts)
}

// Admit places task ti (an index into the session's task set) with the
// session scheme's pick rule — one per-task step of Algorithm 1, core
// selection plus the per-core schedulability screens — and commits the
// placement as an O(1) delta, returning the chosen core and true. When
// no core can accommodate the task it returns (-1, false) and the
// committed state is untouched — the task may be retried later, e.g.
// after a Release. Admitting a task that is already admitted panics.
//
//mc:allocfree one pick scan plus one delta commit; panic paths exempt
func (p *Partitioner) Admit(ti int) (int, bool) {
	a := &p.a
	if a.ts == nil {
		panic("partition: Admit before StartIncremental")
	}
	if ti < 0 || ti >= len(a.assign) {
		panic(fmt.Sprintf("partition: Admit(%d): task index out of range", ti))
	}
	if a.assign[ti] >= 0 {
		panic(fmt.Sprintf("partition: Admit(%d): task already admitted on core %d", ti, a.assign[ti]))
	}
	c := a.pick(ti)
	if c < 0 {
		if a.opts.trace() {
			a.trace = append(a.trace, Step{Task: ti, Core: -1})
		}
		return -1, false
	}
	a.place(ti, c)
	return c, true
}

// Release removes admitted task ti from its core and returns that
// core: the removal delta of the online protocol. The backend restores
// the core's analysis to bitwise the state a session that never
// admitted ti would hold — edfvd by replaying the survivors in
// placement order, amcrtb by recomputing only the responses the
// removal can change — and the core's cached loads are refreshed from
// it. Releasing a task that is
// not admitted panics. Release appends no trace step.
//
//mc:allocfree one delta removal plus cached-scalar refreshes; panic path exempt
func (p *Partitioner) Release(ti int) int {
	a := &p.a
	if a.ts == nil {
		panic("partition: Release before StartIncremental")
	}
	if ti < 0 || ti >= len(a.assign) || a.assign[ti] < 0 {
		panic(fmt.Sprintf("partition: Release(%d): task not admitted", ti))
	}
	c := a.assign[ti]
	a.be.Remove(c, ti)
	mem := a.tasks[c]
	for i := len(mem) - 1; i >= 0; i-- {
		if mem[i] == ti {
			copy(mem[i:], mem[i+1:])
			a.tasks[c] = mem[:len(mem)-1]
			break
		}
	}
	a.assign[ti] = -1
	a.ownLoad[c] = a.be.OwnLoad(c)
	if a.scheme == CATPA || a.opts.trace() {
		// Mirror place's cache discipline: schemes that keep utils
		// current see the post-removal committed analysis.
		prev := a.utils[c]
		a.utils[c] = a.be.CoreUtil(c)
		a.bumpUtil(prev, a.utils[c])
	}
	return c
}

// Assigned returns the core task ti is currently admitted on, or -1.
// It reads the same assignment a batch Result would report.
//
//mc:allocfree slice read; panic path exempt
func (p *Partitioner) Assigned(ti int) int {
	a := &p.a
	if ti < 0 || ti >= len(a.assign) {
		panic(fmt.Sprintf("partition: Assigned(%d): task index out of range", ti))
	}
	return a.assign[ti]
}

// pick resolves the scheme's per-task core selection, or -1 when no
// core can take ti — the one rule the batch placement pass and Admit
// both apply, so the two cannot drift apart. Each scheme has its own
// scan loop, so the per-core iteration carries no scheme dispatch.
//
//mc:allocfree dispatches to the per-scheme pick scans
func (a *allocator) pick(ti int) int {
	switch a.scheme {
	case FFD:
		return a.pickFFD(ti)
	case BFD:
		return a.pickBFD(ti)
	case WFD:
		return a.pickWFD(ti)
	case Hybrid:
		// High-criticality tasks spread with WFD, low-criticality ones
		// pack with FFD (Rodriguez et al.).
		if a.ts.Tasks[ti].Crit >= 2 {
			return a.pickWFD(ti)
		}
		return a.pickFFD(ti)
	case CATPA:
		if a.imbalance() > a.opts.alpha() {
			return a.pickLeastLoaded(ti)
		}
		return a.pickMinIncrement(ti)
	}
	panic(fmt.Sprintf("partition: unknown scheme %v", a.scheme))
}
