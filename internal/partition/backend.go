package partition

import (
	"fmt"

	"catpa/internal/fpamc"
	"catpa/internal/mc"
)

// Backend is the per-core schedulability oracle the allocator consults
// — the seam of Algorithm 1, which treats "does the subset stay
// schedulable" and "what does adding this task cost" as questions the
// analysis answers, independent of the heuristic asking them. This
// package adapts exactly two analyses to it, the EDF-VD Theorem-1
// analysis (internal/edfvd, the paper's setting) and the AMC-rtb
// response-time analysis (internal/fpamc), so every heuristic —
// including CA-TPA — runs atop either through the one allocation
// shell.
//
// The protocol mirrors the allocator's allocation-free discipline:
// FeasibleWith and ProbeUtil are virtual (they must not mutate
// committed core state), every method passes only scalars
// across the interface boundary, and implementations are expected to
// reuse internal storage so steady-state runs stay free of heap
// allocations (both the EDF-VD and the AMC-rtb backends run at 0
// allocs/op, pinned by TestHotPathAllocFree and TestSessionAllocFree).
// A Backend is owned by exactly one Partitioner and is not safe for
// concurrent use.
//
// Call order per run: Reset (dimensions), Prepare (task set), Begin
// (clear cores), then any interleaving of the virtual queries with
// Place / Remove commits, then CoreUtil / ReportInto reads. The
// backend owns the reuse of its probe analyses: Place(c, ti) commits
// the analysis of an unpruned ProbeUtil(c, ti, ...) when core c has
// not changed since that probe, and re-analyzes otherwise, so the
// caller never has to say which probe won.
//
// Incremental delta contract (DESIGN.md Section 14). Backends maintain
// per-core analysis state under delta updates: Place folds one task
// into cached per-core sums (or response times) in O(1) per
// criticality level, independent of how many tasks the core already
// holds, and every virtual query answers from those cached values plus
// the candidate's row. Remove deletes a committed task again; when the
// exact O(1) delta is unavailable (floating-point subtraction is not
// an exact inverse of addition), the backend marks the core and falls
// back to an exact recompute — replaying the surviving members'
// deltas in placement order — before the next query that reads it.
// Reanalyze forces that fallback unconditionally; it is the reference
// path the differential gates (FuzzIncrementalAgreement, the delta
// unit tests) compare the incremental path against. Bit-identity
// invariant: a
// query on a core must return bitwise the same value whether the
// core's state was built incrementally, restored by an exact undo, or
// rebuilt through Reanalyze.
type Backend interface {
	// Name returns the backend's name, as NewBackend takes it (e.g.
	// "edfvd").
	Name() string

	// MaxLevels returns the largest supported criticality-level count,
	// or 0 when unbounded. Reset panics when k exceeds it.
	MaxLevels() int

	// Reset re-dimensions the per-core state for m cores and k levels,
	// reusing storage where the dimensions allow.
	Reset(m, k int)

	// Prepare installs ts for a batch of runs and performs per-set
	// precomputation (e.g. utilization rows). The set must satisfy the
	// backend's criticality bound.
	Prepare(ts *mc.TaskSet)

	// Begin clears all per-core state for one allocation pass over the
	// prepared set.
	Begin()

	// FeasibleWith reports whether core c stays schedulable when task
	// ti is added — the virtual per-core test of Algorithm 1 used by
	// the classical schemes. It must not mutate committed state.
	//
	// It is a method of its own, not ProbeUtil(c, ti, 0, +Inf)
	// compared with +Inf, because a verdict can stop early: the EDF-VD
	// backend accepts on the O(1) Eq. 4 sum and exits at the first
	// holding Theorem-1 condition, where ProbeUtil must scan them all.
	// Routing the classical scans through ProbeUtil made
	// BenchmarkFig1_NSU 18-46% slower (DESIGN.md Section 14).
	FeasibleWith(c, ti int) bool

	// ProbeUtil returns the core-utilization metric of core c with
	// task ti added (Eq. 15's U^{Psi_c + tau_i}), or +Inf when the
	// extended subset is infeasible.
	//
	// base and margin bound the probe for Algorithm 1's
	// minimum-increment search: when the backend's certified lower
	// bound floor on the answer satisfies floor - base >= margin, the
	// probe cannot beat the incumbent and ProbeUtil returns +Inf
	// without running the analysis, leaving the previous probe's
	// cached analysis in place. Any unpruned answer is
	// bitwise the margin = +Inf answer; callers that want the plain
	// probe pass base 0 and margin +Inf. An unpruned probe's analysis
	// may be cached for a following Place of the same (c, ti).
	ProbeUtil(c, ti int, base, margin float64) float64

	// Place commits task ti to core c. When an unpruned ProbeUtil(c,
	// ti, ...) ran since core c last changed, the backend may commit
	// that probe's analysis instead of re-analyzing; either way the
	// committed state is bitwise the same.
	Place(c, ti int)

	// Remove deletes committed task ti from core c: the removal delta
	// of the online admit/release protocol. Implementations undo the
	// placement exactly — bitwise — by scheduling a recompute over the
	// core's surviving members (all of it, or only the state the
	// removal can change), which runs before the next query on c that
	// reads that state. Removing a task that is not committed on c
	// panics.
	Remove(c, ti int)

	// Reanalyze discards core c's incremental analysis state and
	// rebuilds it from the committed members — the exact-recompute
	// fallback path, exposed so differential gates can force it and
	// compare the incremental path against it.
	Reanalyze(c int)

	// OwnLoad returns core c's own-level load (the Eq. 4 measure the
	// classical schemes compare cores by).
	OwnLoad(c int) float64

	// CoreUtil returns the committed core-utilization metric of core c
	// (Eq. 9), lazily analyzing the core's subset if no cached
	// analysis is current.
	CoreUtil(c int) float64

	// ReportInto fills the analysis-derived fields of ci — Util,
	// FeasibleK and Lambda — for core c's committed subset, reusing
	// ci's storage.
	ReportInto(c int, ci *CoreInfo)
}

// DefaultBackend is the name of the paper's EDF-VD Theorem-1 backend,
// the default of New and of every sweep.
const DefaultBackend = "edfvd"

// NewBackend returns a fresh instance of the named backend: the
// EDF-VD Theorem-1 analysis (DefaultBackend) or the AMC-rtb
// response-time analysis (fpamc.BackendName). The set is closed; a new
// backend is one adapter file in this package plus one case here.
func NewBackend(name string) (Backend, error) {
	switch name {
	case DefaultBackend:
		return &edfvdBackend{}, nil
	case fpamc.BackendName:
		return &amcrtbBackend{}, nil
	}
	return nil, fmt.Errorf("partition: unknown backend %q (registered: %v)", name, BackendNames())
}

// BackendNames returns the names of the available backends, sorted.
func BackendNames() []string {
	return []string{fpamc.BackendName, DefaultBackend}
}
