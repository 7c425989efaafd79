package serve

import (
	"fmt"
	"math"

	"catpa/internal/mc"
)

// ScreenVerdict is the outcome of the probe-only utilization screen.
type ScreenVerdict int

const (
	// ScreenUncertain: no necessary condition is violated; only a full
	// backend analysis can decide.
	ScreenUncertain ScreenVerdict = iota
	// ScreenReject: a necessary feasibility condition fails, so no
	// partition of the set passes any backend's per-core analysis —
	// a certified reject.
	ScreenReject
)

// Screen is the daemon's O(N·K) utilization screen, in the spirit of
// the edfvd State's certified utilization floor and overload reject,
// built only from conditions that are *necessary* for per-core
// schedulability under both analysis backends. It therefore only
// ever rejects sets the full analysis would reject too, under every
// scheme: the full path answers its rejects without running the
// analysis, and the load-shedding tier can answer "rejected" soundly
// and must answer "uncertain" otherwise. The differential
// screen-soundness test (screen_test.go) proves the subset property
// against both backends across every scheme.
//
// Conditions, each implied by "some partition onto m unit-speed cores
// keeps every core's mode-j utilization U_c(j) at most 1+tol" (mode-j
// demand on a core includes every task of criticality at least j at
// its level-j budget):
//
//  1. the level-j total utilization U(j) (Eq. 2) exceeds m·(1+tol)
//     for some j — pigeonhole: some core's U_c(j) exceeds 1+tol;
//  2. more than m tasks of criticality at least j have level-j
//     utilization above (1+tol)/2 for some j — any two such tasks
//     sharing a core push its U_c(j) past 1+tol, so they need more
//     than m cores.
//
// tol is the widest band above 1 in which some backend still accepts
// a core:
//
//   - EDF-VD compares its utilization conditions with their bounds at
//     absolute tolerance Eps, which admits U_c(j) up to 1+Eps;
//   - AMC-rtb rejects every core with U_c(j) > 1+δ, δ = 4·Eps/minC + 4η
//     and η = (3n+8)·2^-53, for minC > 2·Eps (the derivation of the
//     fpamc utilization screen, DESIGN §14); for smaller budgets no
//     band is known, so the screen certifies nothing.
//
// tol = max(2·Eps, δ) covers both: summed over m cores, an accepted
// partition has U(j) ≤ m·(1+tol), with Eps·m to spare for the float
// rounding of the set-wide sum, whose n terms err by at most n·2^-53
// relative. The band matters: four level-1 tasks of utilization
// 0.5+3e-10 fill two EDF-VD cores at 1+6e-10 each, so a plain
// U(j) > m test would reject a set the analysis admits.
//
// A third classical condition — a single task whose own-level
// utilization exceeds 1 — needs no check here: mc.Task.Validate
// already rejects such tasks, and every set reaching the screen has
// been validated.
func Screen(ts *mc.TaskSet, m, k int) (ScreenVerdict, string) {
	n := ts.Len()
	minC := math.Inf(1)
	for i := range ts.Tasks {
		minC = math.Min(minC, ts.Tasks[i].C(1))
	}
	if !(minC > 2*mc.Eps) {
		return ScreenUncertain, ""
	}
	tol := math.Max(2*mc.Eps, 4*mc.Eps/minC+4*float64(3*n+8)*0x1p-53)
	for j := 1; j <= k; j++ {
		if u := ts.TotalUtilAt(j); u > float64(m)*(1+tol) {
			return ScreenReject, fmt.Sprintf("level-%d utilization %.4f exceeds the platform capacity m=%d", j, u, m)
		}
		heavy := 0
		for i := range ts.Tasks {
			t := &ts.Tasks[i]
			if t.Crit >= j && t.Util(j) > (1+tol)/2 {
				heavy++
			}
		}
		if heavy > m {
			return ScreenReject, fmt.Sprintf("%d tasks with level-%d utilization above 1/2 cannot share m=%d cores", heavy, j, m)
		}
	}
	return ScreenUncertain, ""
}

// String renders the verdict for logs and tests.
func (v ScreenVerdict) String() string {
	switch v {
	case ScreenUncertain:
		return "uncertain"
	case ScreenReject:
		return "reject"
	default:
		return fmt.Sprintf("ScreenVerdict(%d)", int(v))
	}
}
