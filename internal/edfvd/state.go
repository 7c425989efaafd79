package edfvd

import "math"

// State is the incremental scalar form of one core's Theorem-1
// analysis inputs: instead of re-reading a K x K utilization matrix on
// every query, it maintains exactly the aggregate sums the analysis
// consumes — each a single float updated in O(1) per criticality level
// when a task is added. The whole Theorem-1 ladder (the Eq. 4 accept,
// the O(1) overload reject, the Eq. 6 lambda recursion and the Eq. 5/8
// condition scan) then runs in O(K) per query instead of O(K^2), and
// probe queries touch no per-task storage at all.
//
// Delta discipline (the bit-identity contract the differential fuzz
// gates prove): every probed query evaluates `cached + urow[...]` with
// exactly the float operations Add performs on commit, so the value a
// probe reports for "subset plus this task" is bitwise the value the
// committed state reports after Add of the same task. A full recompute
// — Clear followed by Add of the members in placement order — replays
// the identical operations and therefore reproduces the identical
// state, which is what makes the exact-recompute fallback after
// removals sound.
//
// The zero value is unusable; call Reset first. A State belongs to one
// core of one backend and is not safe for concurrent use.
type State struct {
	k int
	n int

	// own[j-1] = U_j(j), the own-level utilization sums (the matrix
	// diagonal). own[K-1] is the Eq. 5 min-term numerator U_K(K).
	own []float64

	// ownSum = sum_j U_j(j), the Eq. 4 own-level load.
	ownSum float64

	// ownTail[i-1] = sum_{x=i}^{K-1} U_x(x): the top-down prefix the
	// Eq. 5 mu(i) accumulation needs, i = 1..K-1. Empty for K = 1.
	ownTail []float64

	// colTail[c-1] = sum_{x=c+1}^{K} U_x(c): the Eq. 6 lambda_{c+1}
	// numerator sums, c = 1..K-1. Empty for K = 1.
	colTail []float64

	// ukk1 = U_K(K-1), the second Eq. 5 min-term input. 0 for K = 1.
	ukk1 float64

	// buf is the contiguous backing array the three sum vectors above
	// are carved from (see Reset).
	buf []float64

	// mtVal caches the committed Eq. 5 min term when mtOK — a pure
	// function of own[K-1] and ukk1, so it is invalidated by Add and
	// Clear and shared by every probe whose candidate level is below K
	// (their virtual add leaves both min-term inputs untouched).
	mtVal float64
	mtOK  bool
}

// Reset re-dimensions the state for k criticality levels and clears
// it, reusing storage when the dimensions allow. The three sum vectors
// are carved out of one contiguous backing array — 3K-2 floats, one or
// two cache lines for practical K — so a whole query's reads stay
// local.
func (s *State) Reset(k int) {
	buf := resize(s.buf, 3*k-2)
	s.ResetSlab(k, buf)
}

// ResetSlab is Reset with caller-provided backing storage: the three
// sum vectors are carved from buf, which must hold at least 3K-2
// floats that the caller does not otherwise touch. Backends use it to
// pack every core's state into one contiguous slab, so a scan probing
// all cores in turn walks a few consecutive cache lines instead of
// m scattered allocations.
func (s *State) ResetSlab(k int, buf []float64) {
	s.k = k
	s.buf = buf[0 : 3*k-2]
	s.own = buf[0:k:k]
	s.ownTail = buf[k : 2*k-1 : 2*k-1]
	s.colTail = buf[2*k-1 : 3*k-2 : 3*k-2]
	s.Clear()
}

// Clear empties the core: all sums to zero, bitwise the state of a
// freshly Reset core.
//
//mc:allocfree zeroes amortized storage
func (s *State) Clear() {
	s.n = 0
	s.ownSum = 0
	s.ukk1 = 0
	s.mtOK = false
	for i := range s.own {
		s.own[i] = 0
	}
	for i := range s.ownTail {
		s.ownTail[i] = 0
	}
	for i := range s.colTail {
		s.colTail[i] = 0
	}
}

// K returns the configured criticality-level count.
//
//mc:allocfree accessor
func (s *State) K() int { return s.k }

// Len returns the number of accumulated tasks.
//
//mc:allocfree accessor
func (s *State) Len() int { return s.n }

// OwnLoad returns the committed Eq. 4 own-level load sum_j U_j(j).
//
//mc:allocfree accessor
func (s *State) OwnLoad() float64 { return s.ownSum }

// Add commits one task of criticality crit with precomputed
// utilization row urow (Task.UtilRow) to the core: the O(1)-per-level
// delta update. Each cached sum receives exactly one addition of the
// row entry a query's probed read would have added, so post-Add
// committed queries are bitwise identical to the pre-Add probed
// queries for the same task.
//
//mc:allocfree scalar additions into amortized storage
func (s *State) Add(crit int, urow []float64) {
	k := s.k
	u := urow[crit-1]
	s.own[crit-1] += u
	s.ownSum += u
	if crit <= k-1 {
		// ownTail[i-1] covers x = i..K-1: row crit lands in every tail
		// with i <= crit.
		for i := 0; i < crit; i++ {
			s.ownTail[i] += u
		}
	}
	// colTail[c-1] covers rows x = c+1..K: row crit lands in every
	// column c <= crit-1.
	for c := 0; c < crit-1; c++ {
		s.colTail[c] += urow[c]
	}
	if crit == k && k >= 2 {
		s.ukk1 += urow[k-2]
		s.mtOK = false
	}
	s.n++
}

// minTermWith returns the Eq. 5 min term
// min{ U_K(K), U_K(K-1)/(1 - U_K(K)) } of the subset with a task of
// criticality crit virtually added (crit = 0: the committed subset).
// Requires K >= 2.
//
//mc:allocfree pure arithmetic behind a scalar cache
func (s *State) minTermWith(crit int, urow []float64) float64 {
	k := s.k
	if crit != k {
		// The virtual add leaves both min-term inputs untouched:
		// return the committed value, computed at most once per Add.
		if !s.mtOK {
			s.mtVal = minTerm(s.own[k-1], s.ukk1)
			s.mtOK = true
		}
		return s.mtVal
	}
	return minTerm(s.own[k-1]+urow[k-1], s.ukk1+urow[k-2])
}

// fastGuard is the margin the O(1) overload reject keeps beyond Eps so
// that it can never contradict the full condition scan: the Eq. 5 min
// term bounds every mu(k) from below and every theta(k) is at most 1,
// so U_{K-1}(K-1) + minTerm clearly above 1 rules out every Theorem-1
// condition, and the rounding difference between that mu(K-1) and any
// mu(k) the scan accumulates is a few ulps, orders of magnitude below
// this band.
const fastGuard = 1e-12

// minTerm is the Eq. 5 term min{ U_K(K), U_K(K-1)/(1 - U_K(K)) }.
//
//mc:allocfree pure arithmetic
func minTerm(ukk, ukk1 float64) float64 {
	mt := ukk
	if 1-ukk > Eps {
		if frac := ukk1 / (1 - ukk); frac < mt {
			mt = frac
		}
	}
	return mt
}

// SimpleFeasibleWith reports the Eq. 4 sufficient condition — own-level
// load at most 1 — for the subset with one task of criticality crit
// and utilization row urow virtually added. O(1).
//
//mc:allocfree one add and one compare
func (s *State) SimpleFeasibleWith(crit int, urow []float64) bool {
	return s.ownSum+urow[crit-1] <= 1+Eps
}

// UtilFloorWith returns a certified lower bound on the Eq. 9 core
// utilization of the virtually probed subset, or -Inf
// when K < 2: any holding condition has theta(k) <= 1 and
// mu(k) >= mu(K-1), so core utilization is at least mu(K-1); a 1e-11
// band covers the summation rounding. O(1).
//
//mc:allocfree pure arithmetic
func (s *State) UtilFloorWith(crit int, urow []float64) float64 {
	k := s.k
	if k < 2 {
		return math.Inf(-1)
	}
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	return own1 + s.minTermWith(crit, urow) - 1e-11
}

// FeasibleWith reports the Theorem-1 verdict for the subset with a
// task of criticality crit and utilization row urow virtually added,
// without mutating anything: the full ladder in O(K). The lambda
// recursion stops at the first holding condition or the first invalid
// factor, exactly like the committed analysis scan. The O(1) overload
// reject (see fastGuard) runs first, sharing the min-term computation,
// so callers need not screen separately.
//
//mc:allocfree scalar reads and a fixed-depth recursion
func (s *State) FeasibleWith(crit int, urow []float64) bool {
	k := s.k
	if k == 1 {
		u := s.own[0]
		if crit == 1 {
			u += urow[0]
		}
		return u <= 1+Eps
	}
	minTerm := s.minTermWith(crit, urow)
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	if own1+minTerm > 1+Eps+fastGuard {
		return false // the O(1) overload reject
	}
	// The Eq. 6 recursion of lambdaStep, unrolled in place with
	// identical float operations in identical order. Its running product
	// prod_{x<j} (1 - lambda_x) is bitwise theta of condition j-1 (both
	// are the same chain of multiplies from 1*(1-0)), so one accumulator
	// carries both. Condition 1 (i = 0) has theta = 1.
	n := k - 1
	own, colTail, ownTail := s.own[:n], s.colTail[:n], s.ownTail[:n]
	theta := 1.0
	for i := 0; i < n; i++ {
		if i > 0 {
			if theta <= Eps {
				return false
			}
			num := colTail[i-1]
			if crit > i {
				num += urow[i-1]
			}
			dd := own[i-1]
			if crit == i {
				dd += urow[i-1]
			}
			rem := theta - dd
			if rem <= Eps*theta {
				return false
			}
			l := num / rem
			if l < 0 || l >= 1 {
				return false
			}
			theta *= 1 - l
		}
		tail := ownTail[i]
		if crit > i && crit <= n {
			tail += urow[crit-1]
		}
		if theta-(tail+minTerm) >= -Eps {
			return true
		}
	}
	return false
}

// muWith returns mu(cond) of the virtually probed subset: the cached
// own-level tail plus the probe's own-level entry (when its level lies
// in the tail) plus the min term, associated exactly as the committed
// read after Add would be.
//
//mc:allocfree pure arithmetic
func (s *State) muWith(cond int, minTerm float64, crit int, urow []float64) float64 {
	tail := s.ownTail[cond-1]
	if crit >= cond && crit <= s.k-1 {
		tail += urow[crit-1]
	}
	return tail + minTerm
}

// lambdaStep advances the Eq. 6 recursion from lambda_{j-1} to
// lambda_j (j = cond >= 2) on the virtually probed subset, returning
// the new factor and running product. ok is false when the factor is
// invalid (denominator at most 0, vanished product, or value outside
// [0, 1)) — which poisons every later theta exactly as in the
// committed analysis.
//
//mc:allocfree pure arithmetic
func (s *State) lambdaStep(j int, lambda, prod float64, crit int, urow []float64) (float64, float64, bool) {
	prod *= 1 - lambda
	if prod <= Eps {
		return 0, prod, false
	}
	num := s.colTail[j-2]
	if crit >= j {
		num += urow[j-2]
	}
	dd := s.own[j-2]
	if crit == j-1 {
		dd += urow[j-2]
	}
	// Multiply Eq. 6 through by P: (num/P) / (1 - dd/P) = num/(P - dd),
	// one division instead of three. The denominator-validity test
	// 1 - dd/P <= Eps becomes P - dd <= Eps*P (P > 0 here).
	rem := prod - dd
	if rem <= Eps*prod {
		return 0, prod, false
	}
	l := num / rem
	if l < 0 || l >= 1 {
		return l, prod, false
	}
	return l, prod, true
}

// ProbeEval is the scalar analysis summary of one probed (or
// committed) subset: the Eq. 9 core utilization and the smallest
// holding Theorem-1 condition. It is the value a
// minimum-increment probe needs and the value a backend Place commits.
type ProbeEval struct {
	// CoreUtil is U^Psi per Eq. 9 (+Inf when no condition holds).
	CoreUtil float64
	// FeasibleK is the smallest holding condition level, or 0.
	FeasibleK int
}

// EvalWith analyzes the subset with a task of criticality crit and row
// urow virtually added (crit = 0, urow = nil: the committed subset)
// and fills ev. O(K); nothing is mutated. The O(1) overload reject
// runs first — when it fires, no condition can hold and ev gets the
// infeasible analysis — so callers need not screen separately.
//
//mc:allocfree fills a caller-owned scalar struct
func (s *State) EvalWith(crit int, urow []float64, ev *ProbeEval) {
	k := s.k
	if k == 1 {
		u := s.own[0]
		if crit == 1 {
			u += urow[0]
		}
		if u <= 1+Eps {
			*ev = ProbeEval{CoreUtil: u, FeasibleK: 1}
		} else {
			ev.setInfeasible()
		}
		return
	}
	minTerm := s.minTermWith(crit, urow)
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	if own1+minTerm > 1+Eps+fastGuard {
		ev.setInfeasible() // the O(1) overload reject: nothing holds
		return
	}
	s.evalScan(crit, urow, minTerm, ev)
}

// setInfeasible fills ev with the analysis of a subset no condition
// holds for.
//
//mc:allocfree two scalar stores
func (ev *ProbeEval) setInfeasible() {
	*ev = ProbeEval{CoreUtil: math.Inf(1)}
}

// evalScan is the condition scan of EvalWith, after the k == 1 head,
// the overload fast-reject and the min-term computation. It runs
// FeasibleWith's recursion without the early accept, collecting the
// smallest holding condition and the Eq. 9 utilization in locals, and
// writes ev once.
//
//mc:allocfree scalar reads and a fixed-depth recursion
func (s *State) evalScan(crit int, urow []float64, minTerm float64, ev *ProbeEval) {
	// An invalid factor poisons every later condition, so the scan stops
	// there (the skipped iterations contribute nothing).
	n := s.k - 1
	own, colTail, ownTail := s.own[:n], s.colTail[:n], s.ownTail[:n]
	theta := 1.0
	feasibleK := 0
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		if i > 0 {
			if theta <= Eps {
				break
			}
			num := colTail[i-1]
			if crit > i {
				num += urow[i-1]
			}
			dd := own[i-1]
			if crit == i {
				dd += urow[i-1]
			}
			rem := theta - dd
			if rem <= Eps*theta {
				break
			}
			l := num / rem
			if l < 0 || l >= 1 {
				break
			}
			theta *= 1 - l
		}
		tail := ownTail[i]
		if crit > i && crit <= n {
			tail += urow[crit-1]
		}
		if a := theta - (tail + minTerm); a >= -Eps {
			if feasibleK == 0 {
				feasibleK = i + 1
			}
			u := 1 - a
			if u < best {
				best = u
			}
		}
	}
	if feasibleK == 0 {
		ev.setInfeasible()
		return
	}
	*ev = ProbeEval{CoreUtil: best, FeasibleK: feasibleK}
}

// ProbeBoundedWith is EvalWith behind the certified UtilFloorWith
// prune, folded into one scalar head: when floor - base >= margin the
// probed subset cannot beat the incumbent minimum-increment candidate,
// so the analysis is skipped — ev is left untouched and the call
// returns false. Otherwise ev receives exactly EvalWith's analysis and
// the call returns true. The prune comparison and the analysis perform
// bitwise the operations of UtilFloorWith followed by EvalWith, so a
// caller testing `UtilFloorWith - base >= margin` before EvalWith gets
// identical outcomes with the min term and the Eq. 5 head computed
// once instead of twice.
//
//mc:allocfree one fused scalar head plus the EvalWith scan
func (s *State) ProbeBoundedWith(crit int, urow []float64, base, margin float64, ev *ProbeEval) bool {
	k := s.k
	if k == 1 {
		// UtilFloorWith is -Inf for K < 2: the prune can never fire.
		s.EvalWith(crit, urow, ev)
		return true
	}
	minTerm := s.minTermWith(crit, urow)
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	if own1+minTerm-1e-11-base >= margin {
		return false
	}
	if own1+minTerm > 1+Eps+fastGuard {
		ev.setInfeasible() // the overload reject
		return true
	}
	s.evalScan(crit, urow, minTerm, ev)
	return true
}

// Eval analyzes the committed subset into ev. O(K).
//
//mc:allocfree delegates to EvalWith
func (s *State) Eval(ev *ProbeEval) {
	s.EvalWith(0, nil, ev)
}

// ReportInto fills r with the full committed analysis — the lambda
// vector with validity flags, mu/theta/availability per condition, the
// smallest holding condition and the Eq. 9 utilization — in O(K),
// reusing r's storage. The Report layout matches AnalyzeInto's; the
// sums behind the scalar fields are the delta-maintained ones, so the
// values are bitwise those of every other State query.
//
//mc:allocfree report slices reused at capacity
func (s *State) ReportInto(r *Report) {
	k := s.k
	r.K = k
	r.Lambda = resize(r.Lambda, k)
	r.LambdaOK = resizeBool(r.LambdaOK, k)
	r.Mu = resize(r.Mu, k-1)
	r.Theta = resize(r.Theta, k-1)
	r.Avail = resize(r.Avail, k-1)
	r.FeasibleK = 0
	r.CoreUtil = math.Inf(1)

	if k == 1 {
		u := s.own[0]
		if u <= 1+Eps {
			r.FeasibleK = 1
			r.CoreUtil = u
		}
		return
	}

	minTerm := s.minTermWith(0, nil)
	r.Lambda[0], r.LambdaOK[0] = 0, true
	lambda := 0.0
	prod := 1.0
	valid := true
	for j := 2; j <= k; j++ {
		if !valid {
			r.Lambda[j-1], r.LambdaOK[j-1] = math.NaN(), false
			continue
		}
		var l float64
		l, prod, valid = s.lambdaStep(j, lambda, prod, 0, nil)
		if !valid {
			// lambdaStep reports the out-of-range value itself (and 0
			// for the structural failures, where lambdas records NaN).
			//lint:ignore mclint/floateq deliberately exact: 0 is lambdaStep's structural-failure sentinel, never a computed recursion value (those are < 0 or >= 1 on failure)
			if l == 0 {
				l = math.NaN()
			}
			r.Lambda[j-1], r.LambdaOK[j-1] = l, false
			continue
		}
		lambda = l
		r.Lambda[j-1], r.LambdaOK[j-1] = l, true
	}

	theta := 1.0
	valid = true
	bestUtil := math.Inf(1)
	for cond := 1; cond <= k-1; cond++ {
		r.Mu[cond-1] = s.muWith(cond, minTerm, 0, nil)
		if valid && r.LambdaOK[cond-1] {
			theta *= 1 - r.Lambda[cond-1]
		} else {
			valid = false
		}
		if !valid {
			r.Theta[cond-1] = math.Inf(-1)
			r.Avail[cond-1] = math.Inf(-1)
			continue
		}
		r.Theta[cond-1] = theta
		a := theta - r.Mu[cond-1]
		r.Avail[cond-1] = a
		if a >= -Eps {
			if r.FeasibleK == 0 {
				r.FeasibleK = cond
			}
			u := 1 - a
			if u < bestUtil {
				bestUtil = u
			}
		}
	}
	if r.FeasibleK > 0 {
		r.CoreUtil = bestUtil
	}
}
