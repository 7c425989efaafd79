package edfvd

import (
	"math"
	"math/rand"
	"testing"

	"catpa/internal/mc"
)

// The State differential wall. Two layers, with different strictness:
//
//   - State vs State must be bitwise: a probed query (EvalWith,
//     ProbeBoundedWith) must leave exactly the readings the committed
//     query reports after the corresponding Add, and ReportInto's
//     lambdaStep recursion must reproduce them. This is the Backend
//     delta contract's bit-identity invariant at the State seam.
//   - State vs the matrix analysis (AnalyzeInto on the subset with the
//     candidate physically added) must agree on every verdict and on
//     every reading up to accumulation order: the two representations
//     sum the same utilizations along different association orders, so
//     floats are compared with a tolerance, verdicts exactly.

// approxEq is the cross-representation float comparison: equal up to
// accumulation-order rounding, with infinities matched exactly.
func approxEq(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// randTask draws a valid task biased toward the interesting boundary
// region (subsets that are neither trivially light nor hopeless).
func randTask(rng *rand.Rand, id, maxK int) mc.Task {
	period := float64(1 + rng.Intn(2000))
	crit := 1 + rng.Intn(maxK)
	u1 := 0.02 + 0.6*rng.Float64()
	w := make([]float64, crit)
	w[0] = u1 * period
	growth := 1 + 2*rng.Float64()
	for j := 1; j < crit; j++ {
		w[j] = math.Min(w[j-1]*growth, period)
	}
	return mc.MustTask(id, "", period, w...)
}

// replay accumulates tasks into a fresh State in order — the
// exact-recompute path a backend takes after a removal.
func replay(k int, tasks []mc.Task) *State {
	var s State
	s.Reset(k)
	row := make([]float64, k)
	for i := range tasks {
		tasks[i].UtilRow(k, row)
		s.Add(tasks[i].Crit, row[:tasks[i].Crit])
	}
	return &s
}

// buildPair accumulates the same random subset into a State (delta
// adds) and a UtilMatrix (the full analysis's representation); it also
// returns the subset for replays.
func buildPair(rng *rand.Rand, k, n int) (*State, *mc.UtilMatrix, []mc.Task) {
	m := mc.NewUtilMatrix(k)
	tasks := make([]mc.Task, n)
	for i := range tasks {
		tasks[i] = randTask(rng, i+1, k)
		m.Add(&tasks[i])
	}
	return replay(k, tasks), m, tasks
}

// TestStateQueriesMatchAnalysis sweeps K = 1..6 with random resident
// subsets and candidates, comparing every probed State query against
// the post-add AnalyzeInto ground truth: FeasibleWith and EvalWith
// exactly on verdicts and within approxEq on readings, the Eq. 4
// accept only in its sound direction, and UtilFloorWith never above
// either Eq. 9 reading (the certification ProbeBoundedWith's prune
// rests on).
func TestStateQueriesMatchAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	var r Report
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 250; trial++ {
			s, m, _ := buildPair(rng, k, rng.Intn(6))
			probe := randTask(rng, 99, k)
			// State queries take the full K-length row.
			row := make([]float64, k)
			probe.UtilRow(k, row)
			crit := probe.Crit
			ctx := func(what string) string {
				return what + " (k=" + itoa(k) + " trial=" + itoa(trial) + " crit=" + itoa(crit) + ")"
			}

			real := m.Clone()
			real.Add(&probe)
			AnalyzeInto(real, &r)

			if got := s.FeasibleWith(crit, row); got != r.Feasible() {
				t.Fatal(ctx("FeasibleWith"), got, "Analyze", r.Feasible())
			}
			if s.SimpleFeasibleWith(crit, row) && !r.Feasible() {
				t.Fatal(ctx("SimpleFeasibleWith accepts an infeasible subset"))
			}
			if floor := s.UtilFloorWith(crit, row); r.Feasible() && floor > r.CoreUtil {
				t.Fatal(ctx("UtilFloorWith"), floor, "exceeds Analyze", r.CoreUtil)
			}

			var ev ProbeEval
			s.EvalWith(crit, row, &ev)
			if ev.FeasibleK != r.FeasibleK {
				t.Fatal(ctx("EvalWith FeasibleK"), ev.FeasibleK, "Analyze", r.FeasibleK)
			}
			if !approxEq(ev.CoreUtil, r.CoreUtil) {
				t.Fatal(ctx("EvalWith CoreUtil"), ev.CoreUtil, "Analyze", r.CoreUtil)
			}
		}
	}
}

// TestStateProbeCommitBitIdentity pins the delta contract at the State
// seam for K = 1..6: the probed analysis of a candidate must be bitwise
// the committed analysis after Add, and both must be bitwise the
// values ReportInto derives through lambdaStep, which keeps the
// Eq. 6 running product in its own variable where the EvalWith scan
// reuses theta. A reordered operation or a product that drifts from
// theta would surface here as a one-ulp mismatch.
func TestStateProbeCommitBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 250; trial++ {
			s, _, tasks := buildPair(rng, k, rng.Intn(6))
			probe := randTask(rng, 99, k)
			row := make([]float64, k)
			probe.UtilRow(k, row)

			var probed ProbeEval
			s.EvalWith(probe.Crit, row, &probed)
			feasible := s.FeasibleWith(probe.Crit, row)
			if feasible != (probed.FeasibleK > 0) {
				t.Fatalf("k=%d trial=%d: FeasibleWith %v, EvalWith FeasibleK %d",
					k, trial, feasible, probed.FeasibleK)
			}

			committed := replay(k, append(tasks, probe))
			var ev ProbeEval
			committed.Eval(&ev)
			if ev != probed {
				t.Fatalf("k=%d trial=%d crit=%d: probed %+v, committed %+v",
					k, trial, probe.Crit, probed, ev)
			}

			// The committed Report's scalar fields come from the same
			// sums, bitwise.
			var rep Report
			committed.ReportInto(&rep)
			if rep.FeasibleK != ev.FeasibleK || rep.CoreUtil != ev.CoreUtil {
				t.Fatalf("k=%d trial=%d: ReportInto (%d,%v), Eval (%d,%v)",
					k, trial, rep.FeasibleK, rep.CoreUtil, ev.FeasibleK, ev.CoreUtil)
			}
			if committed.K() != k || committed.Len() != s.Len()+1 {
				t.Fatalf("k=%d trial=%d: committed dims (%d,%d), want (%d,%d)",
					k, trial, committed.K(), committed.Len(), k, s.Len()+1)
			}
		}
	}
}

// TestProbeBoundedMatchesFloorThenEval pins the fused probe against
// its unfused reference: ProbeBoundedWith(base, margin) must return
// false exactly when the UtilFloorWith prune would have fired, and on
// true must fill bitwise the readings EvalWith fills — for margins
// from +Inf (no winner yet) down to values straddling the floor.
func TestProbeBoundedMatchesFloorThenEval(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 200; trial++ {
			s, _, _ := buildPair(rng, k, rng.Intn(6))
			probe := randTask(rng, 99, k)
			row := make([]float64, k)
			probe.UtilRow(k, row)
			base := rng.Float64()

			floor := s.UtilFloorWith(probe.Crit, row)
			margins := []float64{math.Inf(1), floor - base + 1e-6, floor - base, floor - base - 1e-6, 0}
			for _, margin := range margins {
				var ev ProbeEval
				ok := s.ProbeBoundedWith(probe.Crit, row, base, margin, &ev)
				wantOk := !(k >= 2 && floor-base >= margin)
				if ok != wantOk {
					t.Fatalf("k=%d trial=%d margin=%v: ProbeBoundedWith %v, floor reference %v (floor=%v base=%v)",
						k, trial, margin, ok, wantOk, floor, base)
				}
				if !ok {
					continue
				}
				var ref ProbeEval
				s.EvalWith(probe.Crit, row, &ref)
				if ev != ref {
					t.Fatalf("k=%d trial=%d margin=%v: fused %+v, EvalWith %+v", k, trial, margin, ev, ref)
				}
			}
		}
	}
}

// itoa avoids pulling strconv into the hot-loop failure messages.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
