package edfvd

import (
	"math"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/paperexample"
)

// The fuzzers below feed arbitrary (but always valid) task sets into
// the Theorem-1 analysis and check structural invariants that must
// hold for every input, not just the hand-picked regression cases:
//
//   - FuzzTheorem1Feasible: whenever Analyze declares condition k
//     feasible, every lambda_j it relied on (j <= k) is well defined
//     and in [0, 1), the bookkeeping identities A(k) = theta(k) - mu(k)
//     hold, and the Eq. 9 core utilization lands in [0, 1].
//   - FuzzDualAgreement: on K = 2 the general Theorem-1 path must agree
//     exactly with the closed-form Eq. 7 test DualFeasible, and Eq. 7
//     acceptance must imply ClassicDualFeasible (Baruah 2012).
//
// Task sets are decoded from the raw fuzz bytes, 6 bytes per task:
//
//	byte 0..1  period    1 + (uint16 % 2000)        (Table IV upper end)
//	byte 2..3  u_i(1)    (1 + uint16 % 999) / 1000  in (0, 1)
//	byte 4     crit      1 + (byte % maxK)
//	byte 5     growth    WCET factor 1 + (byte % 129)/64  in [1, 3]
//
// Higher-level WCETs grow geometrically and are capped at the period,
// so every decoded task passes mc.Task.Validate by construction.

// decodeTaskSet turns fuzz bytes into a valid task set with
// criticality levels in 1..maxK, or nil when data is too short.
func decodeTaskSet(t *testing.T, data []byte, maxK int) *mc.TaskSet {
	t.Helper()
	const bytesPerTask = 6
	n := len(data) / bytesPerTask
	if n == 0 {
		return nil
	}
	if n > 48 {
		n = 48 // keep each analysis cheap; more tasks add no coverage
	}
	ts := mc.NewTaskSetCap(n)
	for i := 0; i < n; i++ {
		b := data[i*bytesPerTask:]
		p16 := uint16(b[0]) | uint16(b[1])<<8
		u16 := uint16(b[2]) | uint16(b[3])<<8
		period := float64(1 + p16%2000)
		u1 := float64(1+u16%999) / 1000
		crit := 1 + int(b[4])%maxK
		growth := 1 + float64(b[5]%129)/64
		w := make([]float64, crit)
		w[0] = u1 * period
		for k := 1; k < crit; k++ {
			w[k] = math.Min(w[k-1]*growth, period)
		}
		ts.Tasks = append(ts.Tasks, mc.MustTask(i+1, "", period, w...))
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("decoder produced invalid task set: %v", err)
	}
	return ts
}

// encodeTask is the inverse helper used to build seed corpora; the
// permille and growth64 values quantize the intended utilizations.
func encodeTask(period uint16, u1Permille uint16, crit byte, growth64 byte) []byte {
	p16 := period - 1 // period = 1 + p16 % 2000 for period in 1..2000
	u16 := u1Permille - 1
	return []byte{
		byte(p16), byte(p16 >> 8),
		byte(u16), byte(u16 >> 8),
		crit - 1,
		growth64,
	}
}

// tableISeed approximates the reconstructed Table-I instance of
// paperexample (period 1000; tau2 and tau4 high-criticality) in the
// decoder's quantized encoding.
func tableISeed() []byte {
	var data []byte
	// u2(1) = 0.26*(1-0.326) ~ 0.175; 0.326/0.175 ~ 1.86 -> growth 55/64.
	// u4: 0.633/0.339 ~ 1.87 -> growth 56/64.
	data = append(data, encodeTask(1000, 372, 1, 0)...)
	data = append(data, encodeTask(1000, 175, 2, 55)...)
	data = append(data, encodeTask(1000, 310, 1, 0)...)
	data = append(data, encodeTask(1000, 339, 2, 56)...)
	data = append(data, encodeTask(1000, 320, 1, 0)...)
	return data
}

// checkReportInvariants asserts every structural property a Report must
// satisfy regardless of input. It is shared by the fuzzers and by the
// deterministic Table-I test.
func checkReportInvariants(t *testing.T, m *mc.UtilMatrix, r *Report) {
	t.Helper()
	k := m.K()
	if r.K != k {
		t.Fatalf("Report.K = %d, matrix K = %d", r.K, k)
	}
	if r.FeasibleK < 0 || r.FeasibleK > k {
		t.Fatalf("FeasibleK = %d out of range [0, %d]", r.FeasibleK, k)
	}
	if k > 1 && r.FeasibleK > k-1 {
		t.Fatalf("FeasibleK = %d exceeds K-1 = %d", r.FeasibleK, k-1)
	}

	if !r.Feasible() {
		if !math.IsInf(r.CoreUtil, 1) {
			t.Fatalf("infeasible report has finite CoreUtil %v", r.CoreUtil)
		}
		return
	}

	// Every lambda the holding condition depends on must be well
	// defined and inside [0, 1); lambda_1 is identically zero. (K = 1
	// systems have no virtual deadlines, hence no lambdas to check.)
	if k > 1 {
		for j := 1; j <= r.FeasibleK; j++ {
			if !r.LambdaOK[j-1] {
				t.Fatalf("condition %d holds but lambda_%d flagged invalid", r.FeasibleK, j)
			}
			l := r.Lambda[j-1]
			if math.IsNaN(l) || l < 0 || l >= 1 {
				t.Fatalf("lambda_%d = %v outside [0, 1) despite FeasibleK = %d", j, l, r.FeasibleK)
			}
		}
		if r.Lambda[0] != 0 {
			t.Fatalf("lambda_1 = %v, want 0", r.Lambda[0])
		}
	}

	if k > 1 {
		// Bookkeeping identities for the holding condition.
		cond := r.FeasibleK
		theta, mu, avail := r.Theta[cond-1], r.Mu[cond-1], r.Avail[cond-1]
		if theta <= 0 || theta > 1 {
			t.Fatalf("theta(%d) = %v outside (0, 1]", cond, theta)
		}
		if mu < 0 {
			t.Fatalf("mu(%d) = %v negative", cond, mu)
		}
		if math.Abs(avail-(theta-mu)) > 1e-12 {
			t.Fatalf("A(%d) = %v != theta - mu = %v", cond, avail, theta-mu)
		}
		if avail < -Eps {
			t.Fatalf("condition %d marked feasible with A = %v < -Eps", cond, avail)
		}
		// Conditions below FeasibleK must all have failed.
		for c := 1; c < cond; c++ {
			if r.Avail[c-1] >= -Eps {
				t.Fatalf("condition %d holds (A = %v) but FeasibleK = %d",
					c, r.Avail[c-1], cond)
			}
		}
	}

	// Eq. 9: the utilization of a feasible core lies in [0, 1] (modulo
	// tolerance).
	if r.CoreUtil < -Eps || r.CoreUtil > 1+Eps {
		t.Fatalf("CoreUtil = %v outside [0, 1]", r.CoreUtil)
	}
}

// reportsEqual compares two reports bit-for-bit (NaN-aware), proving
// Analyze is deterministic and AnalyzeInto reuse leaves no residue.
func reportsEqual(a, b *Report) bool {
	if a.K != b.K || a.FeasibleK != b.FeasibleK {
		return false
	}
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	if !feq(a.CoreUtil, b.CoreUtil) {
		return false
	}
	fs := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !feq(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if !fs(a.Lambda, b.Lambda) || !fs(a.Mu, b.Mu) || !fs(a.Theta, b.Theta) || !fs(a.Avail, b.Avail) {
		return false
	}
	for i := range a.LambdaOK {
		if a.LambdaOK[i] != b.LambdaOK[i] {
			return false
		}
	}
	return true
}

// FuzzTheorem1Feasible checks the Theorem-1 invariants on arbitrary
// valid task sets with up to four criticality levels.
func FuzzTheorem1Feasible(f *testing.F) {
	f.Add(tableISeed())
	// A K=4 mix exercising the lambda recursion beyond two levels.
	var multi []byte
	multi = append(multi, encodeTask(100, 200, 4, 32)...)
	multi = append(multi, encodeTask(500, 150, 3, 16)...)
	multi = append(multi, encodeTask(2000, 100, 2, 64)...)
	multi = append(multi, encodeTask(50, 250, 1, 0)...)
	f.Add(multi)
	// An overloaded single task (u1 close to 1 with steep growth).
	f.Add(encodeTask(1000, 999, 4, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		ts := decodeTaskSet(t, data, k)
		if ts == nil {
			t.Skip("not enough bytes for one task")
		}
		m := mc.MatrixOf(ts, k)
		r := Analyze(m)
		checkReportInvariants(t, m, r)
		if again := Analyze(m); !reportsEqual(r, again) {
			t.Fatal("Analyze is not deterministic")
		}
		// AnalyzeInto must produce identical results when reusing a
		// report that previously held a different (larger) analysis.
		reused := Analyze(mc.MatrixOf(ts, k+2))
		AnalyzeInto(m, reused)
		if !reportsEqual(r, reused) {
			t.Fatal("AnalyzeInto with reused storage diverges from Analyze")
		}
		if r.Feasible() != Feasible(m) {
			t.Fatal("Report.Feasible disagrees with edfvd.Feasible")
		}
	})
}

// FuzzDualAgreement checks that on dual-criticality subsets the general
// Theorem-1 path and the closed-form Eq. 7 test accept exactly the same
// sets, and that Eq. 7 acceptance implies the classic Baruah-2012 test.
func FuzzDualAgreement(f *testing.F) {
	f.Add(tableISeed())
	f.Add(encodeTask(1000, 500, 2, 64))
	f.Add(append(encodeTask(200, 600, 2, 32), encodeTask(200, 400, 1, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := decodeTaskSet(t, data, 2)
		if ts == nil {
			t.Skip("not enough bytes for one task")
		}
		m := mc.MatrixOf(ts, 2)
		general := Feasible(m)
		dual := DualFeasible(m)
		if general != dual {
			t.Fatalf("Theorem-1 path says feasible=%v, Eq. 7 says %v\nmatrix:\n%s",
				general, dual, m)
		}
		if dual && !ClassicDualFeasible(m) {
			t.Fatalf("Eq. 7 accepts but classic Baruah-2012 test rejects\nmatrix:\n%s", m)
		}
		checkReportInvariants(t, m, Analyze(m))
	})
}

// TestTableIExampleInvariants runs the shared invariant checker on the
// exact (unquantized) reconstructed Table-I instance, per core subset
// of the paper's final CA-TPA mapping and on the aggregate set.
func TestTableIExampleInvariants(t *testing.T) {
	ts := paperexample.TaskSet()
	checkReportInvariants(t, mc.MatrixOf(ts, paperexample.Levels),
		Analyze(mc.MatrixOf(ts, paperexample.Levels)))

	subsets := make(map[int]*mc.TaskSet)
	for id, core := range paperexample.CATPAMapping {
		sub, ok := subsets[core]
		if !ok {
			sub = mc.NewTaskSetCap(3)
			subsets[core] = sub
		}
		for i := range ts.Tasks {
			if ts.Tasks[i].ID == id {
				sub.Tasks = append(sub.Tasks, ts.Tasks[i].Clone())
			}
		}
	}
	for core, sub := range subsets {
		m := mc.MatrixOf(sub, paperexample.Levels)
		r := Analyze(m)
		if !r.Feasible() {
			t.Errorf("core %d of the Table-III mapping is infeasible", core)
		}
		checkReportInvariants(t, m, r)
		if Feasible(m) != DualFeasible(m) {
			t.Errorf("core %d: Theorem-1 and Eq. 7 disagree", core)
		}
	}
}
