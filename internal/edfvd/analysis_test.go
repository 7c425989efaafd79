package edfvd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"catpa/internal/mc"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func mkTask(id int, period float64, crit int, wcet ...float64) mc.Task {
	return mc.Task{ID: id, Period: period, Crit: crit, WCET: wcet}
}

func matrixOf(k int, tasks ...mc.Task) *mc.UtilMatrix {
	m := mc.NewUtilMatrix(k)
	for i := range tasks {
		m.Add(&tasks[i])
	}
	return m
}

// randomMatrix builds a random K-level matrix whose own-level load is
// roughly targetLoad.
func randomMatrix(rng *rand.Rand, k int, targetLoad float64) *mc.UtilMatrix {
	m := mc.NewUtilMatrix(k)
	load := 0.0
	id := 1
	for load < targetLoad {
		crit := 1 + rng.Intn(k)
		p := 10 + rng.Float64()*990
		u1 := 0.01 + rng.Float64()*0.15
		w := make([]float64, crit)
		c := u1 * p
		for i := range w {
			w[i] = c
			c *= 1 + 0.3 + rng.Float64()*0.4
		}
		t := mc.Task{ID: id, Period: p, Crit: crit, WCET: w}
		if t.MaxUtil() > 1 {
			continue
		}
		m.Add(&t)
		load += t.MaxUtil()
		id++
	}
	return m
}

func TestEmptySubset(t *testing.T) {
	for k := 1; k <= 6; k++ {
		m := mc.NewUtilMatrix(k)
		r := Analyze(m)
		if !r.Feasible() {
			t.Errorf("K=%d: empty subset infeasible", k)
		}
		if !almost(r.CoreUtil, 0) {
			t.Errorf("K=%d: empty CoreUtil = %v, want 0", k, r.CoreUtil)
		}
		if !SimpleFeasible(m) {
			t.Errorf("K=%d: empty subset fails Eq.4", k)
		}
	}
}

func TestSingleLevelReducesToEDF(t *testing.T) {
	a := mkTask(1, 10, 1, 6)
	b := mkTask(2, 10, 1, 3)
	m := matrixOf(1, a, b) // U = 0.9
	r := Analyze(m)
	if !r.Feasible() || !almost(r.CoreUtil, 0.9) {
		t.Errorf("K=1 feasible=%v util=%v", r.Feasible(), r.CoreUtil)
	}
	c := mkTask(3, 10, 1, 2)
	m.Add(&c) // U = 1.1
	r = Analyze(m)
	if r.Feasible() {
		t.Error("K=1 with U=1.1 accepted")
	}
	if !math.IsInf(r.CoreUtil, 1) {
		t.Errorf("infeasible CoreUtil = %v, want +Inf", r.CoreUtil)
	}
}

func TestSimpleFeasibleEq4(t *testing.T) {
	// U_1(1) = 0.5, U_2(2) = 0.5 -> own-level load exactly 1.
	m := matrixOf(2,
		mkTask(1, 10, 1, 5),
		mkTask(2, 10, 2, 2, 5),
	)
	if !SimpleFeasible(m) {
		t.Error("load exactly 1 rejected by Eq.4")
	}
	tk := mkTask(3, 100, 1, 1)
	m.Add(&tk)
	if SimpleFeasible(m) {
		t.Error("load 1.01 accepted by Eq.4")
	}
}

// TestPaperTau4 reproduces the surviving fragment of the paper's
// worked example: after allocating tau4 (u(1)=0.339, u(2)=0.633) alone
// to core P1, the core utilization is
// 0 + min{0.633, 0.339/(1-0.633)} = 0.633.
func TestPaperTau4(t *testing.T) {
	tau4 := mkTask(4, 1000, 2, 339, 633)
	m := matrixOf(2, tau4)
	r := Analyze(m)
	if !r.Feasible() {
		t.Fatal("tau4 alone infeasible")
	}
	if !almost(r.CoreUtil, 0.633) {
		t.Errorf("CoreUtil = %v, want 0.633", r.CoreUtil)
	}
}

// TestPaperTau2 reproduces the second surviving fragment: tau2 with
// u(2)=0.326 alone on P2 yields core utilization
// min{0.326, u2(1)/(1-0.326)} = 0.26, which pins u2(1) = 0.26*0.674.
func TestPaperTau2(t *testing.T) {
	u21 := 0.26 * (1 - 0.326)
	tau2 := mkTask(2, 1000, 2, u21*1000, 326)
	m := matrixOf(2, tau2)
	r := Analyze(m)
	if !r.Feasible() {
		t.Fatal("tau2 alone infeasible")
	}
	if !almost(r.CoreUtil, 0.26) {
		t.Errorf("CoreUtil = %v, want 0.26", r.CoreUtil)
	}
}

func TestDualLambdaIsClassicFactor(t *testing.T) {
	// U_1(1) = 0.4, U_2(1) = 0.3, U_2(2) = 0.5.
	m := matrixOf(2,
		mkTask(1, 10, 1, 4),
		mkTask(2, 10, 2, 3, 5),
	)
	lambda, ok := Lambdas(m)
	if !ok[0] || lambda[0] != 0 {
		t.Errorf("lambda_1 = %v ok=%v", lambda[0], ok[0])
	}
	want := 0.3 / (1 - 0.4)
	if !ok[1] || !almost(lambda[1], want) {
		t.Errorf("lambda_2 = %v ok=%v, want %v", lambda[1], ok[1], want)
	}
}

func TestDualFeasibleBeyondEq4(t *testing.T) {
	// U_1(1)=0.5, U_2(1)=0.1, U_2(2)=0.7: Eq.4 load = 1.2 fails, but
	// Eq.7: 0.5 + min{0.7, 0.1/0.3=0.333} = 0.833 <= 1 passes.
	m := matrixOf(2,
		mkTask(1, 10, 1, 5),
		mkTask(2, 10, 2, 1, 7),
	)
	if SimpleFeasible(m) {
		t.Fatal("Eq.4 unexpectedly passes")
	}
	if !DualFeasible(m) {
		t.Fatal("Eq.7 rejected a feasible set")
	}
	r := Analyze(m)
	if !r.Feasible() {
		t.Fatal("Theorem 1 disagrees with Eq.7")
	}
	if !almost(r.CoreUtil, 0.5+0.1/0.3) {
		t.Errorf("CoreUtil = %v, want %v", r.CoreUtil, 0.5+0.1/0.3)
	}
}

func TestDualInfeasible(t *testing.T) {
	// U_1(1)=0.6, U_2(1)=0.3, U_2(2)=0.9:
	// 0.6 + min{0.9, 0.3/0.1=3} = 1.5 > 1.
	m := matrixOf(2,
		mkTask(1, 10, 1, 6),
		mkTask(2, 10, 2, 3, 9),
	)
	if DualFeasible(m) {
		t.Error("Eq.7 accepted an infeasible set")
	}
	if Feasible(m) {
		t.Error("Theorem 1 accepted an infeasible set")
	}
	if CoreUtil(m) != math.Inf(1) {
		t.Errorf("CoreUtil = %v, want +Inf", CoreUtil(m))
	}
}

func TestDualFeasiblePanicsOnWrongK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for K=3 matrix")
		}
	}()
	DualFeasible(mc.NewUtilMatrix(3))
}

// TestGeneralAgreesWithDual: on random dual-criticality subsets the
// Theorem-1 path and the Eq. 7 specialization must agree exactly.
func TestGeneralAgreesWithDual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		m := randomMatrix(rng, 2, 0.3+rng.Float64()*1.2)
		if got, want := Feasible(m), DualFeasible(m); got != want {
			t.Fatalf("trial %d: Theorem1=%v Eq7=%v for %v", trial, got, want, m)
		}
	}
}

// TestEq4ImpliesTheorem1: the pessimistic condition is strictly
// stronger, so every Eq.4-feasible subset must pass Theorem 1 too
// (condition k=1 in particular).
func TestEq4ImpliesTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		k := 2 + rng.Intn(5)
		m := randomMatrix(rng, k, 0.2+rng.Float64()*1.0)
		if SimpleFeasible(m) && !Feasible(m) {
			t.Fatalf("trial %d (K=%d): Eq.4 passes but Theorem 1 fails: %v", trial, k, m)
		}
	}
}

// TestRemovalPreservesFeasibility: removing any task from a feasible
// subset keeps it feasible (mu decreases, theta increases per task).
func TestRemovalPreservesFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(5)
		var tasks []mc.Task
		m := mc.NewUtilMatrix(k)
		load := 0.0
		for id := 1; load < 0.9; id++ {
			crit := 1 + rng.Intn(k)
			p := 10 + rng.Float64()*200
			w := make([]float64, crit)
			c := (0.01 + rng.Float64()*0.1) * p
			for i := range w {
				w[i] = c
				c *= 1.4
			}
			tk := mc.Task{ID: id, Period: p, Crit: crit, WCET: w}
			if tk.MaxUtil() > 1 {
				continue
			}
			tasks = append(tasks, tk)
			m.Add(&tasks[len(tasks)-1])
			load += tk.MaxUtil()
		}
		if !Feasible(m) {
			continue
		}
		i := rng.Intn(len(tasks))
		m.Remove(&tasks[i])
		if !Feasible(m) {
			t.Fatalf("trial %d: removing task %d broke feasibility", trial, tasks[i].ID)
		}
		m.Add(&tasks[i])
	}
}

// TestAnalyzeMatchesNaive cross-checks the optimized AnalyzeInto
// against a direct, unoptimized transcription of Eqs. 5-9.
func TestAnalyzeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 1000; trial++ {
		k := 2 + rng.Intn(5)
		m := randomMatrix(rng, k, 0.2+rng.Float64()*1.1)
		r := Analyze(m)
		feasNaive, utilNaive := naiveAnalysis(m)
		if r.Feasible() != feasNaive {
			t.Fatalf("trial %d: feasible %v != naive %v", trial, r.Feasible(), feasNaive)
		}
		if feasNaive && !almost(r.CoreUtil, utilNaive) {
			t.Fatalf("trial %d: CoreUtil %v != naive %v", trial, r.CoreUtil, utilNaive)
		}
	}
}

// naiveAnalysis recomputes Theorem 1 from scratch with no shared
// state, mirroring the formulas in DESIGN.md section 3.
func naiveAnalysis(m *mc.UtilMatrix) (bool, float64) {
	k := m.K()
	// Lambda recursion.
	lambda := make([]float64, k+1)
	valid := make([]bool, k+1)
	lambda[1], valid[1] = 0, true
	for j := 2; j <= k; j++ {
		prod := 1.0
		allOK := true
		for x := 1; x < j; x++ {
			if !valid[x] {
				allOK = false
				break
			}
			prod *= 1 - lambda[x]
		}
		if !allOK || prod <= Eps {
			valid[j] = false
			continue
		}
		num := 0.0
		for x := j; x <= k; x++ {
			num += m.At(x, j-1)
		}
		num /= prod
		den := 1 - m.At(j-1, j-1)/prod
		if den <= Eps {
			valid[j] = false
			continue
		}
		l := num / den
		if l < 0 || l >= 1 {
			valid[j] = false
			continue
		}
		lambda[j], valid[j] = l, true
	}
	minTerm := m.At(k, k)
	if 1-m.At(k, k) > Eps {
		if f := m.At(k, k-1) / (1 - m.At(k, k)); f < minTerm {
			minTerm = f
		}
	}
	feasible := false
	best := math.Inf(1)
	for cond := 1; cond <= k-1; cond++ {
		ok := true
		theta := 1.0
		for j := 1; j <= cond; j++ {
			if !valid[j] {
				ok = false
				break
			}
			theta *= 1 - lambda[j]
		}
		if !ok {
			continue
		}
		mu := minTerm
		for i := cond; i <= k-1; i++ {
			mu += m.At(i, i)
		}
		a := theta - mu
		if a >= -Eps {
			feasible = true
			if u := 1 - a; u < best {
				best = u
			}
		}
	}
	return feasible, best
}

// TestFeasibilityScalesWithLoad: with growing load the analysis must
// eventually reject, and acceptance is monotone along a single growing
// subset (adding tasks never turns an infeasible subset feasible).
func TestFeasibilityScalesWithLoad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		m := mc.NewUtilMatrix(k)
		wasInfeasible := false
		for id := 1; id <= 60; id++ {
			crit := 1 + rng.Intn(k)
			p := 20 + rng.Float64()*100
			w := make([]float64, crit)
			c := (0.02 + rng.Float64()*0.08) * p
			for i := range w {
				w[i] = c
				c *= 1.4
			}
			tk := mc.Task{ID: id, Period: p, Crit: crit, WCET: w}
			if tk.MaxUtil() > 1 {
				continue
			}
			m.Add(&tk)
			feas := Feasible(m)
			if wasInfeasible && feas {
				return false // infeasible -> feasible by adding load
			}
			if !feas {
				wasInfeasible = true
			}
		}
		return wasInfeasible // 60 tasks of u>=0.02 must overload one core
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReportClone(t *testing.T) {
	m := matrixOf(2, mkTask(1, 10, 2, 1, 2))
	r := Analyze(m)
	c := r.Clone()
	r.Lambda[0] = 42
	if c.Lambda[0] == 42 {
		t.Fatal("Clone shares Lambda storage")
	}
}

func TestAnalyzeIntoReusesStorage(t *testing.T) {
	m := matrixOf(3, mkTask(1, 10, 3, 1, 2, 3))
	var r Report
	AnalyzeInto(m, &r)
	l0 := &r.Lambda[0]
	AnalyzeInto(m, &r)
	if l0 != &r.Lambda[0] {
		t.Error("AnalyzeInto reallocated although capacity sufficed")
	}
	n := testing.AllocsPerRun(100, func() { AnalyzeInto(m, &r) })
	if n != 0 {
		t.Errorf("AnalyzeInto allocates %v per run, want 0", n)
	}
}

func TestLambdaInvalidWhenOverloaded(t *testing.T) {
	// U_1(1) close to 1 makes the lambda_2 denominator non-positive.
	m := matrixOf(2,
		mkTask(1, 10, 1, 10),   // u(1) = 1.0
		mkTask(2, 10, 2, 1, 2), // HI
	)
	_, ok := Lambdas(m)
	if ok[1] {
		t.Error("lambda_2 reported valid despite U_1(1) = 1")
	}
	if Feasible(m) {
		t.Error("overloaded subset accepted")
	}
}
