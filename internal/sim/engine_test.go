package sim

import (
	"math"
	"math/rand"
	"testing"

	"catpa/internal/edfvd"
	"catpa/internal/mc"
)

func mkTask(id int, period float64, crit int, wcet ...float64) mc.Task {
	return mc.Task{ID: id, Period: period, Crit: crit, WCET: wcet}
}

func TestSingleTaskCompletesEveryJob(t *testing.T) {
	s := SimulateCore(CoreConfig{
		Tasks:   []mc.Task{mkTask(1, 10, 1, 4)},
		K:       1,
		Horizon: 100,
		Model:   NominalModel{},
	})
	if s.Missed != 0 {
		t.Fatalf("missed = %d", s.Missed)
	}
	if s.Completed != 10 {
		t.Errorf("completed = %d, want 10", s.Completed)
	}
	if s.Released != 10 {
		t.Errorf("released = %d, want 10", s.Released)
	}
	if math.Abs(s.BusyTime-40) > 1e-6 {
		t.Errorf("busy = %v, want 40", s.BusyTime)
	}
	if s.ModeSwitches != 0 || s.MaxMode != 1 {
		t.Errorf("mode switches = %d maxMode = %d", s.ModeSwitches, s.MaxMode)
	}
}

func TestOverloadedCoreMisses(t *testing.T) {
	// Two 0.8-utilization tasks cannot fit one core: misses must be
	// detected (sanity of the miss detector).
	s := SimulateCore(CoreConfig{
		Tasks: []mc.Task{
			mkTask(1, 10, 1, 8),
			mkTask(2, 10, 1, 8),
		},
		K:       1,
		Horizon: 200,
	})
	if s.Missed == 0 {
		t.Fatal("overloaded core reported no misses")
	}
	if len(s.Misses) != s.Missed {
		t.Errorf("Misses slice length %d != Missed %d", len(s.Misses), s.Missed)
	}
}

func TestEDFPreemption(t *testing.T) {
	// A long job must be preempted by a shorter-deadline release and
	// both must finish (total demand fits).
	s := SimulateCore(CoreConfig{
		Tasks: []mc.Task{
			mkTask(1, 100, 1, 50), // long
			mkTask(2, 10, 1, 2),   // frequent, tight deadlines
		},
		K:       1,
		Horizon: 100,
		Model:   NominalModel{},
	})
	if s.Missed != 0 {
		t.Fatalf("missed = %d, misses=%v", s.Missed, s.Misses)
	}
	// 1 long job + 10 short jobs.
	if s.Completed != 11 {
		t.Errorf("completed = %d, want 11", s.Completed)
	}
}

func TestModeSwitchDropsLOTasks(t *testing.T) {
	// HI task overruns its LO budget on every job; the LO task must be
	// dropped at the switch and suppressed until the idle reset.
	s := SimulateCore(CoreConfig{
		Tasks: []mc.Task{
			mkTask(1, 20, 2, 2, 8), // HI: overruns c(1)=2
			mkTask(2, 20, 1, 4),    // LO
		},
		K:       2,
		Horizon: 200,
		Model:   WorstCaseModel{},
	})
	if s.Missed != 0 {
		t.Fatalf("missed = %d (%v)", s.Missed, s.Misses)
	}
	if s.ModeSwitches == 0 {
		t.Fatal("no mode switches despite guaranteed overrun")
	}
	if s.MaxMode != 2 {
		t.Errorf("maxMode = %d, want 2", s.MaxMode)
	}
	if s.DroppedJobs+s.SkippedReleases == 0 {
		t.Error("LO work neither dropped nor suppressed")
	}
	if s.IdleResets == 0 {
		t.Error("core never idle-reset to mode 1")
	}
}

func TestNominalModelNeverSwitches(t *testing.T) {
	s := SimulateCore(CoreConfig{
		Tasks: []mc.Task{
			mkTask(1, 20, 2, 2, 8),
			mkTask(2, 10, 1, 3),
		},
		K:       2,
		Horizon: 400,
		Model:   NominalModel{},
	})
	if s.ModeSwitches != 0 {
		t.Errorf("nominal run switched modes %d times", s.ModeSwitches)
	}
	if s.Missed != 0 {
		t.Errorf("missed = %d", s.Missed)
	}
	if s.SkippedReleases != 0 || s.DroppedJobs != 0 {
		t.Error("nominal run dropped work")
	}
}

func TestLevelModelStopsAtLevel(t *testing.T) {
	// Level-2 behaviour in a 3-level system: mode must reach 2, never 3.
	s := SimulateCore(CoreConfig{
		Tasks: []mc.Task{
			mkTask(1, 30, 3, 2, 5, 9),
			mkTask(2, 30, 2, 2, 4),
			mkTask(3, 30, 1, 3),
		},
		K:       3,
		Horizon: 600,
		Model:   LevelModel{Level: 2},
	})
	if s.MaxMode != 2 {
		t.Errorf("maxMode = %d, want 2", s.MaxMode)
	}
	if s.Missed != 0 {
		t.Errorf("missed = %d (%v)", s.Missed, s.Misses)
	}
}

func TestJobAccounting(t *testing.T) {
	// Released jobs are eventually completed, missed, dropped, or
	// still pending at the horizon.
	s := SimulateCore(CoreConfig{
		Tasks: []mc.Task{
			mkTask(1, 15, 2, 2, 6),
			mkTask(2, 10, 1, 3),
			mkTask(3, 35, 1, 5),
		},
		K:       2,
		Horizon: 700,
		Model:   NewRandomModel(0.3, 0.2, 99),
	})
	settled := s.Completed + s.Missed + s.DroppedJobs
	if settled > s.Released {
		t.Fatalf("settled %d > released %d", settled, s.Released)
	}
	// At most a handful of jobs may straddle the horizon.
	if s.Released-settled > len(s.Misses)+3 {
		t.Errorf("too many unsettled jobs: released=%d settled=%d", s.Released, settled)
	}
}

func TestDefaultHorizon(t *testing.T) {
	tasks := []mc.Task{mkTask(1, 100, 1, 1), mkTask(2, 250, 1, 1)}
	if got := DefaultHorizon(tasks); got != 5000 {
		t.Errorf("DefaultHorizon = %v, want 5000", got)
	}
}

func TestSimulateCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for crit > K")
		}
	}()
	SimulateCore(CoreConfig{Tasks: []mc.Task{mkTask(1, 10, 2, 1, 2)}, K: 1})
}

// buildFeasibleSubset draws random tasks until just before the subset
// stops being Theorem-1 feasible, returning a feasible, near-capacity
// subset.
func buildFeasibleSubset(rng *rand.Rand, k int) []mc.Task {
	m := mc.NewUtilMatrix(k)
	var tasks []mc.Task
	for id := 1; id <= 60; id++ {
		crit := 1 + rng.Intn(k)
		p := []float64{50, 80, 100, 150, 200, 400}[rng.Intn(6)]
		u1 := 0.03 + rng.Float64()*0.2
		w := make([]float64, crit)
		c := u1 * p
		for i := range w {
			w[i] = c
			c *= 1 + 0.3 + rng.Float64()*0.4
		}
		tk := mc.Task{ID: id, Period: p, Crit: crit, WCET: w}
		if tk.MaxUtil() > 1 {
			continue
		}
		m.Add(&tk)
		if !edfvd.Feasible(m) {
			m.Remove(&tk)
			continue
		}
		tasks = append(tasks, tk)
	}
	return tasks
}

// TestFeasibleDualSubsetsNeverMissWorstCase is the central validation:
// any dual-criticality subset accepted by the Theorem-1 analysis must
// survive the fully adversarial execution (every job runs to its
// own-level WCET) with zero deadline misses of non-dropped jobs.
func TestFeasibleDualSubsetsNeverMissWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(20160816))
	for trial := 0; trial < 200; trial++ {
		tasks := buildFeasibleSubset(rng, 2)
		if len(tasks) == 0 {
			continue
		}
		s := SimulateCore(CoreConfig{
			Tasks:   tasks,
			K:       2,
			Horizon: 10000,
			Model:   WorstCaseModel{},
		})
		if s.Missed != 0 {
			t.Fatalf("trial %d: %d misses on an analysis-accepted subset; first=%+v tasks=%v",
				trial, s.Missed, s.Misses[0], tasks)
		}
	}
}

// TestFeasibleDualSubsetsNeverMissRandom repeats the validation under
// randomized overruns (partial executions, sporadic overruns at
// arbitrary instants).
func TestFeasibleDualSubsetsNeverMissRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 100; trial++ {
		tasks := buildFeasibleSubset(rng, 2)
		if len(tasks) == 0 {
			continue
		}
		s := SimulateCore(CoreConfig{
			Tasks:   tasks,
			K:       2,
			Horizon: 10000,
			Model:   NewRandomModel(0.2, 0.15, int64(trial)),
		})
		if s.Missed != 0 {
			t.Fatalf("trial %d: %d misses (first %+v)", trial, s.Missed, s.Misses[0])
		}
	}
}

// TestEq4SubsetsNeverMissAnyK: subsets passing the pessimistic Eq. 4
// test run plain EDF and must never miss for any K, under any model.
func TestEq4SubsetsNeverMissAnyK(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 150; trial++ {
		k := 2 + rng.Intn(4)
		m := mc.NewUtilMatrix(k)
		var tasks []mc.Task
		for id := 1; id <= 40; id++ {
			crit := 1 + rng.Intn(k)
			p := []float64{50, 100, 200, 500}[rng.Intn(4)]
			w := make([]float64, crit)
			c := (0.02 + rng.Float64()*0.1) * p
			for i := range w {
				w[i] = c
				c *= 1.4
			}
			tk := mc.Task{ID: id, Period: p, Crit: crit, WCET: w}
			if tk.MaxUtil() > 1 {
				continue
			}
			m.Add(&tk)
			if !edfvd.SimpleFeasible(m) {
				m.Remove(&tk)
				continue
			}
			tasks = append(tasks, tk)
		}
		s := SimulateCore(CoreConfig{Tasks: tasks, K: k, Horizon: 8000, Model: WorstCaseModel{}})
		if !s.PlainEDF {
			t.Fatalf("trial %d: Eq.4 subset did not select plain EDF", trial)
		}
		if s.Missed != 0 {
			t.Fatalf("trial %d (K=%d): %d misses on Eq.4 subset (first %+v)", trial, k, s.Missed, s.Misses[0])
		}
	}
}

// TestFeasibleMultiLevelSubsetsWorstCase extends the validation to
// K in {3,4,5}: the reconstructed multi-level virtual-deadline scheme
// must keep analysis-accepted subsets miss-free under full overruns.
func TestFeasibleMultiLevelSubsetsWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 150; trial++ {
		k := 3 + rng.Intn(3)
		tasks := buildFeasibleSubset(rng, k)
		if len(tasks) == 0 {
			continue
		}
		s := SimulateCore(CoreConfig{
			Tasks:   tasks,
			K:       k,
			Horizon: 10000,
			Model:   WorstCaseModel{},
		})
		if s.Missed != 0 {
			t.Fatalf("trial %d (K=%d): %d misses on an analysis-accepted subset; first=%+v",
				trial, k, s.Missed, s.Misses[0])
		}
	}
}

// TestPlainEDFComparison covers the subsets that need virtual
// deadlines: over random Theorem-1-feasible but Eq.4-infeasible
// subsets, where the engine runs EDF-VD rather than plain EDF, no
// deadline may be missed.
func TestPlainEDFComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vdMisses, interesting := 0, 0
	for trial := 0; trial < 200; trial++ {
		tasks := buildFeasibleSubset(rng, 2)
		if len(tasks) == 0 {
			continue
		}
		m := mc.NewUtilMatrix(2)
		for i := range tasks {
			m.Add(&tasks[i])
		}
		if edfvd.SimpleFeasible(m) {
			continue // plain EDF provably fine; not interesting
		}
		interesting++
		vd := SimulateCore(CoreConfig{Tasks: tasks, K: 2, Horizon: 8000, Model: WorstCaseModel{}})
		if vd.PlainEDF {
			t.Fatalf("trial %d: an Eq.4-infeasible subset ran plain EDF", trial)
		}
		vdMisses += vd.Missed
	}
	if interesting == 0 {
		t.Fatal("no subset needed virtual deadlines")
	}
	if vdMisses != 0 {
		t.Fatalf("EDF-VD missed %d deadlines on %d feasible subsets", vdMisses, interesting)
	}
}

func TestSimulateSystem(t *testing.T) {
	subs := []*mc.TaskSet{
		{Tasks: []mc.Task{mkTask(1, 20, 2, 2, 8), mkTask(2, 20, 1, 4)}},
		{Tasks: []mc.Task{mkTask(3, 10, 1, 5)}},
	}
	st := SimulateSystem(SystemConfig{Subsets: subs, K: 2, Horizon: 200})
	if len(st.Cores) != 2 {
		t.Fatalf("cores = %d", len(st.Cores))
	}
	if st.Missed() != 0 {
		t.Errorf("missed = %d", st.Missed())
	}
	if st.Completed() == 0 {
		t.Error("no completions")
	}
	if st.ModeSwitches() == 0 {
		t.Error("no mode switches despite worst-case default model")
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
}

func TestSimulateSystemPerCoreModels(t *testing.T) {
	subs := []*mc.TaskSet{
		{Tasks: []mc.Task{mkTask(1, 20, 2, 2, 8)}},
		{Tasks: []mc.Task{mkTask(2, 20, 2, 2, 8)}},
	}
	st := SimulateSystem(SystemConfig{
		Subsets: subs,
		K:       2,
		Horizon: 400,
		ModelFor: func(core int) ExecModel {
			if core == 0 {
				return NominalModel{}
			}
			return WorstCaseModel{}
		},
	})
	if st.Cores[0].ModeSwitches != 0 {
		t.Error("nominal core switched modes")
	}
	if st.Cores[1].ModeSwitches == 0 {
		t.Error("worst-case core never switched")
	}
}

func TestExecModels(t *testing.T) {
	tk := mkTask(1, 10, 2, 2, 6)
	if got := (NominalModel{}).ExecTime(&tk, 0); got != 2 {
		t.Errorf("NominalModel = %v", got)
	}
	if got := (NominalModel{Fraction: 0.5}).ExecTime(&tk, 0); got != 1 {
		t.Errorf("NominalModel{0.5} = %v", got)
	}
	if got := (WorstCaseModel{}).ExecTime(&tk, 0); got != 6 {
		t.Errorf("WorstCaseModel = %v", got)
	}
	if got := (LevelModel{Level: 1}).ExecTime(&tk, 0); got != 2 {
		t.Errorf("LevelModel{1} = %v", got)
	}
	if got := (LevelModel{Level: 5}).ExecTime(&tk, 0); got != 6 {
		t.Errorf("LevelModel{5} saturates = %v", got)
	}
	rm := NewRandomModel(0.3, 0, 1)
	for i := 0; i < 100; i++ {
		v := rm.ExecTime(&tk, i)
		if v < 0.3*2-1e-9 || v > 2+1e-9 {
			t.Fatalf("RandomModel out of range: %v", v)
		}
	}
	always := NewRandomModel(0.3, 1, 1)
	if got := always.ExecTime(&tk, 0); got != 6 {
		t.Errorf("RandomModel overrun = %v", got)
	}
}
