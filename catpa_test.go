package catpa_test

import (
	"strings"
	"testing"

	"catpa"
)

// TestFacadeEndToEnd walks the whole public API: generate, analyze,
// partition, simulate.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := catpa.DefaultGenConfig()
	cfg.M = 4
	cfg.NSU = 0.45
	cfg.N = catpa.IntRange{Lo: 20, Hi: 40}
	ts := catpa.GenerateTaskSet(&cfg, 1, 0)
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}

	res := catpa.Partition(ts, cfg.M, cfg.K, catpa.CATPA, nil)
	if !res.Feasible {
		t.Fatal("CA-TPA infeasible on an easy set")
	}
	if err := res.Verify(ts); err != nil {
		t.Fatal(err)
	}

	st := catpa.SimulateSystem(catpa.SystemConfig{
		Subsets: res.Subsets(ts),
		K:       cfg.K,
		Horizon: 5000,
	})
	if st.Missed() != 0 {
		t.Fatalf("%d deadline misses in worst-case simulation", st.Missed())
	}
}

func TestFacadeHandBuiltSet(t *testing.T) {
	ts := catpa.NewTaskSet(
		catpa.Task{Period: 100, Crit: 2, WCET: []float64{10, 25}},
		catpa.Task{Period: 50, Crit: 1, WCET: []float64{15}},
	)
	m := catpa.NewUtilMatrix(2)
	for i := range ts.Tasks {
		m.Add(&ts.Tasks[i])
	}
	if !catpa.SimpleFeasible(m) || !catpa.Feasible(m) {
		t.Fatal("tiny set should be feasible")
	}
	rep := catpa.Analyze(m)
	if rep.CoreUtil != catpa.CoreUtil(m) {
		t.Error("Analyze and CoreUtil disagree")
	}
	cs := catpa.Contributions(ts)
	if len(cs) != 2 {
		t.Fatalf("contributions = %d", len(cs))
	}
}

func TestFacadeSchemes(t *testing.T) {
	if len(catpa.Schemes) != 5 {
		t.Fatalf("schemes = %d", len(catpa.Schemes))
	}
	s, err := catpa.ParseScheme("CA-TPA")
	if err != nil || s != catpa.CATPA {
		t.Fatal("ParseScheme failed")
	}
}

func TestFacadeFigure(t *testing.T) {
	sw := catpa.Figure(1, 5, 1)
	sw.Workers = 2
	r := sw.Run()
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if ch := r.Chart(catpa.SchedRatio); len(ch.Series) != 5 {
		t.Fatalf("series = %d", len(ch.Series))
	}
	p := catpa.DefaultExpParams()
	if p.M != 8 {
		t.Errorf("default M = %d", p.M)
	}
}

func TestFacadeFP(t *testing.T) {
	ts := catpa.NewTaskSet(
		catpa.Task{Period: 10, Crit: 1, WCET: []float64{2}},
		catpa.Task{Period: 25, Crit: 2, WCET: []float64{4, 9}},
	)
	a, err := catpa.FPAnalyze(ts.Tasks)
	if err != nil || !a.Schedulable {
		t.Fatalf("FPAnalyze: %v, schedulable=%v", err, a != nil && a.Schedulable)
	}
	if !catpa.FPSchedulable(ts.Tasks) {
		t.Error("FPSchedulable disagrees")
	}
	prio := catpa.FPPriorities(ts.Tasks)
	if len(prio) != 2 || prio[0] != 0 {
		t.Errorf("priorities = %v", prio)
	}
	r, err := catpa.FPPartition(ts, 2, catpa.FFD)
	if err != nil || !r.Feasible {
		t.Fatal("FPPartition failed")
	}
	st := catpa.SimulateCore(catpa.CoreConfig{
		Tasks: ts.Tasks, K: 2, Horizon: 500,
		Model:         catpa.WorstCaseModel{},
		FixedPriority: true, Priorities: prio,
		BackgroundLO: true,
	})
	if st.Missed != 0 {
		t.Errorf("missed = %d", st.Missed)
	}
}

// TestFPPartitionVerifies: Verify re-derives an AMC-rtb result with
// the AMC-rtb analysis, so every feasible FPPartition result verifies
// (re-analysis under EDF-VD rejects most of them), and moving one task
// onto a core that AMC-rtb then rejects is caught even with the cores'
// utilizations brought up to date. An empty backend name reads as
// edfvd; an unknown one is an error.
func TestFPPartitionVerifies(t *testing.T) {
	cfg := catpa.DefaultGenConfig()
	cfg.M, cfg.K = 4, 2
	cfg.N = catpa.IntRange{Lo: 20, Hi: 60}
	feasible, moved := 0, 0
	for i := 0; i < 60; i++ {
		cfg.NSU = 0.7 + 0.2*float64(i%10)/9
		ts := catpa.GenerateTaskSet(&cfg, 3, i)
		for _, s := range catpa.Schemes {
			r, err := catpa.FPPartition(ts, cfg.M, s)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Feasible {
				continue
			}
			feasible++
			if r.Backend != catpa.FPBackendName {
				t.Fatalf("set %d %v: Backend %q, want %q", i, s, r.Backend, catpa.FPBackendName)
			}
			if err := r.Verify(ts); err != nil {
				t.Fatalf("set %d %v: feasible AMC-rtb result fails Verify: %v", i, s, err)
			}
			if moved < 20 && moveToUnschedulable(ts, r) {
				moved++
				if err := r.Verify(ts); err == nil || !strings.Contains(err.Error(), "infeasible under re-analysis") {
					t.Fatalf("set %d %v: moved task onto an AMC-rtb-unschedulable core, Verify = %v", i, s, err)
				}
			}
		}
	}
	if feasible == 0 || moved == 0 {
		t.Fatalf("degenerate population: %d feasible results, %d moves", feasible, moved)
	}

	ts := catpa.GenerateTaskSet(&cfg, 3, 0)
	r := catpa.Partition(ts, cfg.M, 2, catpa.CATPA, nil)
	if r.Backend != catpa.DefaultBackend {
		t.Fatalf("EDF-VD result Backend %q", r.Backend)
	}
	r.Backend = ""
	if err := r.Verify(ts); r.Feasible && err != nil {
		t.Fatalf("empty backend name not read as edfvd: %v", err)
	}
	r.Backend = "rms"
	if err := r.Verify(ts); err == nil || err.Error() != `partition: unknown backend "rms"` {
		t.Fatalf("unknown backend: Verify = %v", err)
	}
}

// moveToUnschedulable moves the first task whose arrival makes another
// core fail AMC-rtb onto that core, refreshes both cores' Util to
// their own-level loads, and reports whether it found such a move.
func moveToUnschedulable(ts *catpa.TaskSet, r *catpa.PartitionResult) bool {
	subset := func(c int) []catpa.Task {
		var out []catpa.Task
		for i, a := range r.Assignment {
			if a == c {
				out = append(out, ts.Tasks[i])
			}
		}
		return out
	}
	load := func(tasks []catpa.Task) float64 {
		m := catpa.NewUtilMatrix(r.K)
		for i := range tasks {
			m.Add(&tasks[i])
		}
		return m.OwnLevelLoad()
	}
	for i, from := range r.Assignment {
		for to := 0; to < r.M; to++ {
			if to == from || catpa.FPSchedulable(append(subset(to), ts.Tasks[i])) {
				continue
			}
			r.Assignment[i] = to
			r.Cores[from].Util = load(subset(from))
			r.Cores[to].Util = load(subset(to))
			return true
		}
	}
	return false
}

// TestFPPartitionRejectsBadInput: FPPartition refuses a set above
// dual criticality, a core count below one and an unknown scheme, each
// with its own error.
func TestFPPartitionRejectsBadInput(t *testing.T) {
	tri := catpa.NewTaskSet(catpa.Task{ID: 1, Period: 10, Crit: 3, WCET: []float64{1, 2, 3}})
	dual := catpa.NewTaskSet(catpa.Task{ID: 1, Period: 10, Crit: 1, WCET: []float64{1}})
	cases := []struct {
		ts     *catpa.TaskSet
		m      int
		scheme catpa.Scheme
		want   string
	}{
		{tri, 2, catpa.FFD, "fpamc: task set has criticality 3; AMC-rtb partitioning is dual-criticality"},
		{dual, 0, catpa.FFD, "fpamc: invalid core count 0"},
		{dual, 2, catpa.Scheme(99), "fpamc: unsupported scheme Scheme(99)"},
	}
	for _, c := range cases {
		if r, err := catpa.FPPartition(c.ts, c.m, c.scheme); err == nil || err.Error() != c.want {
			t.Errorf("FPPartition(m=%d, %v) = %v, %v; want error %q", c.m, c.scheme, r, err, c.want)
		}
	}
}

func TestFacadeClassicDual(t *testing.T) {
	m := catpa.NewUtilMatrix(2)
	tk := catpa.Task{ID: 1, Period: 10, Crit: 2, WCET: []float64{2, 9}}
	m.Add(&tk)
	if !catpa.ClassicDualFeasible(m) {
		t.Error("single HI task rejected by classic test")
	}
}

func TestFacadeModels(t *testing.T) {
	tk := catpa.Task{ID: 1, Period: 10, Crit: 2, WCET: []float64{2, 6}}
	var m catpa.ExecModel = catpa.WorstCaseModel{}
	if m.ExecTime(&tk, 0) != 6 {
		t.Error("WorstCaseModel via facade")
	}
	m = catpa.NewRandomModel(0.5, 0, 7)
	if v := m.ExecTime(&tk, 0); v <= 0 {
		t.Error("RandomModel via facade")
	}
	st := catpa.SimulateCore(catpa.CoreConfig{
		Tasks:   []catpa.Task{tk},
		K:       2,
		Horizon: 100,
		Model:   catpa.LevelModel{Level: 1},
	})
	if st.Missed != 0 {
		t.Error("misses in trivial sim")
	}
}
