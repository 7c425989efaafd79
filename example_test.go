package catpa_test

// The runnable examples of the public API. Each prints a fixed-seed
// result that its Output block pins: go test -run Example -v .

import (
	"fmt"
	"math/rand"
	"strings"

	"catpa"
	"catpa/internal/paperexample"
	"catpa/internal/textplot"
)

// Example_quickstart builds a small dual-criticality task set, checks
// per-core schedulability, partitions it with CA-TPA and executes the
// partition in the worst-case runtime simulation.
func Example_quickstart() {
	// A hand-built dual-criticality workload. WCET[0] is the
	// low-criticality budget, WCET[1] the certified high-criticality
	// budget (HI tasks only).
	ts := catpa.NewTaskSet(
		catpa.MustTask(0, "sensor_fusion", 50, 8, 20),
		catpa.MustTask(0, "flight_ctl", 20, 3, 7),
		catpa.MustTask(0, "telemetry", 100, 30),
		catpa.MustTask(0, "logging", 200, 70),
		catpa.MustTask(0, "display", 25, 6),
	)
	fmt.Println("task set:", ts)

	// Inspect the whole set as if it ran on one core: the EDF-VD
	// analysis exposes the Theorem-1 conditions.
	m := catpa.NewUtilMatrix(2)
	for i := range ts.Tasks {
		m.Add(&ts.Tasks[i])
	}
	rep := catpa.Analyze(m)
	fmt.Printf("single core: feasible=%v coreUtil=%.3f lambda2=%.3f\n",
		rep.Feasible(), rep.CoreUtil, rep.Lambda[1])

	// Partition onto two cores with CA-TPA, tracing each decision.
	res := catpa.Partition(ts, 2, 2, catpa.CATPA, &catpa.PartitionOptions{Trace: true})
	fmt.Println(res)
	fmt.Print(res.FormatTrace(ts))
	for c, ci := range res.Cores {
		fmt.Printf("P%d (U=%.3f):", c+1, ci.Util)
		for _, ti := range ci.Tasks {
			fmt.Printf(" %s", ts.Tasks[ti].Label())
		}
		fmt.Println()
	}

	// Execute the partition adversarially: every job runs to its
	// own-level WCET, forcing mode switches. The analysis guarantees
	// zero deadline misses of non-dropped jobs.
	stats := catpa.SimulateSystem(catpa.SystemConfig{
		Subsets: res.Subsets(ts),
		K:       2,
		Horizon: 10000,
	})
	fmt.Print(stats)
	fmt.Printf("worst-case run: %d completed, %d missed, %d mode switches\n",
		stats.Completed(), stats.Missed(), stats.ModeSwitches())

	// Output:
	// task set: TaskSet{N=5, K=2, U(1)=1.200}
	// single core: feasible=false coreUtil=+Inf lambda2=2.818
	// CA-TPA{M=2, Usys=0.917, Uavg=0.694, Lambda=0.486}
	// allocation trace (CA-TPA, M=2):
	//   sensor_fusion -> P1   U=0.267  dU=+0.267
	//   flight_ctl -> P2   U=0.231  dU=+0.231
	//   logging  -> P1   U=0.617  dU=+0.350
	//   telemetry -> P1   U=0.917  dU=+0.300
	//   display  -> P2   U=0.471  dU=+0.240
	// P1 (U=0.917): sensor_fusion logging telemetry
	// P2 (U=0.471): flight_ctl display
	// P1 : completed=200    missed=0   dropped=150   skipped=0     switches=200  maxMode=2 util=0.400 edf-vd=true
	// P2 : completed=600    missed=0   dropped=200   skipped=100   switches=500  maxMode=2 util=0.460 edf-vd=false
	// worst-case run: 800 completed, 0 missed, 700 mode switches
}

// Example_paperexample replays the worked example of Han et al. (ICPP
// 2016), Tables I-III: five mixed-criticality tasks on two cores, where
// FFD fails to place the last task while CA-TPA finds a feasible
// partition. The instance is the reconstruction documented in
// internal/paperexample (the original WCET columns were lost in the
// source-text extraction; all surviving fragments are matched).
func Example_paperexample() {
	ts := paperexample.TaskSet()

	// Table I: task parameters and utilization contributions.
	fmt.Println("Table I — timing parameters (reconstructed):")
	rows := [][]string{{"task", "c(1)", "c(2)", "p", "l", "u(1)", "u(2)", "C_i"}}
	contrib := catpa.Contributions(ts)
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		c2, u2 := "-", "-"
		if t.Crit >= 2 {
			c2 = fmt.Sprintf("%.2f", t.WCET[1])
			u2 = fmt.Sprintf("%.3f", t.Util(2))
		}
		rows = append(rows, []string{
			t.Label(),
			fmt.Sprintf("%.2f", t.WCET[0]), c2,
			fmt.Sprintf("%g", t.Period),
			fmt.Sprintf("%d", t.Crit),
			fmt.Sprintf("%.3f", t.Util(1)), u2,
			fmt.Sprintf("%.3f", contrib[i].Max),
		})
	}
	// The table pads its last column; an Output block cannot hold
	// trailing blanks.
	for _, line := range strings.Split(strings.TrimSuffix(textplot.AlignedTable(rows), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	// Table II: FFD fails.
	fmt.Println("\nTable II — FFD allocation (max-utilization order):")
	ffd := catpa.Partition(ts, paperexample.Cores, paperexample.Levels,
		catpa.FFD, &catpa.PartitionOptions{Trace: true})
	fmt.Print(ffd.FormatTrace(ts))
	fmt.Println("result:", ffd)

	// Table III: CA-TPA succeeds.
	fmt.Println("\nTable III — CA-TPA allocation (contribution order):")
	ca := catpa.Partition(ts, paperexample.Cores, paperexample.Levels,
		catpa.CATPA, &catpa.PartitionOptions{Trace: true})
	fmt.Print(ca.FormatTrace(ts))
	fmt.Println("result:", ca)
	for c, ci := range ca.Cores {
		fmt.Printf("  P%d (U=%.3f):", c+1, ci.Util)
		for _, ti := range ci.Tasks {
			fmt.Printf(" %s", ts.Tasks[ti].Label())
		}
		fmt.Println()
	}

	// And the part the paper only promises: execute CA-TPA's partition
	// under full overruns and observe zero misses.
	stats := catpa.SimulateSystem(catpa.SystemConfig{
		Subsets: ca.Subsets(ts),
		K:       paperexample.Levels,
		Horizon: 50 * paperexample.Period,
	})
	fmt.Printf("\nworst-case execution of the CA-TPA partition: %d completed, %d missed\n",
		stats.Completed(), stats.Missed())

	// Output:
	// Table I — timing parameters (reconstructed):
	// task  c(1)    c(2)    p     l  u(1)   u(2)   C_i
	// --------------------------------------------------
	// tau1  372.00  -       1000  1  0.372  -      0.245
	// tau2  175.24  326.00  1000  2  0.175  0.326  0.340
	// tau3  310.00  -       1000  1  0.310  -      0.204
	// tau4  339.00  633.00  1000  2  0.339  0.633  0.660
	// tau5  320.00  -       1000  1  0.320  -      0.211
	//
	// Table II — FFD allocation (max-utilization order):
	// allocation trace (FFD, M=2):
	//   tau4     -> P1   U=0.633  dU=+0.633
	//   tau1     -> P2   U=0.372  dU=+0.372
	//   tau2     -> P1   U=0.959  dU=+0.326
	//   tau5     -> P2   U=0.692  dU=+0.320
	//   tau3     -> FAILURE (no feasible core)
	// result: FFD{M=2, INFEASIBLE at task 2}
	//
	// Table III — CA-TPA allocation (contribution order):
	// allocation trace (CA-TPA, M=2):
	//   tau4     -> P1   U=0.633  dU=+0.633
	//   tau2     -> P2   U=0.260  dU=+0.260
	//   tau1     -> P2   U=0.632  dU=+0.372
	//   tau5     -> P1   U=0.953  dU=+0.320
	//   tau3     -> P2   U=0.942  dU=+0.310
	// result: CA-TPA{M=2, Usys=0.953, Uavg=0.948, Lambda=0.012}
	//   P1 (U=0.953): tau4 tau5
	//   P2 (U=0.942): tau2 tau1 tau3
	//
	// worst-case execution of the CA-TPA partition: 100 completed, 0 missed
}

// ima returns an Integrated Modular Avionics workload. Periods in
// milliseconds.
func ima() *catpa.TaskSet {
	hi := func(name string, p, c1, c2 float64) catpa.Task {
		return catpa.MustTask(0, name, p, c1, c2)
	}
	lo := func(name string, p, c1 float64) catpa.Task {
		return catpa.MustTask(0, name, p, c1)
	}
	return catpa.NewTaskSet(
		// DAL A/B: flight-critical (HI).
		hi("fbw_inner_loop", 5, 0.8, 1.6),
		hi("fbw_outer_loop", 20, 2.0, 4.4),
		hi("air_data", 10, 1.2, 2.6),
		hi("autopilot", 40, 4.0, 9.0),
		hi("engine_fadec", 25, 2.5, 6.0),
		hi("ground_prox", 50, 4.5, 10.0),
		hi("traffic_cas", 100, 8.0, 18.0),
		// DAL C-E: mission and cabin (LO).
		lo("fms_route", 200, 36),
		lo("weather_radar", 100, 17),
		lo("acars_link", 250, 40),
		lo("efb_display", 50, 8.5),
		lo("cabin_pressure_ui", 100, 15),
		lo("maintenance_log", 500, 70),
		lo("ife_media", 40, 6.5),
		lo("galley_mgmt", 400, 52),
	)
}

// Example_avionics runs an IMA-style workload in the spirit of the
// paper's motivation: DO-178C design-assurance levels mapped to a
// dual-criticality system, where safety-critical flight functions
// (DAL A/B -> HI) share four cores with mission and cabin functions
// (DAL C-E -> LO). It compares all five partitioning heuristics on the
// workload, then stresses the CA-TPA partition with three execution
// scenarios: nominal, sporadic overruns, and the certified worst case.
func Example_avionics() {
	ts := ima()
	const cores, levels = 4, 2
	fmt.Printf("IMA workload: %d tasks, raw LO utilization %.2f on %d cores\n\n",
		ts.Len(), ts.RawUtil(), cores)

	fmt.Println("heuristic comparison:")
	var best *catpa.PartitionResult
	for _, s := range catpa.Schemes {
		r := catpa.Partition(ts, cores, levels, s, nil)
		status := "infeasible"
		if r.Feasible {
			status = fmt.Sprintf("Usys=%.3f Uavg=%.3f imbalance=%.3f", r.Usys, r.Uavg, r.Imbalance)
		}
		fmt.Printf("  %-7s %s\n", s, status)
		if s == catpa.CATPA {
			best = r
		}
	}

	fmt.Println("\nCA-TPA placement:")
	for c, ci := range best.Cores {
		fmt.Printf("  P%d (U=%.3f):", c+1, ci.Util)
		for _, ti := range ci.Tasks {
			fmt.Printf(" %s", ts.Tasks[ti].Label())
		}
		fmt.Println()
	}

	scenarios := []struct {
		name  string
		model func(core int) catpa.ExecModel
	}{
		{"nominal (all jobs within LO budgets)", func(int) catpa.ExecModel { return catpa.NominalModel{} }},
		{"sporadic overruns (5% of jobs)", func(core int) catpa.ExecModel { return catpa.NewRandomModel(0.4, 0.05, int64(core)) }},
		{"certified worst case (every HI job overruns)", func(int) catpa.ExecModel { return catpa.WorstCaseModel{} }},
	}
	fmt.Println("\nruntime validation (10 s of simulated time):")
	for _, sc := range scenarios {
		stats := catpa.SimulateSystem(catpa.SystemConfig{
			Subsets:  best.Subsets(ts),
			K:        levels,
			Horizon:  10000,
			ModelFor: sc.model,
		})
		fmt.Printf("  %-46s completed=%-6d missed=%d switches=%d\n",
			sc.name, stats.Completed(), stats.Missed(), stats.ModeSwitches())
	}
	fmt.Println("\nall scenarios miss-free: the partition holds its certification story.")

	// Graceful degradation: instead of discarding cabin/mission tasks
	// when a core enters high-criticality mode, demote them to
	// background priority. Flight functions keep their guarantees;
	// the cabin keeps whatever slack remains.
	strict := catpa.SimulateSystem(catpa.SystemConfig{
		Subsets: best.Subsets(ts), K: levels, Horizon: 10000,
	})
	var bgDone, bgMiss, guaranteedMiss int
	for _, sub := range best.Subsets(ts) {
		st := catpa.SimulateCore(catpa.CoreConfig{
			Tasks: sub.Tasks, K: levels, Horizon: 10000,
			Model:        catpa.WorstCaseModel{},
			BackgroundLO: true,
		})
		guaranteedMiss += st.Missed
		bgDone += st.BackgroundCompleted
		bgMiss += st.BackgroundMisses
	}
	dropped := 0
	for _, c := range strict.Cores {
		dropped += c.DroppedJobs + c.SkippedReleases
	}
	fmt.Printf("\ngraceful degradation under permanent worst case:\n")
	fmt.Printf("  strict AMC:         %d LO jobs dropped or suppressed\n", dropped)
	fmt.Printf("  background service: %d LO jobs still completed on time, %d late/lost — flight tasks unaffected\n",
		bgDone, bgMiss)
	if guaranteedMiss > 0 {
		fmt.Printf("  %d guaranteed jobs missed their deadlines\n", guaranteedMiss)
	}

	// Output:
	// IMA workload: 15 tasks, raw LO utilization 2.01 on 4 cores
	//
	// heuristic comparison:
	//   WFD     Usys=0.673 Uavg=0.639 imbalance=0.145
	//   FFD     Usys=1.000 Uavg=0.727 imbalance=1.000
	//   BFD     Usys=1.000 Uavg=0.727 imbalance=1.000
	//   Hybrid  Usys=0.937 Uavg=0.639 imbalance=0.638
	//   CA-TPA  Usys=0.937 Uavg=0.639 imbalance=0.638
	//
	// CA-TPA placement:
	//   P1 (U=0.918): fbw_inner_loop fms_route weather_radar efb_display ife_media
	//   P2 (U=0.937): air_data traffic_cas acars_link cabin_pressure_ui maintenance_log galley_mgmt
	//   P3 (U=0.339): engine_fadec ground_prox
	//   P4 (U=0.360): autopilot fbw_outer_loop
	//
	// runtime validation (10 s of simulated time):
	//   nominal (all jobs within LO budgets)           completed=5235   missed=0 switches=0
	//   sporadic overruns (5% of jobs)                 completed=5113   missed=0 switches=209
	//   certified worst case (every HI job overruns)   completed=4450   missed=0 switches=3700
	//
	// all scenarios miss-free: the partition holds its certification story.
	//
	// graceful degradation under permanent worst case:
	//   strict AMC:         785 LO jobs dropped or suppressed
	//   background service: 725 LO jobs still completed on time, 60 late/lost — flight tasks unaffected
}

// domainController synthesizes a plausible vehicle workload: a few
// heavyweight ASIL-D control loops, mid-criticality chassis and
// powertrain functions, and a long tail of QM infotainment tasks.
func domainController() *catpa.TaskSet {
	rng := rand.New(rand.NewSource(26262))
	var tasks []catpa.Task
	add := func(name string, p float64, crit int, u1 float64, ifc float64) {
		w := make([]float64, crit)
		c := u1 * p
		for k := range w {
			w[k] = c
			c *= 1 + ifc
		}
		tasks = append(tasks, catpa.MustTask(0, name, p, w...))
	}
	// ASIL-D (level 4): braking and steering.
	add("brake_actuation", 10, 4, 0.06, 0.5)
	add("steering_torque", 10, 4, 0.05, 0.5)
	add("airbag_arbiter", 20, 4, 0.04, 0.5)
	// ASIL-B/C (level 3): stability and powertrain.
	add("esc_stability", 20, 3, 0.07, 0.45)
	add("torque_mgmt", 25, 3, 0.06, 0.45)
	add("battery_mgmt", 50, 3, 0.05, 0.45)
	// ASIL-A (level 2): comfort with safety relevance.
	add("adaptive_cruise", 40, 2, 0.08, 0.4)
	add("lane_keep_assist", 30, 2, 0.07, 0.4)
	add("parking_assist", 60, 2, 0.05, 0.4)
	// QM (level 1): infotainment and diagnostics tail.
	for i := 0; i < 12; i++ {
		p := []float64{80, 100, 160, 200, 400}[rng.Intn(5)]
		add(fmt.Sprintf("qm_task_%02d", i+1), p, 1, 0.03+rng.Float64()*0.06, 0)
	}
	return catpa.NewTaskSet(tasks...)
}

// minCores returns the smallest M in [1, maxM] for which the scheme
// finds a feasible partition, or 0 if none.
func minCores(ts *catpa.TaskSet, levels int, s catpa.Scheme, maxM int) int {
	for m := 1; m <= maxM; m++ {
		if catpa.Partition(ts, m, levels, s, nil).Feasible {
			return m
		}
	}
	return 0
}

// Example_automotive runs a four-level mixed-criticality workload in
// the style of ISO 26262 ASIL partitioning (QM -> level 1 through
// ASIL-D -> level 4) on a domain controller. It searches for the
// smallest core count each heuristic needs, showing that CA-TPA
// usually matches or beats the classical heuristics, then verifies the
// minimal CA-TPA configuration at every behavioural level of the
// runtime simulator.
func Example_automotive() {
	ts := domainController()
	const levels = 4
	fmt.Printf("domain controller: %d tasks, %d criticality levels, raw QM-level load %.2f\n\n",
		ts.Len(), levels, ts.RawUtil())

	fmt.Println("minimum cores required per heuristic:")
	bestM := 0
	for _, s := range catpa.Schemes {
		m := minCores(ts, levels, s, 16)
		if m == 0 {
			fmt.Printf("  %-7s none up to 16 cores\n", s)
			continue
		}
		fmt.Printf("  %-7s %d cores\n", s, m)
		if s == catpa.CATPA {
			bestM = m
		}
	}

	res := catpa.Partition(ts, bestM, levels, catpa.CATPA, nil)
	fmt.Printf("\nCA-TPA on %d cores: %v\n", bestM, res)
	for c, ci := range res.Cores {
		fmt.Printf("  P%d (U=%.3f, %d tasks)\n", c+1, ci.Util, len(ci.Tasks))
	}

	// Validate the minimal configuration at every behavioural level:
	// LevelModel{k} makes every job run exactly to its level-k budget,
	// exercising each mode plateau of the AMC protocol.
	fmt.Println("\nruntime validation per behavioural level:")
	for k := 1; k <= levels; k++ {
		stats := catpa.SimulateSystem(catpa.SystemConfig{
			Subsets: res.Subsets(ts),
			K:       levels,
			Horizon: 20000,
			ModelFor: func(int) catpa.ExecModel {
				return catpa.LevelModel{Level: k}
			},
		})
		maxSwitches := 0
		for _, c := range stats.Cores {
			maxSwitches = max(maxSwitches, c.ModeSwitches)
		}
		fmt.Printf("  level-%d behaviour: completed=%-6d missed=%d maxSwitches/core=%d\n",
			k, stats.Completed(), stats.Missed(), maxSwitches)
	}
	fmt.Println("\nminimal CA-TPA configuration verified at all behavioural levels.")

	// Output:
	// domain controller: 21 tasks, 4 criticality levels, raw QM-level load 1.21
	//
	// minimum cores required per heuristic:
	//   WFD     2 cores
	//   FFD     2 cores
	//   BFD     2 cores
	//   Hybrid  2 cores
	//   CA-TPA  2 cores
	//
	// CA-TPA on 2 cores: CA-TPA{M=2, Usys=0.988, Uavg=0.733, Lambda=0.516}
	//   P1 (U=0.988, 9 tasks)
	//   P2 (U=0.478, 12 tasks)
	//
	// runtime validation per behavioural level:
	//   level-1 behaviour: completed=10601  missed=0 maxSwitches/core=0
	//   level-2 behaviour: completed=8701   missed=0 maxSwitches/core=2000
	//   level-3 behaviour: completed=7200   missed=0 maxSwitches/core=4400
	//   level-4 behaviour: completed=5400   missed=0 maxSwitches/core=6800
	//
	// minimal CA-TPA configuration verified at all behavioural levels.
}

// Example_fpcompare sets partitioned EDF-VD (the paper's setting)
// against partitioned fixed-priority AMC-rtb (the related-work family
// of Baruah/Burns/Davis and Kelly/Aydin/Zhao) on the same
// dual-criticality populations. For each normalized utilization level
// it reports the acceptance ratio of:
//
//   - CA-TPA over the EDF-VD Theorem-1 test,
//   - FFD over the EDF-VD test,
//   - FFD over the fixed-priority AMC-rtb test,
//   - CA-TPA over the AMC-rtb test (the criticality-aware heuristic
//     running atop the fixed-priority backend),
//
// and how much the classical (stronger) dual-criticality EDF-VD test
// of Baruah et al. (2012) adds over the paper's Eq. 7-style condition
// on a single core.
//
// It draws 50 sets per point so that it runs in well under a second.
// At 500 sets per point the run takes ten times as long, and a ratio
// moves by up to about 0.07 from its 50-set value.
func Example_fpcompare() {
	const sets, cores = 50, 4
	cfg := catpa.DefaultGenConfig()
	cfg.K = 2
	cfg.M = cores
	cfg.N = catpa.IntRange{Lo: 30, Hi: 80}

	fmt.Printf("dual-criticality acceptance, M=%d, %d sets/point\n\n", cores, sets)
	fmt.Printf("%-6s %12s %12s %12s %12s\n", "NSU", "EDFVD/CATPA", "EDFVD/FFD", "FP/FFD", "FP/CATPA")
	for _, nsu := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
		cfg.NSU = nsu
		var ca, edfFFD, fpFFD, fpCA int
		for i := 0; i < sets; i++ {
			ts := catpa.GenerateTaskSet(&cfg, 99, i)
			if catpa.Partition(ts, cores, 2, catpa.CATPA, nil).Feasible {
				ca++
			}
			if catpa.Partition(ts, cores, 2, catpa.FFD, nil).Feasible {
				edfFFD++
			}
			if r, err := catpa.FPPartition(ts, cores, catpa.FFD); err == nil && r.Feasible {
				fpFFD++
			}
			if r, err := catpa.FPPartition(ts, cores, catpa.CATPA); err == nil && r.Feasible {
				fpCA++
			}
		}
		fmt.Printf("%-6.1f %12.3f %12.3f %12.3f %12.3f\n", nsu,
			float64(ca)/sets, float64(edfFFD)/sets, float64(fpFFD)/sets, float64(fpCA)/sets)
	}

	// Single-core comparison of the two dual-criticality EDF-VD tests.
	fmt.Println("\nsingle-core dual tests (Eq. 7-style vs classic Baruah et al. 2012):")
	cfg.M = 1
	cfg.N = catpa.IntRange{Lo: 8, Hi: 20}
	fmt.Printf("%-6s %10s %10s\n", "NSU", "Eq.7", "classic")
	for _, nsu := range []float64{0.6, 0.7, 0.8, 0.9} {
		cfg.NSU = nsu
		var eq7, classic int
		for i := 0; i < sets; i++ {
			ts := catpa.GenerateTaskSet(&cfg, 7, i)
			m := catpa.NewUtilMatrix(2)
			for j := range ts.Tasks {
				m.Add(&ts.Tasks[j])
			}
			if catpa.Feasible(m) {
				eq7++
			}
			if catpa.ClassicDualFeasible(m) {
				classic++
			}
		}
		fmt.Printf("%-6.1f %10.3f %10.3f\n", nsu, float64(eq7)/sets, float64(classic)/sets)
	}

	// Output:
	// dual-criticality acceptance, M=4, 50 sets/point
	//
	// NSU     EDFVD/CATPA    EDFVD/FFD       FP/FFD     FP/CATPA
	// 0.4           1.000        1.000        1.000        1.000
	// 0.5           1.000        1.000        1.000        1.000
	// 0.6           1.000        1.000        1.000        1.000
	// 0.7           0.980        0.980        1.000        1.000
	// 0.8           0.680        0.680        0.820        0.800
	//
	// single-core dual tests (Eq. 7-style vs classic Baruah et al. 2012):
	// NSU          Eq.7    classic
	// 0.6         1.000      1.000
	// 0.7         0.920      0.980
	// 0.8         0.560      0.780
	// 0.9         0.240      0.400
}
