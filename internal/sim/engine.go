package sim

import (
	"fmt"
	"math"

	"catpa/internal/edfvd"
	"catpa/internal/mc"
)

// timeEps is the tolerance for time comparisons inside the engine.
const timeEps = 1e-7

// Miss records one deadline miss of a non-dropped job.
type Miss struct {
	// Task is the index of the task within the simulated subset.
	Task int
	// Job is the zero-based job index of that task.
	Job int
	// Deadline is the absolute deadline that was missed; DetectedAt
	// the simulation time at which the engine noticed.
	Deadline, DetectedAt float64
}

// CoreStats aggregates one core's run.
type CoreStats struct {
	// Completed counts jobs that signalled completion by their
	// deadline; Missed counts deadline misses of jobs AMC did not
	// drop (the safety property: Missed must be 0 for subsets the
	// analysis accepted).
	Completed, Missed int

	// Released counts jobs admitted to the ready queue; DroppedJobs
	// counts in-flight jobs discarded by mode switches;
	// SkippedReleases counts releases suppressed while the core
	// operated above the task's criticality level.
	Released, DroppedJobs, SkippedReleases int

	// BackgroundCompleted and BackgroundMisses count demoted
	// low-criticality jobs under CoreConfig.BackgroundLO: completions
	// (possibly late — a late background completion counts as a miss,
	// not a completion) and deadline misses. Both are zero when the
	// option is off.
	BackgroundCompleted, BackgroundMisses int

	// ModeSwitches counts upward mode transitions, IdleResets the
	// returns to mode 1, and MaxMode the highest mode reached.
	ModeSwitches, IdleResets, MaxMode int

	// BusyTime is the total processor time spent executing jobs over
	// the simulated Horizon.
	BusyTime, Horizon float64

	// PlainEDF reports whether the core ran without virtual deadlines
	// (subset passed the pessimistic Eq. 4 test). Always false under
	// fixed-priority dispatching.
	PlainEDF bool

	// MaxResponse[i] is the largest observed response time
	// (completion minus release) of task i's completed jobs; 0 if the
	// task completed no job.
	MaxResponse []float64

	// Misses lists every recorded miss (same events counted by Missed).
	Misses []Miss
}

// Utilization returns BusyTime/Horizon.
func (s *CoreStats) Utilization() float64 {
	if s.Horizon <= 0 {
		return 0
	}
	return s.BusyTime / s.Horizon
}

// CoreConfig configures a single-core simulation.
type CoreConfig struct {
	// Tasks is the core's subset.
	Tasks []mc.Task
	// K is the number of system criticality levels (>= max task
	// criticality).
	K int
	// Horizon is the simulated duration; zero selects
	// DefaultHorizon(Tasks).
	Horizon float64
	// Model decides job execution demands; nil selects WorstCaseModel.
	Model ExecModel

	// FixedPriority switches dispatching from EDF-VD to static
	// priorities: Priorities[p] is the task index with the p-th
	// highest priority (e.g. fpamc.Priorities). Virtual deadlines are
	// not used. AMC mode switching, job dropping and the idle reset
	// behave identically.
	FixedPriority bool
	// Priorities is required when FixedPriority is set and must be a
	// permutation of the task indices.
	Priorities []int

	// BackgroundLO enables graceful degradation: instead of being
	// discarded at a mode switch, low-criticality jobs (and their
	// further releases) are demoted to background priority — they run
	// only when no guaranteed job is ready and carry no deadline
	// guarantee. Guaranteed tasks' behaviour (and the zero-miss
	// property) is unaffected; background outcomes are reported in
	// BackgroundCompleted / BackgroundMisses instead of
	// DroppedJobs / SkippedReleases.
	BackgroundLO bool
}

// DefaultHorizon returns 20 times the largest period — long enough for
// repeated mode switches and idle resets at every period scale in the
// Table IV ranges.
func DefaultHorizon(tasks []mc.Task) float64 {
	maxP := 0.0
	for i := range tasks {
		if tasks[i].Period > maxP {
			maxP = tasks[i].Period
		}
	}
	return 20 * maxP
}

// job is one released, not-yet-finished job.
type job struct {
	task      int
	idx       int
	release   float64
	deadline  float64 // original absolute deadline
	vd        float64 // virtual (priority) deadline
	remaining float64
	executed  float64
	// background marks a demoted low-criticality job (BackgroundLO):
	// it runs only when no guaranteed job is ready and has no
	// deadline guarantee.
	background bool
}

// engine is the per-core simulation state.
type engine struct {
	cfg   CoreConfig
	stats CoreStats

	// vdRel[m-1][i] is task i's relative virtual deadline when the
	// core operates in mode m.
	vdRel [][]float64

	// rank[i] is task i's priority rank under fixed-priority
	// dispatching (0 = highest); nil under EDF-VD.
	rank []int

	now     float64
	mode    int
	nextRel []float64
	jobIdx  []int
	active  []job
}

// SimulateCore runs one core to its horizon and returns the stats.
func SimulateCore(cfg CoreConfig) *CoreStats {
	if cfg.K < 1 {
		panic("sim: K < 1")
	}
	for i := range cfg.Tasks {
		if cfg.Tasks[i].Crit > cfg.K {
			panic(fmt.Sprintf("sim: task %d criticality %d exceeds K=%d", i, cfg.Tasks[i].Crit, cfg.K))
		}
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon(cfg.Tasks)
	}
	if cfg.Model == nil {
		cfg.Model = WorstCaseModel{}
	}
	e := &engine{
		cfg:     cfg,
		mode:    1,
		nextRel: make([]float64, len(cfg.Tasks)),
		jobIdx:  make([]int, len(cfg.Tasks)),
	}
	e.stats.Horizon = cfg.Horizon
	e.stats.MaxMode = 1
	e.stats.MaxResponse = make([]float64, len(cfg.Tasks))
	if cfg.FixedPriority {
		if len(cfg.Priorities) != len(cfg.Tasks) {
			panic("sim: FixedPriority requires a full Priorities permutation")
		}
		e.rank = make([]int, len(cfg.Tasks))
		seen := make([]bool, len(cfg.Tasks))
		for pos, ti := range cfg.Priorities {
			if ti < 0 || ti >= len(cfg.Tasks) || seen[ti] {
				panic("sim: Priorities is not a permutation of task indices")
			}
			seen[ti] = true
			e.rank[ti] = pos
		}
	}
	e.buildVDTable()
	e.stats.PlainEDF = e.stats.PlainEDF && !cfg.FixedPriority
	e.run()
	return &e.stats
}

// buildVDTable precomputes the per-mode relative virtual deadlines.
// When the subset passes Eq. 4, plain EDF is used (the paper's remark
// after Eq. 4); otherwise, while the core operates in mode m, every
// task above the current mode is scaled by the single factor
// lambda_{m+1} of Eq. 6 — the recursion defines lambda_{m+1} exactly
// so that the mode-m density U_m(m)/P + sum_{c>m} U_c(m)/(lambda*P)
// (P the accumulated carry-over discount) balances to one. Modes
// whose factor is undefined fall back to full deadlines; Theorem 1's
// holding condition k covers those modes with its aggregate
// own-level-utilization budget instead.
//
// Multiplying the per-level factors cumulatively (VD = p * prod
// lambda_x up to the task's own level) is NOT equivalent for K > 2:
// it over-shortens the virtual deadlines of high-criticality tasks,
// inflating their low-mode density beyond what the recursion budgets
// and starving low-criticality tasks — the simulation oracle exhibits
// analysis-accepted subsets missing deadlines under that scheme. For
// K = 2 the two schemes coincide (a single factor exists).
func (e *engine) buildVDTable() {
	m := mc.NewUtilMatrix(e.cfg.K)
	for i := range e.cfg.Tasks {
		m.Add(&e.cfg.Tasks[i])
	}
	// Fixed-priority dispatching ignores deadlines for priority; keep
	// the VD table neutral.
	plain := e.cfg.FixedPriority || edfvd.SimpleFeasible(m)
	e.stats.PlainEDF = plain

	lambda := make([]float64, e.cfg.K)
	for i := range lambda {
		lambda[i] = 1 // neutral factor
	}
	if !plain {
		ls, ok := edfvd.Lambdas(m)
		for j := range ls {
			if ok[j] && ls[j] > 0 {
				lambda[j] = ls[j]
			}
		}
	}
	e.vdRel = make([][]float64, e.cfg.K)
	for mode := 1; mode <= e.cfg.K; mode++ {
		row := make([]float64, len(e.cfg.Tasks))
		for i := range e.cfg.Tasks {
			t := &e.cfg.Tasks[i]
			f := 1.0
			if !plain && t.Crit > mode {
				f = lambda[mode] // lambda_{mode+1}; 1 when undefined
			}
			row[i] = t.Period * f
		}
		e.vdRel[mode-1] = row
	}
}

// run is the main event loop.
func (e *engine) run() {
	for e.now < e.cfg.Horizon-timeEps {
		e.releaseDue()
		e.detectMisses()

		if len(e.active) == 0 {
			e.goIdle()
			continue
		}

		j := e.pick()
		end := e.segmentEnd(j)
		dt := end - e.now
		if dt > 0 {
			j.remaining -= dt
			j.executed += dt
			e.stats.BusyTime += dt
			e.now = end
		}

		t := &e.cfg.Tasks[j.task]
		switch {
		case j.remaining <= timeEps:
			e.complete(j)
		case t.Crit > e.mode && j.executed >= t.C(e.mode)-timeEps:
			e.modeSwitch()
		}
	}
	// Account for jobs whose deadlines fall exactly at the horizon.
	e.detectMisses()
}

// releaseDue releases every job due at or before now, suppressing
// tasks below the current mode.
func (e *engine) releaseDue() {
	for i := range e.cfg.Tasks {
		t := &e.cfg.Tasks[i]
		for e.nextRel[i] <= e.now+timeEps && e.nextRel[i] < e.cfg.Horizon-timeEps {
			rel := e.nextRel[i]
			idx := e.jobIdx[i]
			e.nextRel[i] += t.Period
			e.jobIdx[i]++
			background := false
			if t.Crit < e.mode {
				if !e.cfg.BackgroundLO {
					e.stats.SkippedReleases++
					continue
				}
				background = true
			}
			demand := e.cfg.Model.ExecTime(t, idx)
			if demand > t.C(t.Crit) {
				demand = t.C(t.Crit)
			}
			if demand <= 0 {
				demand = timeEps
			}
			e.stats.Released++
			e.active = append(e.active, job{
				task:       i,
				idx:        idx,
				release:    rel,
				deadline:   rel + t.Period,
				vd:         rel + e.vdRel[e.mode-1][i],
				remaining:  demand,
				background: background,
			})
		}
	}
}

// detectMisses removes and records active jobs whose original deadline
// has passed with work remaining. Background jobs count toward
// BackgroundMisses and never toward the guaranteed-miss safety metric.
func (e *engine) detectMisses() {
	kept := e.active[:0]
	for _, j := range e.active {
		if j.deadline <= e.now+timeEps && j.remaining > timeEps {
			if j.background {
				e.stats.BackgroundMisses++
			} else {
				e.stats.Missed++
				e.stats.Misses = append(e.stats.Misses, Miss{
					Task: j.task, Job: j.idx, Deadline: j.deadline, DetectedAt: e.now,
				})
			}
			continue
		}
		kept = append(kept, j)
	}
	e.active = kept
}

// goIdle resets the core to mode 1 (AMC idle rule) and advances time
// to the next release or the horizon.
func (e *engine) goIdle() {
	if e.mode > 1 {
		e.mode = 1
		e.stats.IdleResets++
	}
	next := math.Inf(1)
	for i := range e.nextRel {
		if e.nextRel[i] < next {
			next = e.nextRel[i]
		}
	}
	if next >= e.cfg.Horizon {
		e.now = e.cfg.Horizon
		return
	}
	e.now = next
}

// pick returns the next job to dispatch: under EDF-VD the earliest
// virtual deadline (ties by smaller task index, then earlier release),
// under fixed priorities the highest-ranked task's earliest job.
// Guaranteed jobs strictly precede background jobs (only BackgroundLO
// makes any); within each class the normal policy applies.
func (e *engine) pick() *job {
	if g := e.pickClass(false); g != nil {
		return g
	}
	return e.pickClass(true)
}

// pickClass picks within one class (guaranteed or background); nil if
// the class is empty.
func (e *engine) pickClass(background bool) *job {
	var best *job
	for i := range e.active {
		j := &e.active[i]
		if j.background != background {
			continue
		}
		if best == nil || e.precedes(j, best) {
			best = j
		}
	}
	return best
}

// precedes reports whether a should run before b under the configured
// policy.
func (e *engine) precedes(a, b *job) bool {
	if e.rank != nil {
		return e.rank[a.task] < e.rank[b.task] ||
			(e.rank[a.task] == e.rank[b.task] && a.release < b.release)
	}
	switch {
	case a.vd < b.vd-timeEps:
		return true
	case a.vd <= b.vd+timeEps && a.task < b.task:
		return true
	case a.vd <= b.vd+timeEps && a.task == b.task && a.release < b.release:
		return true
	}
	return false
}

// segmentEnd computes how far the chosen job may run before the next
// scheduling event: its completion, its mode-trigger threshold, the
// next release (possible preemption), the earliest active deadline
// (miss detection boundary) or the horizon.
func (e *engine) segmentEnd(j *job) float64 {
	end := e.now + j.remaining
	t := &e.cfg.Tasks[j.task]
	if t.Crit > e.mode {
		if trig := e.now + (t.C(e.mode) - j.executed); trig < end {
			end = trig
		}
	}
	for i := range e.nextRel {
		if r := e.nextRel[i]; r > e.now+timeEps && r < end {
			end = r
		}
	}
	for i := range e.active {
		if d := e.active[i].deadline; d > e.now+timeEps && d < end {
			end = d
		}
	}
	if e.cfg.Horizon < end {
		end = e.cfg.Horizon
	}
	return end
}

// complete retires the job, checking its deadline.
func (e *engine) complete(j *job) {
	switch {
	case j.background:
		if e.now > j.deadline+timeEps {
			e.stats.BackgroundMisses++
		} else {
			e.stats.BackgroundCompleted++
		}
	case e.now > j.deadline+timeEps:
		e.stats.Missed++
		e.stats.Misses = append(e.stats.Misses, Miss{
			Task: j.task, Job: j.idx, Deadline: j.deadline, DetectedAt: e.now,
		})
	default:
		e.stats.Completed++
		if resp := e.now - j.release; resp > e.stats.MaxResponse[j.task] {
			e.stats.MaxResponse[j.task] = resp
		}
	}
	e.remove(j)
}

// modeSwitch raises the mode by one level, discards jobs below the new
// mode and rescales the virtual deadlines of the survivors.
func (e *engine) modeSwitch() {
	e.mode++
	e.stats.ModeSwitches++
	if e.mode > e.stats.MaxMode {
		e.stats.MaxMode = e.mode
	}
	kept := e.active[:0]
	for _, j := range e.active {
		if !j.background && e.cfg.Tasks[j.task].Crit < e.mode {
			if e.cfg.BackgroundLO {
				j.background = true
				kept = append(kept, j)
				continue
			}
			e.stats.DroppedJobs++
			continue
		}
		if !j.background {
			j.vd = j.release + e.vdRel[e.mode-1][j.task]
		}
		kept = append(kept, j)
	}
	e.active = kept
}

// remove deletes the job (by pointer identity) from the active set.
func (e *engine) remove(j *job) {
	for i := range e.active {
		if &e.active[i] == j {
			e.active = append(e.active[:i], e.active[i+1:]...)
			return
		}
	}
}
