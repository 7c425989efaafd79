package experiments

import (
	"fmt"
	"math"
	"time"

	"catpa/internal/fpamc"
	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/stats"
	"catpa/internal/taskgen"
	"catpa/internal/textplot"
)

// OnlineScenario evaluates each replication as an open, arrival-driven
// system instead of a one-shot task set: the replication's task
// universe is generated once, an arrival process turns it into a
// merged event stream (taskgen.StreamBuilder), and every variant
// replays the stream through an admission session — Admit on arrival
// (a failed admit is a shed: the task is turned away and never
// retried), Release on departure of an admitted task. The recorded
// family is arrival-resolved: admission rate, shed rate, standing
// occupancy, and core utilization over scenario time in Buckets
// equal-width time buckets (see OnlineCell).
//
// Determinism matches the static protocol: (Seed, point, set) address
// the universe and the event stream bit for bit, admission counts are
// exact integers independent of the worker count, and the
// time-weighted means are compensated, so fixed-seed goldens hold.
type OnlineScenario struct {
	// NewSource constructs each worker's task source; nil selects the
	// paper's Table-IV generator. Only tests set it, to inject a
	// source that fails.
	NewSource func() taskgen.TaskSource
	// Process draws inter-arrival gaps and lifetimes (required).
	Process taskgen.Poisson
	// Horizon is the scenario length in task-period time units; events
	// at or past it are not generated (required, finite and positive).
	Horizon float64
	// Buckets is the resolution of the over-time curves; 0 selects 16.
	Buckets int
}

// Kind implements Scenario; "online" joins the checkpoint identity.
func (o *OnlineScenario) Kind() string { return "online" }

func (o *OnlineScenario) buckets() int {
	if o.Buckets <= 0 {
		return 16
	}
	return o.Buckets
}

func (o *OnlineScenario) validate() error {
	if err := o.Process.Validate(); err != nil {
		return fmt.Errorf("experiments: online scenario: %v", err)
	}
	if math.IsNaN(o.Horizon) || math.IsInf(o.Horizon, 0) {
		return fmt.Errorf("experiments: online scenario: horizon %v is not finite", o.Horizon)
	}
	if o.Horizon <= 0 {
		return fmt.Errorf("experiments: online scenario: horizon %v <= 0", o.Horizon)
	}
	return nil
}

func (o *OnlineScenario) newWorker() scenarioWorker {
	src := taskgen.TaskSource(nil)
	if o.NewSource != nil {
		src = o.NewSource()
	}
	if src == nil {
		src = taskgen.NewGenerator()
	}
	return &onlineWorker{
		o:     o,
		src:   src,
		sb:    taskgen.NewStreamBuilder(),
		parts: make(map[string]*partition.Partitioner),
	}
}

// OnlineCell is the arrival-resolved aggregate of one (point, variant)
// cell of an online sweep, accumulated over the point's replications.
type OnlineCell struct {
	// Admitted counts admission verdicts over arrivals: Value() is the
	// admission rate, 1 - Value() the shed rate. Counts are exact, so
	// they are independent of the worker count.
	Admitted stats.Ratio `json:"admitted"`
	// Occupancy is the time-weighted mean number of tasks standing in
	// the system over the horizon, one observation per replication.
	Occupancy stats.Mean `json:"occupancy"`
	// CoreUtil is the end-of-horizon average core utilization, one
	// observation per replication.
	CoreUtil stats.Mean `json:"core_util"`
	// AdmitOverTime splits the admission verdicts by arrival time into
	// equal-width horizon buckets.
	AdmitOverTime []stats.Ratio `json:"admit_over_time"`
	// UtilOverTime samples the average core utilization at the end of
	// each horizon bucket (sample-and-hold across empty buckets).
	UtilOverTime []stats.Mean `json:"util_over_time"`
}

func newOnlineCell(buckets int) *OnlineCell {
	return &OnlineCell{
		AdmitOverTime: make([]stats.Ratio, buckets),
		UtilOverTime:  make([]stats.Mean, buckets),
	}
}

func (c *OnlineCell) merge(o *OnlineCell) {
	c.Admitted.Merge(&o.Admitted)
	c.Occupancy.Merge(&o.Occupancy)
	c.CoreUtil.Merge(&o.CoreUtil)
	for b := range c.AdmitOverTime {
		if b >= len(o.AdmitOverTime) {
			break
		}
		c.AdmitOverTime[b].Merge(&o.AdmitOverTime[b])
	}
	for b := range c.UtilOverTime {
		if b >= len(o.UtilOverTime) {
			break
		}
		c.UtilOverTime[b].Merge(&o.UtilOverTime[b])
	}
}

// shedRate is the complement of the admission rate, 0 when no arrival
// was observed (an empty stream sheds nothing).
func (c *OnlineCell) shedRate() float64 {
	n := c.Admitted.N()
	if n == 0 {
		return 0
	}
	return float64(n-c.Admitted.Hits()) / float64(n)
}

// onlineWorker is one worker's online scratch state: a task source, a
// stream builder and one pooled Partitioner per analysis backend, all
// slab-backed, so steady-state replay performs no heap allocations
// (TestOnlineScenarioZeroAllocs).
type onlineWorker struct {
	o     *OnlineScenario
	src   taskgen.TaskSource
	sb    *taskgen.StreamBuilder
	parts map[string]*partition.Partitioner
}

func (w *onlineWorker) arm(jb *job) {
	armWorker(w.parts, jb)
	for vi := range jb.row {
		if jb.row[vi].Online == nil {
			jb.row[vi].Online = newOnlineCell(w.o.buckets())
		}
	}
}

// evalSet evaluates one online replication: generate the universe and
// its event stream, then replay the stream once per variant. Like the
// static runSet, a panic anywhere — hook, source, stream, session —
// quarantines the replication, and accumulation per variant happens
// inside replay only on its success path.
func (w *onlineWorker) evalSet(jb *job, set int) (q *Quarantine) {
	defer func() {
		if r := recover(); r != nil {
			q = &Quarantine{Point: jb.point, X: jb.x, Set: set, Seed: jb.seed, Err: fmt.Sprint(r)}
		}
	}()
	if jb.hook != nil {
		jb.hook.BeforeSet(jb.point, set)
	}
	m := jb.metrics
	var ts *mc.TaskSet
	var events []taskgen.Event
	if m == nil {
		ts = w.src.Generate(jb.cfg, jb.seed, set)
		events = w.sb.Build(w.o.Process, len(ts.Tasks), w.o.Horizon, jb.seed, set)
	} else {
		sp := obs.StartSpan(m.genSeconds)
		ts = w.src.Generate(jb.cfg, jb.seed, set)
		events = w.sb.Build(w.o.Process, len(ts.Tasks), w.o.Horizon, jb.seed, set)
		sp.End()
		m.observeEvents(len(events))
	}
	for _, g := range jb.groups {
		part := w.parts[g.backend]
		for i, s := range g.schemes {
			vi := g.idx[i]
			if m == nil {
				w.replay(jb, part, s, ts, events, vi)
			} else {
				t0 := time.Now()
				w.replay(jb, part, s, ts, events, vi)
				m.partSeconds.Observe(time.Since(t0))
			}
		}
	}
	return nil
}

// replay drives one variant's admission session over the event stream
// and accumulates the replication's aggregates into its cell: per-
// arrival admission verdicts (whole-horizon and per time bucket), the
// time-weighted standing occupancy, utilization sampled at bucket
// boundaries, and — for clean replications, where no arrival was shed
// — the end-of-horizon system state into the static metric columns, so
// Sched keeps its "fully accommodated" meaning. Every update is slab
// or atomic storage; the replay itself allocates nothing.
//
//mc:deterministic the scenario driver feeds checkpointed aggregates and golden CSVs
func (w *onlineWorker) replay(jb *job, part *partition.Partitioner, scheme partition.Scheme, ts *mc.TaskSet, events []taskgen.Event, vi int) {
	o := w.o
	buckets := o.buckets()
	bw := o.Horizon / float64(buckets)
	cell := &jb.row[vi]
	oc := cell.Online
	m := jb.metrics

	part.StartIncremental(ts, scheme, jb.opts)
	var arrivals, admitted int64
	occ := 0
	occInt, lastT := 0.0, 0.0
	b := 0
	for ei := range events {
		e := &events[ei]
		// Close every bucket whose end we just passed, sampling the
		// committed utilization the session held through it.
		if float64(b+1)*bw <= e.Time {
			u := part.Summarize().Uavg
			for b < buckets && float64(b+1)*bw <= e.Time {
				oc.UtilOverTime[b].Add(u)
				b++
			}
		}
		occInt += float64(occ) * (e.Time - lastT)
		lastT = e.Time
		if e.Arrive {
			arrivals++
			_, ok := part.Admit(e.Task)
			// buckets*bw can round below the horizon, so an arrival in
			// that last ulp has closed every bucket; it counts in the
			// last one.
			oc.AdmitOverTime[min(b, buckets-1)].Add(ok)
			if ok {
				admitted++
				occ++
				m.observeAdmit(vi, e.Time)
			} else {
				m.observeShed(vi, e.Time)
			}
		} else if part.Assigned(e.Task) >= 0 {
			// Departure of an admitted task; shed tasks never entered,
			// so their departure is a no-op.
			part.Release(e.Task)
			occ--
		}
	}
	occInt += float64(occ) * (o.Horizon - lastT)
	fin := part.Summarize()
	for ; b < buckets; b++ {
		oc.UtilOverTime[b].Add(fin.Uavg)
	}

	oc.Admitted.AddN(admitted, arrivals)
	oc.Occupancy.Add(occInt / o.Horizon)
	oc.CoreUtil.Add(fin.Uavg)
	clean := admitted == arrivals
	cell.Sched.Add(clean)
	if clean {
		cell.Usys.Add(fin.Usys)
		cell.Uavg.Add(fin.Uavg)
		cell.Imb.Add(fin.Imbalance)
	}
	if m != nil {
		if clean {
			m.accepted[vi].Inc()
		} else {
			m.rejected[vi].Inc()
		}
	}
}

// OnlineMetricNames maps the four online sub-figures to captions,
// mirroring MetricNames for the static family.
var OnlineMetricNames = []string{
	"(a) admission rate",
	"(b) shed rate",
	"(c) mean occupancy",
	"(d) core utilization over time",
}

// onlineCharts renders the online chart family: admission rate, shed
// rate and mean occupancy against the sweep axis, plus core
// utilization against scenario time (bucket midpoints), aggregated
// over every sweep point.
//
//mc:deterministic chart series order is part of the golden output
func (r *Result) onlineCharts(o *OnlineScenario) []*textplot.Chart {
	variants := r.Sweep.ActiveVariants()
	buckets := o.buckets()
	out := make([]*textplot.Chart, 0, len(OnlineMetricNames))
	for mi, caption := range OnlineMetricNames[:3] {
		ch := &textplot.Chart{
			Title:  fmt.Sprintf("%s %s", r.Sweep.Title, caption),
			XLabel: r.Sweep.Param,
			YLabel: caption,
			X:      r.Sweep.Values,
		}
		for vi, v := range variants {
			series := textplot.Series{Label: v.String(), Y: make([]float64, len(r.Points))}
			for pi := range r.Points {
				oc := r.Points[pi].Cells[vi].Online
				if oc == nil {
					continue
				}
				switch mi {
				case 0:
					series.Y[pi] = oc.Admitted.Value()
				case 1:
					series.Y[pi] = oc.shedRate()
				case 2:
					series.Y[pi] = oc.Occupancy.Mean()
				}
			}
			ch.Series = append(ch.Series, series)
		}
		out = append(out, ch)
	}

	over := &textplot.Chart{
		Title:  fmt.Sprintf("%s %s", r.Sweep.Title, OnlineMetricNames[3]),
		XLabel: "t",
		YLabel: OnlineMetricNames[3],
		X:      make([]float64, buckets),
	}
	for b := 0; b < buckets; b++ {
		over.X[b] = (float64(b) + 0.5) * o.Horizon / float64(buckets)
	}
	for _, v := range variants {
		over.Series = append(over.Series, textplot.Series{Label: v.String(), Y: make([]float64, buckets)})
	}
	for vi := range variants {
		for b := 0; b < buckets; b++ {
			var agg stats.Mean
			for pi := range r.Points {
				oc := r.Points[pi].Cells[vi].Online
				if oc == nil || b >= len(oc.UtilOverTime) {
					continue
				}
				agg.Merge(&oc.UtilOverTime[b])
			}
			over.Series[vi].Y[b] = agg.Mean()
		}
	}
	return append(out, over)
}

// OnlineFigure returns the repository's online companion experiment
// "onl1": the NSU axis of Fig. 1 replayed as an open system. Dual-
// criticality universes of 64 tasks on 8 cores arrive by a Poisson
// process whose standing load (Little's law: Rate x MeanLifetime = 80
// tasks, capped by the universe) keeps the system saturated, so the
// admission rate falls and the shed rate rises as NSU scales the
// universe's utilization — the online counterpart of the paper's
// schedulability cliff. CA-TPA, FFD and Hybrid run on the default
// EDF-VD backend plus CA-TPA on AMC-rtb, exercising the delta
// machinery of both backends.
func OnlineFigure(sets int, seed int64) *Sweep {
	return &Sweep{
		Name:   "onl1",
		Title:  "Online 1: admission under varying NSU",
		Param:  "NSU",
		Values: []float64{0.8, 1.0, 1.2, 1.4, 1.6},
		Apply: func(p *Params, x float64) {
			p.NSU = x
			p.K = 2
			p.M = 8
			p.N = taskgen.IntRange{Lo: 64, Hi: 64}
		},
		Sets: sets,
		Seed: seed,
		Variants: []Variant{
			{Scheme: partition.CATPA},
			{Scheme: partition.FFD},
			{Scheme: partition.Hybrid},
			{Scheme: partition.CATPA, Backend: fpamc.BackendName},
		},
		Scenario: &OnlineScenario{
			Process: taskgen.Poisson{Rate: 0.08, MeanLifetime: 1000},
			Horizon: 4000,
		},
	}
}
