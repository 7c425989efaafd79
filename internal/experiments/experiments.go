// Package experiments is the evaluation harness that regenerates every
// figure of Han et al. (ICPP 2016), Section IV: parameter sweeps over
// synthetic task-set populations, comparing the five partitioning
// schemes on four metrics:
//
//	(a) schedulability ratio,
//	(b) system utilization U_sys        (schedulable sets only),
//	(c) average core utilization U_avg  (schedulable sets only),
//	(d) workload imbalance factor       (schedulable sets only).
//
// Each data point aggregates Sets independently generated task sets;
// all schemes are evaluated on the same sets (paired comparison, as in
// the paper). Generation is deterministic in (Seed, point, set index),
// so results are reproducible and independent of the worker count for
// the schedulability ratio (exact counts) and reproducible for a fixed
// worker count for the mean metrics.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/stats"
	"catpa/internal/taskgen"
	"catpa/internal/textplot"
)

// Params is one experimental parameter point (the paper's defaults
// plus the value under study).
type Params struct {
	M     int
	K     int
	NSU   float64
	Alpha float64
	IFC   taskgen.Range
	N     taskgen.IntRange
}

// DefaultParams returns the paper's default point: M=8, K=4, NSU=0.6,
// alpha=0.7, IFC=0.4, N ~ U[40,200].
func DefaultParams() Params {
	return Params{
		M:     8,
		K:     4,
		NSU:   0.6,
		Alpha: partition.DefaultAlpha,
		IFC:   taskgen.Range{Lo: 0.4, Hi: 0.4},
		N:     taskgen.IntRange{Lo: 40, Hi: 200},
	}
}

// genConfig converts the point to a generator configuration.
func (p Params) genConfig() taskgen.Config {
	cfg := taskgen.DefaultConfig()
	cfg.M = p.M
	cfg.K = p.K
	cfg.NSU = p.NSU
	cfg.IFC = p.IFC
	cfg.N = p.N
	return cfg
}

// Sweep describes one figure: a parameter axis and the population per
// point.
type Sweep struct {
	// Name identifies the experiment ("fig1".."fig5").
	Name string
	// Title is the figure caption.
	Title string
	// Param is the varied parameter's axis label.
	Param string
	// Values is the X axis.
	Values []float64
	// Apply installs one X value into a parameter point.
	Apply func(*Params, float64)
	// Sets is the number of task sets per point (the paper uses
	// 50,000; the CLI default is lower for turnaround).
	Sets int
	// Seed roots the deterministic generation.
	Seed int64
	// Workers bounds the worker pool; 0 selects GOMAXPROCS.
	Workers int
	// Variants lists the (scheme, backend) pairs to compare; nil
	// selects all five schemes on the default EDF-VD backend.
	Variants []Variant
	// Scenario selects the evaluation protocol per replication; nil
	// selects the paper's static protocol (generate, partition once,
	// record the verdict).
	Scenario Scenario
}

// ActiveVariants resolves the sweep's variant list: Variants when set,
// the five default-backend schemes otherwise. Cells, metrics and
// chart series are indexed like this list.
func (s *Sweep) ActiveVariants() []Variant {
	if len(s.Variants) > 0 {
		return s.Variants
	}
	return DefaultVariants()
}

// Cell aggregates one (point, variant) cell of a sweep. For online
// sweeps Sched counts clean replications (no arrival shed) and the
// conditional means aggregate the end-of-horizon system state of clean
// replications, so the four static charts keep their meaning; Online
// carries the arrival-resolved aggregates. Static sweeps leave Online
// nil, which the checkpoint journal omits — version-1 records decode
// and re-encode byte-identically.
type Cell struct {
	Sched  stats.Ratio
	Usys   stats.Mean
	Uavg   stats.Mean
	Imb    stats.Mean
	Online *OnlineCell `json:"Online,omitempty"`
}

func (c *Cell) merge(o *Cell) {
	c.Sched.Merge(&o.Sched)
	c.Usys.Merge(&o.Usys)
	c.Uavg.Merge(&o.Uavg)
	c.Imb.Merge(&o.Imb)
	if o.Online != nil {
		if c.Online == nil {
			c.Online = newOnlineCell(len(o.Online.UtilOverTime))
		}
		c.Online.merge(o.Online)
	}
}

// Point is one X value's results across variants (indexed like the
// sweep's variant list).
type Point struct {
	X     float64
	Cells []Cell
}

// Result is a finished sweep. Points whose evaluation was skipped (via
// RunConfig.Skip) or not reached before cancellation carry a nil Cells
// slice; the fault-tolerant runner fills skipped points from its
// checkpoint before the result is consumed.
type Result struct {
	Sweep  *Sweep
	Points []Point
	// Quarantined lists every task set whose evaluation panicked,
	// ordered by (point, set index). Each quarantined set is counted
	// as unschedulable for every scheme, so totals stay exact.
	Quarantined []Quarantine
}

// SetHook observes the start of every task-set evaluation. It runs in
// the worker goroutine immediately before the (point, set) pair is
// generated and partitioned, and it may panic or stall: the harness
// must quarantine the former and tolerate the latter without altering
// any count. Production runs pass a nil hook; the only implementation
// lives in internal/runner/faultinject.
type SetHook interface {
	BeforeSet(point, set int)
}

// Quarantine is the reproduction handle of one task set whose
// evaluation panicked: regenerating GenerateIndexed(cfg, Seed, Set) at
// the point's parameters replays the exact input. The set is counted
// as unschedulable for every scheme in its point's cells.
type Quarantine struct {
	// Point is the index into Sweep.Values; X its parameter value.
	Point int     `json:"point"`
	X     float64 `json:"x"`
	// Set is the task-set index within the point.
	Set int `json:"set"`
	// Seed is the sweep seed the set was generated from.
	Seed int64 `json:"seed"`
	// Err is the recovered panic value, rendered as text.
	Err string `json:"err"`
}

// String renders the reproduction triple and the panic message.
func (q Quarantine) String() string {
	return fmt.Sprintf("seed=%d point=%d set=%d: %s", q.Seed, q.Point, q.Set, q.Err)
}

// RunConfig tunes RunContext beyond the sweep definition itself. The
// zero value (or a nil *RunConfig) reproduces Run's behaviour.
type RunConfig struct {
	// Skip reports whether the point at the given index is already
	// complete and must not be recomputed (checkpoint resume). Skipped
	// points keep a nil Cells slice in the result.
	Skip func(point int) bool
	// OnPoint runs after each point completes, in sweep order, with
	// the point's results and its quarantined sets. The callback runs
	// on the sweep goroutine: the checkpoint journal is flushed before
	// the next point starts.
	OnPoint func(point int, p *Point, quarantined []Quarantine)
	// Hook is the fault-injection surface; nil in production.
	Hook SetHook
	// Metrics attaches the observability surface (counters and stage
	// timings, see NewSweepMetrics); nil runs without instrumentation.
	Metrics *SweepMetrics
}

// job is one stripe of one sweep point: the worker evaluates every
// set index congruent to first modulo stride and accumulates into its
// private row (and quarantine list), then signals done.
type job struct {
	cfg      *taskgen.Config
	seed     int64
	m, k     int
	opts     *partition.Options
	variants []Variant
	groups   []backendGroup
	sets     int
	first    int
	stride   int
	point    int
	x        float64
	hook     SetHook
	metrics  *SweepMetrics
	row      []Cell
	quar     *[]Quarantine
	done     *sync.WaitGroup
}

// pool is a persistent worker pool. Each worker owns one scenario
// worker — for the static protocol, one taskgen.Generator and one
// partition.Partitioner per analysis backend — for its whole lifetime,
// so the steady state of a sweep — generate, partition, aggregate —
// performs no heap allocations regardless of how many points and
// figures are executed (on backends whose analysis is itself
// allocation-free). Jobs are stripes of set indices; determinism is
// preserved because stripe membership depends only on the worker
// count, not on scheduling order, and rows are merged in stripe order.
type pool struct {
	sc   Scenario
	jobs chan job
}

func newPool(workers int, sc Scenario) *pool {
	p := &pool{sc: sc, jobs: make(chan job)}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// close shuts the pool down; idle workers exit.
func (p *pool) close() { close(p.jobs) }

func (p *pool) worker() {
	sw := p.sc.newWorker()
	// jb lives for the goroutine: passing its address through the
	// scenario interface would otherwise heap-allocate every job.
	var jb job
	for jb = range p.jobs {
		sw.arm(&jb)
		for set := jb.first; set < jb.sets; set += jb.stride {
			q := sw.evalSet(&jb, set)
			if m := jb.metrics; m != nil {
				m.setsTotal.Inc()
			}
			if q == nil {
				continue
			}
			// Panic quarantine: the set counts as unschedulable for
			// every variant, so per-variant totals stay exact, and the
			// reproduction triple is recorded. The scenario worker's
			// scratch state may have been abandoned mid-update, so the
			// pool discards it and arms a fresh one before the next
			// set.
			*jb.quar = append(*jb.quar, *q)
			for vi := range jb.variants {
				jb.row[vi].Sched.Add(false)
			}
			if m := jb.metrics; m != nil {
				m.setsQuarantined.Inc()
				for vi := range jb.variants {
					m.rejected[vi].Inc()
				}
			}
			sw = p.sc.newWorker()
			sw.arm(&jb)
		}
		jb.done.Done()
	}
}

// armWorker ensures the worker owns one correctly-dimensioned
// Partitioner per backend group of the job, creating missing ones and
// re-dimensioning survivors. RunContext validates every backend name
// upfront, so the lookup cannot fail here.
func armWorker(parts map[string]*partition.Partitioner, jb *job) {
	for _, g := range jb.groups {
		if part, ok := parts[g.backend]; ok {
			part.Reset(jb.m, jb.k)
			continue
		}
		be, err := partition.NewBackend(g.backend)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		parts[g.backend] = partition.NewWithBackend(jb.m, jb.k, be)
	}
}

// runSet evaluates one (point, set) pair, converting a panic — from
// the fault-injection hook, the generator or the partitioning analysis
// — into a Quarantine instead of taking down the process. Accumulation
// into the row happens only after evaluation returns, so a quarantined
// set contributes nothing but its Sched.Add(false) markers (and its
// rejected counters, added by the worker loop).
func runSet(gen *taskgen.Generator, parts map[string]*partition.Partitioner, evals *[]partition.Eval, jb *job, set int) (q *Quarantine) {
	defer func() {
		if r := recover(); r != nil {
			q = &Quarantine{Point: jb.point, X: jb.x, Set: set, Seed: jb.seed, Err: fmt.Sprint(r)}
		}
	}()
	if jb.hook != nil {
		jb.hook.BeforeSet(jb.point, set)
	}
	if cap(*evals) < len(jb.variants) {
		*evals = make([]partition.Eval, len(jb.variants))
	} else {
		*evals = (*evals)[:len(jb.variants)]
	}
	m := jb.metrics
	if m == nil {
		ts := gen.Generate(jb.cfg, jb.seed, set)
		for _, g := range jb.groups {
			// One Prepare per backend, then Place + Summarize per
			// scheme: the set's preparation is shared across the
			// group's schemes.
			part := parts[g.backend]
			part.Prepare(ts)
			for i, s := range g.schemes {
				part.Place(s, jb.opts)
				(*evals)[g.idx[i]] = part.Summarize()
			}
		}
	} else {
		// Instrumented path: identical call sequence, with per-stage
		// spans accumulated into one observation per stage per set
		// (preparation counts as placing, as before). Everything here
		// is atomics on preallocated storage — zero allocations.
		sp := obs.StartSpan(m.genSeconds)
		ts := gen.Generate(jb.cfg, jb.seed, set)
		sp.End()
		var placing, analyzing time.Duration
		for _, g := range jb.groups {
			part := parts[g.backend]
			tp := time.Now()
			part.Prepare(ts)
			placing += time.Since(tp)
			for i, s := range g.schemes {
				t0 := time.Now()
				part.Place(s, jb.opts)
				t1 := time.Now()
				ev := part.Summarize()
				analyzing += time.Since(t1)
				placing += t1.Sub(t0)
				(*evals)[g.idx[i]] = ev
			}
		}
		m.partSeconds.Observe(placing)
		m.anaSeconds.Observe(analyzing)
	}
	for vi := range jb.variants {
		ev, cell := &(*evals)[vi], &jb.row[vi]
		cell.Sched.Add(ev.Feasible)
		if ev.Feasible {
			cell.Usys.Add(ev.Usys)
			cell.Uavg.Add(ev.Uavg)
			cell.Imb.Add(ev.Imbalance)
		}
		if m != nil {
			if ev.Feasible {
				m.accepted[vi].Inc()
			} else {
				m.rejected[vi].Inc()
			}
		}
	}
	return nil
}

// Run executes the sweep to completion. It is RunContext with a
// background context and default configuration.
func (s *Sweep) Run() *Result {
	res, err := s.RunContext(context.Background(), nil)
	if err != nil {
		// Unreachable: a background context never cancels and no other
		// error path exists.
		panic(fmt.Sprintf("experiments: Run: %v", err))
	}
	return res
}

// RunContext executes the sweep under a context, point by point.
// Cancellation is honoured at point boundaries: the in-flight point
// drains (its workers finish their stripes, keeping its counts exact),
// OnPoint fires for it, and the remaining points are left with nil
// Cells; the partial result is returned together with ctx.Err(). A nil
// cfg selects the defaults (no skipping, no callbacks, no hook).
func (s *Sweep) RunContext(ctx context.Context, cfg *RunConfig) (*Result, error) {
	if cfg == nil {
		cfg = &RunConfig{}
	}
	variants := s.ActiveVariants()
	if err := s.validateVariants(variants); err != nil {
		return nil, err
	}
	sc := s.scenario()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	groups := buildGroups(variants)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := newPool(workers, sc)
	defer pl.close()
	res := &Result{Sweep: s, Points: make([]Point, len(s.Values))}
	for pi, x := range s.Values {
		res.Points[pi] = Point{X: x}
		if cfg.Skip != nil && cfg.Skip(pi) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		var quar []Quarantine
		res.Points[pi], quar = s.runPoint(pl, pi, x, variants, groups, workers, cfg.Hook, cfg.Metrics)
		res.Quarantined = append(res.Quarantined, quar...)
		if cfg.OnPoint != nil {
			cfg.OnPoint(pi, &res.Points[pi], quar)
		}
	}
	return res, nil
}

// validateVariants checks every variant's backend name and every
// sweep point's K against the backend's level
// bound, so misconfiguration surfaces as one error before any worker
// runs (a K overflow inside the pool would crash the process, not
// quarantine).
func (s *Sweep) validateVariants(variants []Variant) error {
	backends := make(map[string]partition.Backend)
	for _, v := range variants {
		name := v.backendName()
		if _, ok := backends[name]; ok {
			continue
		}
		be, err := partition.NewBackend(name)
		if err != nil {
			return fmt.Errorf("experiments: variant %s: %v", v, err)
		}
		backends[name] = be
	}
	for _, x := range s.Values {
		params := DefaultParams()
		if s.Apply != nil {
			s.Apply(&params, x)
		}
		for name, be := range backends {
			if maxK := be.MaxLevels(); maxK > 0 && params.K > maxK {
				return fmt.Errorf("experiments: point %s=%v needs K=%d but backend %s supports at most K=%d",
					s.Param, x, params.K, name, maxK)
			}
		}
	}
	return nil
}

// runPoint evaluates one X value: Sets task sets, each partitioned by
// every variant. The schedulability counts are exact and therefore
// independent of the worker count; the mean metrics use compensated
// accumulation, so they agree across worker counts to ~1e-9 even
// though the per-stripe summation order differs.
func (s *Sweep) runPoint(pl *pool, pi int, x float64, variants []Variant, groups []backendGroup, workers int, hook SetHook, metrics *SweepMetrics) (Point, []Quarantine) {
	params := DefaultParams()
	if s.Apply != nil {
		s.Apply(&params, x)
	}
	cfg := params.genConfig()
	// All points share the seed stream: points whose generator config
	// coincides (e.g. the alpha sweep, which only changes a heuristic
	// knob) then evaluate literally identical task-set populations,
	// reproducing the paper's flat baseline curves in Fig. 3 exactly.
	pointSeed := s.Seed
	opts := partition.Options{Alpha: params.Alpha}

	// Each worker accumulates a private cell row (and quarantine list)
	// over its stripe of set indices, then rows are merged in stripe
	// order.
	rows := make([][]Cell, workers)
	quars := make([][]Quarantine, workers)
	var done sync.WaitGroup
	done.Add(workers)
	for w := 0; w < workers; w++ {
		rows[w] = make([]Cell, len(variants))
		pl.jobs <- job{
			cfg:      &cfg,
			seed:     pointSeed,
			m:        params.M,
			k:        params.K,
			opts:     &opts,
			variants: variants,
			groups:   groups,
			sets:     s.Sets,
			first:    w,
			stride:   workers,
			point:    pi,
			x:        x,
			hook:     hook,
			metrics:  metrics,
			row:      rows[w],
			quar:     &quars[w],
			done:     &done,
		}
	}
	done.Wait()

	p := Point{X: x, Cells: make([]Cell, len(variants))}
	var quar []Quarantine
	for w := 0; w < workers; w++ {
		for vi := range variants {
			p.Cells[vi].merge(&rows[w][vi])
		}
		quar = append(quar, quars[w]...)
	}
	// Stripe membership depends on the worker count; sorting by set
	// index makes the quarantine report deterministic regardless.
	sort.Slice(quar, func(i, j int) bool { return quar[i].Set < quar[j].Set })
	return p, quar
}

// Metric identifies one of the four sub-figures.
type Metric int

// The four metrics of every figure.
const (
	SchedRatio Metric = iota
	Usys
	Uavg
	Imbalance
)

// MetricNames maps metrics to sub-figure letters and captions.
var MetricNames = map[Metric]string{
	SchedRatio: "(a) schedulability ratio",
	Usys:       "(b) system utilization U_sys",
	Uavg:       "(c) average core utilization U_avg",
	Imbalance:  "(d) workload imbalance factor",
}

// Metrics lists the four metrics in sub-figure order.
var Metrics = []Metric{SchedRatio, Usys, Uavg, Imbalance}

// value extracts a metric from a cell.
func (c *Cell) value(m Metric) float64 {
	switch m {
	case SchedRatio:
		return c.Sched.Value()
	case Usys:
		return c.Usys.Mean()
	case Uavg:
		return c.Uavg.Mean()
	case Imbalance:
		return c.Imb.Mean()
	default:
		panic(fmt.Sprintf("experiments: unknown metric %d", m))
	}
}

// Chart converts one metric of the result into a textplot chart.
//
//mc:deterministic chart series order is part of the golden output
func (r *Result) Chart(m Metric) *textplot.Chart {
	variants := r.Sweep.ActiveVariants()
	ch := &textplot.Chart{
		Title:  fmt.Sprintf("%s %s", r.Sweep.Title, MetricNames[m]),
		XLabel: r.Sweep.Param,
		YLabel: MetricNames[m],
		X:      r.Sweep.Values,
	}
	for vi, v := range variants {
		series := textplot.Series{Label: v.String(), Y: make([]float64, len(r.Points))}
		for pi := range r.Points {
			series.Y[pi] = r.Points[pi].Cells[vi].value(m)
		}
		ch.Series = append(ch.Series, series)
	}
	return ch
}

// Charts returns all four sub-figures: the static metric family, or
// the arrival-resolved online family when the sweep ran an
// OnlineScenario.
//
//mc:deterministic chart order is part of the golden output
func (r *Result) Charts() []*textplot.Chart {
	if o, ok := r.Sweep.scenario().(*OnlineScenario); ok {
		return r.onlineCharts(o)
	}
	out := make([]*textplot.Chart, 0, len(Metrics))
	for _, m := range Metrics {
		out = append(out, r.Chart(m))
	}
	return out
}

// Value returns the metric for (point index, scheme index); a typed
// accessor for tests and reports.
func (r *Result) Value(pi, si int, m Metric) float64 {
	return r.Points[pi].Cells[si].value(m)
}
