package main

import (
	"runtime"
	"time"
)

// tracer records spans around the calls the benchmark makes into the
// system's layers. A replay issues millions of spans, so spans of one
// name are kept in memory as a running count and total and reported
// when the benchmark ends. The replays record leaf spans only — one
// per layer call, never nested — so a layer's self time is its total,
// and the replay's wall time minus every total is the residual that no
// span covers.
type tracer struct {
	spans  []*spanTotal
	byName map[string]*spanTotal
}

// spanTotal accumulates the spans of one name. frame is the function
// the span wraps, as a CPU profile names it, for the profile
// cross-check.
type spanTotal struct {
	name  string
	frame string
	n     int64
	total time.Duration
}

func newTracer() *tracer { return &tracer{byName: make(map[string]*spanTotal)} }

// span returns the accumulator for name, creating it on first use. A
// nil tracer (an untraced replay) returns nil, whose spans are no-ops.
func (t *tracer) span(name, frame string) *spanTotal {
	if t == nil {
		return nil
	}
	s := t.byName[name]
	if s == nil {
		s = &spanTotal{name: name, frame: frame}
		t.byName[name] = s
		t.spans = append(t.spans, s)
	}
	return s
}

// get returns the accumulator for name, nil when no such span ran.
func (t *tracer) get(name string) *spanTotal { return t.byName[name] }

// covered returns the summed duration of every span.
func (t *tracer) covered() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		sum += s.total
	}
	return sum
}

// openSpan is a started span; end records it.
type openSpan struct {
	acc *spanTotal
	t0  time.Time
}

func (s *spanTotal) start() openSpan {
	if s == nil {
		return openSpan{}
	}
	return openSpan{acc: s, t0: time.Now()}
}

func (o openSpan) end() {
	if o.acc != nil {
		o.acc.n++
		o.acc.total += time.Since(o.t0)
	}
}

// mean returns the mean span duration in units of unit, 0 for a span
// that never ran.
func (s *spanTotal) mean(unit time.Duration) float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// layerRun is the outcome of one job's traced replay: the spans, and
// the wall and CPU time of the same replay with and without them.
type layerRun struct {
	tr                  *tracer
	traced, plain       time.Duration
	tracedCPU, plainCPU time.Duration
}

// overheadShare is the extra CPU time the spans cost, as a share of the
// untraced replay (CPU time, so that CPU steal during one of the two
// replays does not read as overhead or as a saving).
func (l *layerRun) overheadShare() float64 {
	return l.tracedCPU.Seconds()/l.plainCPU.Seconds() - 1
}

// measure runs the untraced replay, the traced one (under prof), and
// the untraced one again, recording their wall and CPU times. Each run
// starts from a collected heap, and the untraced replay keeps the faster
// of its two runs, so that garbage, warm-up and drift between the runs
// do not read as tracing overhead.
func (l *layerRun) measure(prof *profiler, plain, traced func() (time.Duration, error)) error {
	timed := func(fn func() (time.Duration, error)) (wall, cpu time.Duration, err error) {
		runtime.GC()
		c0 := cpuTime()
		wall, err = fn()
		return wall, cpuTime() - c0, err
	}
	w1, c1, err := timed(plain)
	if err != nil {
		return err
	}
	err = prof.run(func() (err error) {
		l.traced, l.tracedCPU, err = timed(traced)
		return err
	})
	if err != nil {
		return err
	}
	w2, c2, err := timed(plain)
	if err != nil {
		return err
	}
	l.plain, l.plainCPU = min(w1, w2), min(c1, c2)
	return nil
}

// residualShare is the share of the traced replay's wall time that no
// span covers.
func (l *layerRun) residualShare() float64 {
	return 1 - l.tr.covered().Seconds()/l.traced.Seconds()
}
