package main

import (
	"fmt"
	"time"

	"catpa/internal/experiments"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// onlineJob is the online-onl1 workload: the online companion
// experiments.OnlineFigure with its own parameters (Poisson 0.08 with
// mean lifetime 1000, horizon 4000, 64-task universes; CA-TPA, FFD and
// Hybrid on edfvd plus CA-TPA on amcrtb) on one worker. It drives the
// partition layer through StartIncremental/Admit/Release deltas, and
// it is the only workload that runs the amcrtb backend.
type onlineJob struct {
	seed   int64
	perSet time.Duration // calibrated cost of one replication, all variants
	rates  []float64     // verdicts per CPU second of each measured repetition
}

const onlineWarmSets = 8

func (*onlineJob) name() string { return wlOnline }
func (*onlineJob) close()       {}

func onl1(sets int, seed int64) *experiments.Sweep {
	sw := experiments.OnlineFigure(sets, seed)
	sw.Workers = 1
	return sw
}

// setup warms the pool and calibrates the per-replication cost.
func (j *onlineJob) setup() error {
	sw := onl1(onlineWarmSets, subSeed(j.seed, streamOnlineWarm, 0))
	_, el, err := runContext(sw)
	if err != nil {
		return err
	}
	j.perSet = el / time.Duration(onlineWarmSets*len(sw.Values))
	return nil
}

// arrivals sums the admission verdicts of an online result.
func arrivals(res *experiments.Result) int64 {
	var n int64
	for _, p := range res.Points {
		for _, c := range p.Cells {
			if c.Online != nil {
				n += c.Online.Admitted.N()
			}
		}
	}
	return n
}

// sample runs repetitions of about repTarget each until budget is
// spent; each repetition is a fresh onl1 sweep of its own seed, timed
// by the CPU time it takes (see cpuTime). The first repetition is
// checked against the layer replay.
func (j *onlineJob) sample(budget time.Duration, ck *checker) error {
	points := len(onl1(1, 1).Values)
	sets := setsFor(repTarget, j.perSet, points)
	for spent := time.Duration(0); spent == 0 || spent < budget; {
		rep := len(j.rates)
		sw := onl1(sets, subSeed(j.seed, streamOnline, rep))
		c0 := cpuTime()
		res, el, err := runContext(sw)
		if err != nil {
			return err
		}
		cpu := cpuTime() - c0
		spent += el
		n := arrivals(res)
		ck.ops += n
		j.rates = append(j.rates, float64(n)/cpu.Seconds())
		if rep == 0 {
			want, err := replayOnline(sw, nil)
			if err != nil {
				return err
			}
			checkOnline(ck, sw, res, want)
		}
	}
	return nil
}

func (j *onlineJob) report(m metrics) { m["online.arrivals_per_s"] = median(j.rates) }

// trace makes four passes over one online sweep: Sweep.RunContext, and
// the layer replay untraced, traced and untraced again.
func (j *onlineJob) trace(budget time.Duration, m metrics, ck *checker, prof *profiler) (*layerRun, error) {
	points := len(onl1(1, 1).Values)
	sw := onl1(setsFor(budget/4, j.perSet, points), subSeed(j.seed, streamOnlineTrace, 0))
	res, _, err := runContext(sw)
	if err != nil {
		return nil, err
	}
	var want, got *onlineCounts
	lr := &layerRun{tr: newTracer()}
	err = lr.measure(prof, func() (time.Duration, error) {
		var err error
		if want, err = replayOnline(sw, nil); err != nil {
			return 0, err
		}
		return want.wall, nil
	}, func() (time.Duration, error) {
		var err error
		if got, err = replayOnline(sw, lr.tr); err != nil {
			return 0, err
		}
		return got.wall, nil
	})
	if err != nil {
		return nil, err
	}
	tr := lr.tr
	ck.ops += 4 * arrivals(res)
	checkOnline(ck, sw, res, want)
	checkOnline(ck, sw, res, got)

	m["taskgen.generate.us_per_set"] = tr.get("taskgen.generate").mean(time.Microsecond)
	m["taskgen.stream.us_per_set"] = tr.get("taskgen.stream").mean(time.Microsecond)
	m["partition.start.us"] = tr.get("partition.start").mean(time.Microsecond)
	m["partition.summarize.ns"] = tr.get("partition.summarize").mean(time.Nanosecond)
	for vi, v := range sw.ActiveVariants() {
		m["partition.admit."+v.Label()+".ns"] = tr.get("partition.admit." + v.Label()).mean(time.Nanosecond)
		m["partition.release."+v.Label()+".ns"] = tr.get("partition.release." + v.Label()).mean(time.Nanosecond)
		var hits, total int64
		for pi := range want.admitted {
			hits += want.admitted[pi][vi]
			total += want.arrivals[pi][vi]
		}
		m["partition.admit_ratio."+v.Label()] = float64(hits) / float64(total)
	}
	m["online.events_per_replication"] = float64(want.events) / float64(sw.Sets*points)
	return lr, nil
}

// checkOnline compares an online result's per-cell admission counts
// with a replay's.
func checkOnline(ck *checker, sw *experiments.Sweep, res *experiments.Result, c *onlineCounts) {
	for pi := range sw.Values {
		cells := res.Points[pi].Cells
		if !ck.expect(len(cells) == len(c.admitted[pi]), "online point %d: %d cells, want %d", pi, len(cells), len(c.admitted[pi])) {
			continue
		}
		for vi := range cells {
			oc := cells[vi].Online
			ck.expect(oc != nil && oc.Admitted.Hits() == c.admitted[pi][vi] && oc.Admitted.N() == c.arrivals[pi][vi],
				"online point %d variant %d: admitted cell %v, replay %d of %d",
				pi, vi, oc, c.admitted[pi][vi], c.arrivals[pi][vi])
		}
	}
}

// onlineCounts is the outcome of an online replay: admitted and
// arriving tasks per point and variant, the events replayed, and the
// replay's wall time.
type onlineCounts struct {
	admitted, arrivals [][]int64
	events             int64
	wall               time.Duration
}

// replayOnline re-drives every replication of an online sweep through
// the layers' public calls, as the online scenario makes them: the task
// universe from taskgen.Generator.Generate, its event stream from
// taskgen.StreamBuilder.Build, then per variant a partition session —
// StartIncremental, Admit on each arrival, Release on the departure of
// an admitted task, and Summarize at every closed time bucket and at
// the horizon. With a non-nil tracer each call gets a span.
func replayOnline(sw *experiments.Sweep, tr *tracer) (*onlineCounts, error) {
	o, ok := sw.Scenario.(*experiments.OnlineScenario)
	if !ok || o.NewSource != nil {
		return nil, fmt.Errorf("online replay: %s is not a Table-IV online sweep", sw.Name)
	}
	variants := sw.ActiveVariants()
	genS := tr.span("taskgen.generate", frameGenerate)
	streamS := tr.span("taskgen.stream", frameStream)
	startS := tr.span("partition.start", frameStart)
	sumS := tr.span("partition.summarize", frameSummarize)
	admitS := make([]*spanTotal, len(variants))
	releaseS := make([]*spanTotal, len(variants))
	for vi, v := range variants {
		admitS[vi] = tr.span("partition.admit."+v.Label(), frameAdmit)
		releaseS[vi] = tr.span("partition.release."+v.Label(), frameRelease)
	}
	buckets := o.Buckets
	if buckets <= 0 {
		buckets = 16 // the scenario's default resolution
	}
	bw := o.Horizon / float64(buckets)

	gen := taskgen.NewGenerator()
	sb := taskgen.NewStreamBuilder()
	parts := make(map[string]*partition.Partitioner)
	c := &onlineCounts{admitted: make([][]int64, len(sw.Values)), arrivals: make([][]int64, len(sw.Values))}
	t0 := time.Now()
	for pi, x := range sw.Values {
		p := pointParams(sw, x)
		cfg := genConfig(p)
		opts := partition.Options{Alpha: p.Alpha}
		c.admitted[pi] = make([]int64, len(variants))
		c.arrivals[pi] = make([]int64, len(variants))
		for set := 0; set < sw.Sets; set++ {
			sp := genS.start()
			ts := gen.Generate(&cfg, sw.Seed, set)
			sp.end()
			sp = streamS.start()
			events := sb.Build(o.Process, len(ts.Tasks), o.Horizon, sw.Seed, set)
			sp.end()
			c.events += int64(len(events))
			for vi, v := range variants {
				part, err := partitioner(parts, v, p.M, p.K)
				if err != nil {
					return nil, err
				}
				sp = startS.start()
				part.StartIncremental(ts, v.Scheme, &opts)
				sp.end()
				b := 0
				for ei := range events {
					e := &events[ei]
					if float64(b+1)*bw <= e.Time {
						sp = sumS.start()
						part.Summarize()
						sp.end()
						for b < buckets && float64(b+1)*bw <= e.Time {
							b++
						}
					}
					if e.Arrive {
						c.arrivals[pi][vi]++
						sp = admitS[vi].start()
						_, ok := part.Admit(e.Task)
						sp.end()
						if ok {
							c.admitted[pi][vi]++
						}
					} else if part.Assigned(e.Task) >= 0 {
						sp = releaseS[vi].start()
						part.Release(e.Task)
						sp.end()
					}
				}
				sp = sumS.start()
				part.Summarize()
				sp.end()
			}
		}
	}
	c.wall = time.Since(t0)
	return c, nil
}

// partitioner returns the pooled partitioner of v's backend, dimensioned
// for m cores and k levels.
func partitioner(pool map[string]*partition.Partitioner, v experiments.Variant, m, k int) (*partition.Partitioner, error) {
	name := v.Backend
	if name == "" {
		name = partition.DefaultBackend
	}
	if p := pool[name]; p != nil {
		p.Reset(m, k)
		return p, nil
	}
	be, err := partition.NewBackend(name)
	if err != nil {
		return nil, err
	}
	p := partition.NewWithBackend(m, k, be)
	pool[name] = p
	return p, nil
}
