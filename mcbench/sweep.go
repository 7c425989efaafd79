package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"catpa/internal/experiments"
	"catpa/internal/partition"
	"catpa/internal/runner"
	"catpa/internal/taskgen"
)

// Profile frames of the layer calls the replays wrap.
const (
	frameGenerate  = "catpa/internal/taskgen.(*Generator).Generate"
	frameStream    = "catpa/internal/taskgen.(*StreamBuilder).Build"
	framePrepare   = "catpa/internal/partition.(*Partitioner).Prepare"
	framePlace     = "catpa/internal/partition.(*Partitioner).Place"
	frameSummarize = "catpa/internal/partition.(*Partitioner).Summarize"
	frameStart     = "catpa/internal/partition.(*Partitioner).StartIncremental"
	frameAdmit     = "catpa/internal/partition.(*Partitioner).Admit"
	frameRelease   = "catpa/internal/partition.(*Partitioner).Release"
)

// sweepJob is the sweep-fig1 workload: the paper's Fig. 1 static sweep
// (experiments.Figure(1, …): NSU 0.4–0.8, M=8, K=4, N~U[40,200], all
// five schemes on edfvd) on one worker through runner.Run with a
// checkpoint journal, as `mcexp -checkpoint` runs it at paper scale.
type sweepJob struct {
	seed   int64
	dir    string        // checkpoint journals
	perSet time.Duration // calibrated cost of one set, all schemes
	rates  []float64     // sets per CPU second of each measured repetition
}

const (
	sweepWarmSets = 40
	// repTarget is the length of one measured repetition of the sweep
	// and online jobs; rates are reported as the median repetition.
	repTarget = 500 * time.Millisecond
)

func (*sweepJob) name() string { return wlSweep }
func (*sweepJob) close()       {}

func fig1(sets int, seed int64, workers int) *experiments.Sweep {
	sw := experiments.Figure(1, sets, seed)
	sw.Workers = workers
	return sw
}

// setsFor sizes a sweep of the given points so that one pass takes
// about target at the calibrated per-set cost.
func setsFor(target, perSet time.Duration, points int) int {
	n := int(target / (perSet * time.Duration(points)))
	return max(2, min(n, 20000))
}

// runSweep runs sw through runner.Run with a fresh checkpoint journal.
func (j *sweepJob) runSweep(sw *experiments.Sweep) (*experiments.Result, time.Duration, error) {
	path := filepath.Join(j.dir, fmt.Sprintf("%s-%d-w%d.ckpt", sw.Name, sw.Seed, sw.Workers))
	defer os.Remove(path)
	t0 := time.Now()
	rep, err := runner.Run(context.Background(), sw, &runner.Options{CheckpointPath: path})
	el := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("runner.Run: %w", err)
	}
	if !rep.Complete() || len(rep.Quarantined) > 0 || len(rep.Resumed) > 0 {
		return nil, 0, fmt.Errorf("runner.Run: %d quarantined, %d resumed, complete=%v",
			len(rep.Quarantined), len(rep.Resumed), rep.Complete())
	}
	return rep.Result, el, nil
}

// runContext runs sw through Sweep.RunContext, without a checkpoint.
func runContext(sw *experiments.Sweep) (*experiments.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := sw.RunContext(context.Background(), nil)
	el := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("Sweep.RunContext: %w", err)
	}
	if len(res.Quarantined) > 0 {
		return nil, 0, fmt.Errorf("Sweep.RunContext: %d sets quarantined", len(res.Quarantined))
	}
	return res, el, nil
}

// setup warms the worker pool and the checkpoint path, and calibrates
// the per-set cost that sizes the measured sweeps.
func (j *sweepJob) setup() error {
	sw := fig1(sweepWarmSets, subSeed(j.seed, streamSweepWarm, 0), 1)
	_, el, err := j.runSweep(sw)
	if err != nil {
		return err
	}
	j.perSet = el / time.Duration(sweepWarmSets*len(sw.Values))
	return nil
}

// sample runs repetitions of about repTarget each until budget is
// spent; each repetition is a fresh Fig. 1 sweep of its own seed, timed
// by the CPU time it takes (see cpuTime). The first repetition is
// checked against the layer replay.
func (j *sweepJob) sample(budget time.Duration, ck *checker) error {
	points := len(fig1(1, 1, 1).Values)
	sets := setsFor(repTarget, j.perSet, points)
	for spent := time.Duration(0); spent == 0 || spent < budget; {
		rep := len(j.rates)
		sw := fig1(sets, subSeed(j.seed, streamSweep, rep), 1)
		c0 := cpuTime()
		res, el, err := j.runSweep(sw)
		if err != nil {
			return err
		}
		cpu := cpuTime() - c0
		spent += el
		n := sets * points
		ck.ops += int64(n)
		j.rates = append(j.rates, float64(n)/cpu.Seconds())
		if rep == 0 {
			want, _, err := replaySweep(sw, nil)
			if err != nil {
				return err
			}
			checkSweep(ck, "runner.Run", sw, res, want)
		}
	}
	return nil
}

func (j *sweepJob) report(m metrics) { m["sweep.sets_per_s"] = median(j.rates) }

// trace makes six passes over one sweep: runner.Run, Sweep.RunContext
// on one and on two workers, and the layer replay untraced, traced and
// untraced again. Checkpointing is runner.Run minus RunContext;
// aggregation is RunContext minus the untraced replay.
func (j *sweepJob) trace(budget time.Duration, m metrics, ck *checker, prof *profiler) (*layerRun, error) {
	points := len(fig1(1, 1, 1).Values)
	sets := setsFor(budget/7, j.perSet, points)
	seed := subSeed(j.seed, streamSweepTrace, 0)
	sw := fig1(sets, seed, 1)
	viaRunner, tRun, err := j.runSweep(sw)
	if err != nil {
		return nil, err
	}
	oneWorker, tCtx, err := runContext(sw)
	if err != nil {
		return nil, err
	}
	twoWorkers, tCtx2, err := runContext(fig1(sets, seed, 2))
	if err != nil {
		return nil, err
	}
	var want, got [][]int64
	lr := &layerRun{tr: newTracer()}
	err = lr.measure(prof, func() (d time.Duration, err error) {
		want, d, err = replaySweep(sw, nil)
		return d, err
	}, func() (d time.Duration, err error) {
		got, d, err = replaySweep(sw, lr.tr)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	tr := lr.tr
	n := sets * points
	ck.ops += int64(6 * n)
	checkSweep(ck, "runner.Run", sw, viaRunner, want)
	checkSweep(ck, "RunContext(1 worker)", sw, oneWorker, want)
	checkSweep(ck, "RunContext(2 workers)", sw, twoWorkers, want)
	for pi := range want {
		for vi := range want[pi] {
			ck.expect(got[pi][vi] == want[pi][vi], "sweep replay point %d variant %d: traced %d, untraced %d",
				pi, vi, got[pi][vi], want[pi][vi])
		}
	}

	m["taskgen.generate.us_per_set"] = tr.get("taskgen.generate").mean(time.Microsecond)
	m["partition.prepare.us_per_set"] = tr.get("partition.prepare").mean(time.Microsecond)
	m["partition.summarize.us"] = tr.get("partition.summarize").mean(time.Microsecond)
	for vi, v := range sw.ActiveVariants() {
		m["partition.place."+v.Label()+".us"] = tr.get("partition.place." + v.Label()).mean(time.Microsecond)
		var acc int64
		for pi := range want {
			acc += want[pi][vi]
		}
		m["partition.accept_ratio."+v.Label()] = float64(acc) / float64(n)
	}
	m["runner.checkpoint.ms_per_point"] = (tRun - tCtx).Seconds() * 1e3 / float64(points)
	m["experiments.aggregate.share"] = (tCtx - lr.plain).Seconds() / tCtx.Seconds()
	m["experiments.pool.scaling_2w"] = tCtx.Seconds() / (2 * tCtx2.Seconds())
	return lr, nil
}

// checkSweep compares a sweep result's per-variant accepted counts with
// the replay's, cell by cell.
func checkSweep(ck *checker, via string, sw *experiments.Sweep, res *experiments.Result, want [][]int64) {
	for pi := range sw.Values {
		cells := res.Points[pi].Cells
		if !ck.expect(len(cells) == len(want[pi]), "%s point %d: %d cells, want %d", via, pi, len(cells), len(want[pi])) {
			continue
		}
		for vi := range cells {
			s := &cells[vi].Sched
			ck.expect(s.Hits() == want[pi][vi] && s.N() == int64(sw.Sets),
				"%s point %d variant %d: accepted %d of %d, replay %d of %d",
				via, pi, vi, s.Hits(), s.N(), want[pi][vi], sw.Sets)
		}
	}
}

// pointParams resolves one sweep point's parameters, as the sweep does.
func pointParams(sw *experiments.Sweep, x float64) experiments.Params {
	p := experiments.DefaultParams()
	if sw.Apply != nil {
		sw.Apply(&p, x)
	}
	return p
}

// genConfig is the generator configuration of a parameter point.
func genConfig(p experiments.Params) taskgen.Config {
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU, cfg.IFC, cfg.N = p.M, p.K, p.NSU, p.IFC, p.N
	return cfg
}

// replaySweep re-drives every (point, set) of a static sweep through the
// layers' public calls, as the sweep's workers make them:
// taskgen.Generator.Generate, then partition.Partitioner.Prepare and,
// per scheme, Place and Summarize. With a non-nil tracer each call gets
// a span. It returns the accepted count per point and variant and the
// replay's wall time.
func replaySweep(sw *experiments.Sweep, tr *tracer) ([][]int64, time.Duration, error) {
	variants := sw.ActiveVariants()
	for _, v := range variants {
		if v.Backend != "" && v.Backend != partition.DefaultBackend {
			return nil, 0, fmt.Errorf("sweep replay: variant %s is not on the default backend", v)
		}
	}
	genS := tr.span("taskgen.generate", frameGenerate)
	prepS := tr.span("partition.prepare", framePrepare)
	sumS := tr.span("partition.summarize", frameSummarize)
	placeS := make([]*spanTotal, len(variants))
	for vi, v := range variants {
		placeS[vi] = tr.span("partition.place."+v.Label(), framePlace)
	}
	gen := taskgen.NewGenerator()
	var part *partition.Partitioner
	accepted := make([][]int64, len(sw.Values))
	t0 := time.Now()
	for pi, x := range sw.Values {
		p := pointParams(sw, x)
		cfg := genConfig(p)
		opts := partition.Options{Alpha: p.Alpha}
		if part == nil {
			part = partition.New(p.M, p.K)
		} else {
			part.Reset(p.M, p.K)
		}
		accepted[pi] = make([]int64, len(variants))
		for set := 0; set < sw.Sets; set++ {
			sp := genS.start()
			ts := gen.Generate(&cfg, sw.Seed, set)
			sp.end()
			sp = prepS.start()
			part.Prepare(ts)
			sp.end()
			for vi, v := range variants {
				sp = placeS[vi].start()
				part.Place(v.Scheme, &opts)
				sp.end()
				sp = sumS.start()
				ev := part.Summarize()
				sp.end()
				if ev.Feasible {
					accepted[pi][vi]++
				}
			}
		}
	}
	return accepted, time.Since(t0), nil
}
