// Command mcbench is the repository benchmark. One run executes the
// three jobs the system runs, checks every job's outputs, and prints
// one JSON result line:
//
//	bash mcbench/run.sh --workload sweep-fig1 --seed 1 --seconds 25 --trace 0
//
// The jobs are the paper's Fig. 1 static sweep through the
// checkpointing runner (sweep-fig1), the online onl1 admission replay
// (online-onl1), and the mcserved admission handler under an open-loop
// schedule (serve-admit). Every run measures all three, so every
// end-to-end metric is present in every run; --workload names the job
// that gets half of the --seconds budget (the other two get a quarter
// each) and whose traced replay is profiled. With --trace 1 the run
// reports per-layer metrics instead: each job's inputs are re-driven
// through the layers' public calls with a span around each call. The
// program under test only ever receives inputs generated from --seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings: the four command-line arguments, and
// the output directory and sizes that the tests change. Scratch files,
// traced-run reports and CPU profiles go to outDir.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string

	corpus    int // distinct task sets the serve job offers
	setupReps int // set-ups per run; setup_s is their median
}

func defaultConfig() config {
	return config{
		seconds:   25,
		outDir:    filepath.Join(".bench_build", "results"),
		corpus:    4096,
		setupReps: 3,
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to emphasize: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case !slices.Contains(workloads, cfg.workload):
		return cfg, fmt.Errorf("--workload must be one of %s, got %q", strings.Join(workloads, ", "), cfg.workload)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return 2
	}
	res, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// job is one of the benchmark's three workloads.
type job interface {
	name() string
	// setup generates the job's inputs and warms its pools; it may run
	// several times, each replacing the last.
	setup() error
	// sample measures the job for about budget, checking its outputs;
	// a run interleaves several samples of every job.
	sample(budget time.Duration, ck *checker) error
	// report records the job's end-to-end metrics over all its samples.
	report(m metrics)
	// trace re-drives the job's inputs through the layers with spans,
	// records its per-layer metrics and returns the replay's spans; prof
	// (nil unless the job is the run's workload) wraps the traced replay.
	trace(budget time.Duration, m metrics, ck *checker, prof *profiler) (*layerRun, error)
	close()
}

func execute(cfg config, stderr io.Writer) (*result, error) {
	// At most two CPUs: the workloads are sized for, and the scaling
	// metric compares, one and two workers.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// The run's workload goes last, so its values win for metrics that
	// several jobs report and its traced replay is the one profiled.
	var jobs []job
	for _, name := range workloads {
		if name != cfg.workload {
			jobs = append(jobs, newJob(name, cfg, scratch))
		}
	}
	jobs = append(jobs, newJob(cfg.workload, cfg, scratch))
	defer func() {
		for _, j := range jobs {
			j.close()
		}
	}()

	// Set-up is timed in CPU seconds (see cpuTime), the median of
	// several set-ups, so that work moved into set-up shows and CPU
	// steal does not.
	setups := make([]float64, 0, cfg.setupReps)
	for r := 0; r < cfg.setupReps; r++ {
		c0 := cpuTime()
		for _, j := range jobs {
			if err := j.setup(); err != nil {
				return nil, fmt.Errorf("%s: setup: %w", j.name(), err)
			}
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	m := metrics{"setup_s": median(setups)}

	total := time.Duration(cfg.seconds) * time.Second
	budget := func(j job) time.Duration {
		if j.name() == cfg.workload {
			return total / 2
		}
		return total / 4
	}
	ck := &checker{log: stderr}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		for _, j := range jobs {
			var prof *profiler
			if j.name() == cfg.workload {
				prof = &profiler{path: filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", cfg.workload, cfg.seed))}
			}
			lr, err := j.trace(budget(j), m, ck, prof)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", j.name(), err)
			}
			if prof != nil {
				m["trace.overhead_share"] = lr.overheadShare()
				m["layers.residual_share"] = lr.residualShare()
				if err := writeTraceReport(cfg, lr, prof, m); err != nil {
					return nil, err
				}
			}
		}
	} else {
		// Round-robin slices spread each job's samples over the whole
		// run, so a slow stretch of the machine weighs on every job
		// alike instead of on whichever ran during it.
		for r := 0; r < rounds; r++ {
			for _, j := range jobs {
				if err := j.sample(budget(j)/rounds, ck); err != nil {
					return nil, fmt.Errorf("%s: %w", j.name(), err)
				}
			}
		}
		for _, j := range jobs {
			j.report(m)
		}
		rss, err := maxRSSMB()
		if err != nil {
			return nil, err
		}
		m["max_rss_mb"] = rss
	}
	vals, err := m.report(specs)
	if err != nil {
		return nil, err
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.ops, Failed: ck.failed, Metrics: vals}, nil
}

// rounds is the number of interleaved samples of each job per run.
const rounds = 5

func newJob(name string, cfg config, scratch string) job {
	switch name {
	case wlSweep:
		return &sweepJob{seed: cfg.seed, dir: scratch}
	case wlOnline:
		return &onlineJob{seed: cfg.seed}
	default:
		return &serveJob{seed: cfg.seed, corpus: cfg.corpus}
	}
}

// checker counts the benchmark's operations and output checks; every
// mismatch counts as a failed operation.
type checker struct {
	log    io.Writer
	ops    int64
	failed int64
}

// expect records one check and reports whether it passed.
func (c *checker) expect(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	c.failed++
	if c.failed <= 20 {
		fmt.Fprintf(c.log, "mcbench: check failed: "+format+"\n", args...)
	}
	return false
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * p / 100))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// subSeed derives the seed of one sub-run from the run's seed, so that
// every input is a function of --seed alone.
func subSeed(seed int64, stream, rep int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(rep)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x >> 1)
}

// Sub-run streams of subSeed.
const (
	streamSweepWarm = iota + 1
	streamSweep
	streamSweepTrace
	streamOnlineWarm
	streamOnline
	streamOnlineTrace
	streamServe
)

// cpuTime returns the CPU time the process has used so far. Set-up and
// the throughput of the single-worker jobs are measured against it
// rather than against the wall clock: on a shared host the hypervisor
// steals CPU from the guest in bursts, and that would read as the
// program slowing down.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
