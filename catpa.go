// Package catpa is a Go implementation of Criticality-Aware Task
// Partitioning (CA-TPA) for multicore mixed-criticality systems,
// reproducing Han, Tao, Zhu and Aydin, "Criticality-Aware Partitioning
// for Multicore Mixed-Criticality Systems" (ICPP 2016).
//
// The package is a facade over the implementation packages:
//
//   - the Vestal-style mixed-criticality task model and the
//     utilization-contribution algebra (internal/mc);
//   - the EDF-VD uniprocessor schedulability analysis, from the simple
//     utilization test to the multi-level Theorem-1 conditions with
//     virtual-deadline reduction factors (internal/edfvd);
//   - the partitioning heuristics WFD, FFD, BFD, Hybrid and CA-TPA
//     (internal/partition);
//   - the Section IV-A synthetic workload generator (internal/taskgen);
//   - an event-driven runtime simulator of partitioned EDF-VD with AMC
//     mode switching (internal/sim);
//   - the experiment harness regenerating every figure of the paper's
//     evaluation (internal/experiments).
//
// # Quick start
//
//	ts := catpa.NewTaskSet(
//	    catpa.Task{Period: 100, Crit: 2, WCET: []float64{10, 25}},
//	    catpa.Task{Period: 50, Crit: 1, WCET: []float64{15}},
//	)
//	res := catpa.Partition(ts, 2, 2, catpa.CATPA, nil)
//	if res.Feasible {
//	    fmt.Println(res) // per-core subsets, utilizations, lambdas
//	}
//
// See example_test.go for complete programs.
package catpa

import (
	"fmt"

	"catpa/internal/edfvd"
	"catpa/internal/experiments"
	"catpa/internal/fpamc"
	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/sim"
	"catpa/internal/taskgen"
)

// Task model (internal/mc).
type (
	// Task is a periodic implicit-deadline mixed-criticality task:
	// WCET[k-1] is the level-k worst-case execution time, Period the
	// period and relative deadline, Crit the 1-based criticality level.
	Task = mc.Task
	// TaskSet is an ordered collection of tasks.
	TaskSet = mc.TaskSet
	// UtilMatrix carries the per-level utilization sums of a core's
	// subset with O(K) incremental updates.
	UtilMatrix = mc.UtilMatrix
	// Contribution holds a task's utilization contributions (Eqs. 12-13).
	Contribution = mc.Contribution
)

// NewTask constructs a validated task: the criticality level is
// len(wcet), the WCET vector must be non-decreasing, the period
// positive. It is the sanctioned way to build tasks (raw Task literals
// are rejected by mclint outside internal/mc and tests).
func NewTask(id int, name string, period float64, wcet ...float64) (Task, error) {
	return mc.NewTask(id, name, period, wcet...)
}

// MustTask is NewTask panicking on invalid parameters; convenient for
// hand-built workloads whose parameters are valid by construction.
func MustTask(id int, name string, period float64, wcet ...float64) Task {
	return mc.MustTask(id, name, period, wcet...)
}

// NewTaskSet builds a task set, assigning sequential IDs to tasks
// whose ID is zero.
func NewTaskSet(tasks ...Task) *TaskSet { return mc.NewTaskSet(tasks...) }

// NewUtilMatrix returns an empty utilization matrix for K levels.
func NewUtilMatrix(k int) *UtilMatrix { return mc.NewUtilMatrix(k) }

// Contributions computes every task's utilization contribution with
// respect to the whole set (Eq. 12).
func Contributions(ts *TaskSet) []Contribution { return mc.Contributions(ts) }

// EDF-VD schedulability analysis (internal/edfvd).
type (
	// Report is the full Theorem-1 analysis of one core's subset.
	Report = edfvd.Report
)

// Analyze runs the EDF-VD schedulability analysis on a core subset.
func Analyze(m *UtilMatrix) *Report { return edfvd.Analyze(m) }

// Feasible reports whether a core subset passes the EDF-VD test.
func Feasible(m *UtilMatrix) bool { return edfvd.Feasible(m) }

// SimpleFeasible is the pessimistic Eq. 4 test (plain EDF suffices).
func SimpleFeasible(m *UtilMatrix) bool { return edfvd.SimpleFeasible(m) }

// CoreUtil returns the Eq. 9 core utilization (+Inf if infeasible).
func CoreUtil(m *UtilMatrix) float64 { return edfvd.CoreUtil(m) }

// ClassicDualFeasible is the original dual-criticality EDF-VD test of
// Baruah et al. (2012); strictly stronger than the paper's Eq. 7.
func ClassicDualFeasible(m *UtilMatrix) bool { return edfvd.ClassicDualFeasible(m) }

// Fixed-priority AMC scheduling (internal/fpamc).
type (
	// FPAnalysis is the AMC-rtb response-time analysis of one core.
	FPAnalysis = fpamc.Analysis
	// FPResponse holds one task's analyzed response-time bounds.
	FPResponse = fpamc.Response
)

// FPAnalyze runs the dual-criticality AMC-rtb analysis on a subset.
func FPAnalyze(tasks []Task) (*FPAnalysis, error) { return fpamc.Analyze(tasks) }

// FPSchedulable reports whether a subset passes AMC-rtb.
func FPSchedulable(tasks []Task) bool { return fpamc.Schedulable(tasks) }

// FPPriorities returns the deadline-monotonic priority order.
func FPPriorities(tasks []Task) []int { return fpamc.Priorities(tasks) }

// FPPartition allocates a dual-criticality set under partitioned
// fixed-priority AMC: the unified allocator running atop the AMC-rtb
// analysis backend. All five heuristics are supported, including
// CA-TPA.
func FPPartition(ts *TaskSet, m int, scheme Scheme) (*PartitionResult, error) {
	if maxCrit := ts.MaxCrit(); maxCrit > 2 {
		return nil, fmt.Errorf("fpamc: task set has criticality %d; AMC-rtb partitioning is dual-criticality", maxCrit)
	}
	if m < 1 {
		return nil, fmt.Errorf("fpamc: invalid core count %d", m)
	}
	switch scheme {
	case partition.WFD, partition.FFD, partition.BFD, partition.Hybrid, partition.CATPA:
	default:
		return nil, fmt.Errorf("fpamc: unsupported scheme %v", scheme)
	}
	be, _ := partition.NewBackend(fpamc.BackendName) // a known name: cannot fail
	return partition.NewWithBackend(m, 2, be).Run(ts, scheme, nil), nil
}

// Partitioning heuristics (internal/partition).
type (
	// Scheme identifies a partitioning heuristic.
	Scheme = partition.Scheme
	// PartitionOptions tunes a heuristic run (alpha threshold, trace).
	PartitionOptions = partition.Options
	// PartitionResult is the outcome of one partitioning run.
	PartitionResult = partition.Result
	// CoreInfo summarizes one core of a finished partition.
	CoreInfo = partition.CoreInfo
)

// The five heuristics of the paper.
const (
	WFD    = partition.WFD
	FFD    = partition.FFD
	BFD    = partition.BFD
	Hybrid = partition.Hybrid
	CATPA  = partition.CATPA
)

// Schemes lists all heuristics in the paper's presentation order.
var Schemes = partition.Schemes

// Partition allocates ts onto m cores (k criticality levels) with the
// given scheme; nil opts selects the paper's defaults.
func Partition(ts *TaskSet, m, k int, scheme Scheme, opts *PartitionOptions) *PartitionResult {
	return partition.New(m, k).Run(ts, scheme, opts)
}

// ParseScheme maps a scheme name ("CA-TPA", "FFD", ...) to a Scheme.
func ParseScheme(name string) (Scheme, error) { return partition.ParseScheme(name) }

// Reusable partitioning fast path (internal/partition).
type (
	// Partitioner is a reusable, allocation-free partitioning engine
	// for fixed dimensions; see NewPartitioner.
	Partitioner = partition.Partitioner
	// PartitionEval is the cheap evaluation of one run: feasibility
	// plus the three aggregate metrics, without materializing a Result.
	PartitionEval = partition.Eval
)

// NewPartitioner returns a reusable engine for m cores and k levels.
// Its Run method is bit-identical to Partition but performs no heap
// allocations in the steady state. Prepare followed by Place and
// Summarize per scheme evaluates a set without materializing the
// Result, sharing the per-set preparation across schemes. Not safe
// for concurrent use.
func NewPartitioner(m, k int) *Partitioner { return partition.New(m, k) }

// Per-core analysis backends (internal/partition).
type (
	// AnalysisBackend answers the allocator's per-core schedulability
	// questions; the EDF-VD Theorem-1 analysis ("edfvd") and the
	// AMC-rtb response-time analysis ("amcrtb") both implement it.
	AnalysisBackend = partition.Backend
)

// DefaultBackend is the name of the EDF-VD Theorem-1 backend.
const DefaultBackend = partition.DefaultBackend

// FPBackendName is the name of the AMC-rtb backend.
const FPBackendName = fpamc.BackendName

// BackendNames returns the names of the two analysis backends, sorted.
func BackendNames() []string { return partition.BackendNames() }

// NewAnalysisBackend returns a fresh instance of the named backend.
func NewAnalysisBackend(name string) (AnalysisBackend, error) { return partition.NewBackend(name) }

// NewPartitionerWithBackend returns a reusable engine whose per-core
// schedulability questions are answered by be instead of the default
// EDF-VD analysis; the engine takes ownership of be.
func NewPartitionerWithBackend(m, k int, be AnalysisBackend) *Partitioner {
	return partition.NewWithBackend(m, k, be)
}

// Workload generation (internal/taskgen).
type (
	// GenConfig describes a synthetic workload family (Section IV-A).
	GenConfig = taskgen.Config
	// Range is a closed float interval.
	Range = taskgen.Range
	// IntRange is a closed integer interval.
	IntRange = taskgen.IntRange
)

// DefaultGenConfig returns the paper's default workload parameters.
func DefaultGenConfig() GenConfig { return taskgen.DefaultConfig() }

// GenerateTaskSet produces the idx-th deterministic task set of the
// family rooted at seed.
func GenerateTaskSet(cfg *GenConfig, seed int64, idx int) *TaskSet {
	return taskgen.GenerateIndexed(cfg, seed, idx)
}

// TaskGenerator is a reusable workload generator: for any (cfg, seed,
// idx) it regenerates exactly the set of GenerateTaskSet while reusing
// all internal storage (the returned set is valid until the next
// Generate call). Not safe for concurrent use.
type TaskGenerator = taskgen.Generator

// NewTaskGenerator returns an empty reusable generator.
func NewTaskGenerator() *TaskGenerator { return taskgen.NewGenerator() }

// Runtime simulation (internal/sim).
type (
	// ExecModel decides how long each job actually executes.
	ExecModel = sim.ExecModel
	// NominalModel runs every job within its level-1 budget.
	NominalModel = sim.NominalModel
	// WorstCaseModel runs every job to its own-level WCET.
	WorstCaseModel = sim.WorstCaseModel
	// LevelModel runs every job to its level-k budget.
	LevelModel = sim.LevelModel
	// RandomModel draws demands randomly with sporadic overruns.
	RandomModel = sim.RandomModel
	// CoreConfig configures a single-core simulation.
	CoreConfig = sim.CoreConfig
	// CoreStats aggregates one simulated core.
	CoreStats = sim.CoreStats
	// SystemConfig configures a partitioned multicore simulation.
	SystemConfig = sim.SystemConfig
	// SystemStats aggregates a multicore simulation.
	SystemStats = sim.SystemStats
)

// NewRandomModel returns a seeded randomized execution model.
func NewRandomModel(minFraction, overrunProb float64, seed int64) *RandomModel {
	return sim.NewRandomModel(minFraction, overrunProb, seed)
}

// SimulateCore runs one core under EDF-VD with AMC mode switching.
func SimulateCore(cfg CoreConfig) *CoreStats { return sim.SimulateCore(cfg) }

// SimulateSystem runs every core of a partitioned system.
func SimulateSystem(cfg SystemConfig) *SystemStats { return sim.SimulateSystem(cfg) }

// Experiments (internal/experiments).
type (
	// Sweep describes one figure-style experiment.
	Sweep = experiments.Sweep
	// SweepResult is a finished sweep.
	SweepResult = experiments.Result
	// ExpParams is one experimental parameter point.
	ExpParams = experiments.Params
	// Metric identifies one of the four sub-figure metrics.
	Metric = experiments.Metric
	// Variant is one (scheme, analysis backend) cell of a sweep's
	// comparison; the zero Backend selects the default EDF-VD analysis.
	Variant = experiments.Variant
)

// ParseVariant parses a variant name: a scheme name optionally
// followed by "@backend" ("CA-TPA@amcrtb").
func ParseVariant(name string) (Variant, error) { return experiments.ParseVariant(name) }

// DefaultVariants returns the five paper schemes on the default
// EDF-VD backend.
func DefaultVariants() []Variant { return experiments.DefaultVariants() }

// The four metrics of every figure.
const (
	SchedRatio = experiments.SchedRatio
	Usys       = experiments.Usys
	Uavg       = experiments.Uavg
	Imbalance  = experiments.Imbalance
)

// Figure returns the sweep regenerating the given paper figure (1-5)
// or the backend-comparison extension (6).
func Figure(n, sets int, seed int64) *Sweep { return experiments.Figure(n, sets, seed) }

// OnlineFigure returns the online companion experiment: the same
// schemes admitting a Poisson arrival stream through incremental
// partitioner sessions, measured on admission rate, shed rate,
// occupancy and core utilization over time.
func OnlineFigure(sets int, seed int64) *Sweep { return experiments.OnlineFigure(sets, seed) }

// DefaultExpParams returns the paper's default parameter point.
func DefaultExpParams() ExpParams { return experiments.DefaultParams() }
