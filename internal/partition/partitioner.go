package partition

import "catpa/internal/mc"

// Partitioner is a reusable partitioning engine for a fixed number of
// cores and criticality levels. It amortizes every piece of internal
// storage — per-core utilization matrices, cached Theorem-1 reports,
// ordering scratch, precomputed utilization rows and the Result — so
// that steady-state runs perform no heap allocations. It is the
// engine behind the experiment harness's worker pool; one Partitioner
// must not be shared between goroutines.
//
// The zero value is not usable; construct with New and re-dimension
// with Reset.
type Partitioner struct {
	a   allocator
	res Result
}

// New returns a Partitioner for m cores and k criticality levels,
// analyzed with the default EDF-VD Theorem-1 backend. It panics if
// m < 1; k values below 1 are normalized to 1, so an empty task set
// still has one level.
func New(m, k int) *Partitioner {
	return NewWithBackend(m, k, &edfvdBackend{})
}

// NewWithBackend returns a Partitioner whose per-core schedulability
// questions are answered by be instead of the default EDF-VD analysis.
// The Partitioner takes ownership of be: it must not be shared with
// another Partitioner or used directly afterwards. It panics if be is
// nil, m < 1, or k exceeds be.MaxLevels().
func NewWithBackend(m, k int, be Backend) *Partitioner {
	if be == nil {
		panic("partition: NewWithBackend called with nil backend")
	}
	p := &Partitioner{}
	p.a.be = be
	p.a.reset(m, k)
	return p
}

// Backend returns the analysis backend this Partitioner runs on.
//
//mc:allocfree accessor
func (p *Partitioner) Backend() Backend { return p.a.be }

// Reset re-dimensions the partitioner for m cores and k levels,
// reusing as much internal storage as the new dimensions allow. It is
// a no-op when the dimensions are unchanged.
func (p *Partitioner) Reset(m, k int) {
	p.a.reset(m, k)
}

// M returns the configured core count; K the configured number of
// criticality levels.
//
//mc:allocfree accessor
func (p *Partitioner) M() int { return p.a.m }

// K returns the configured number of criticality levels.
//
//mc:allocfree accessor
func (p *Partitioner) K() int { return p.a.k }

// Run partitions ts with the given scheme and returns the full Result:
// feasibility, assignment, per-core reports and metrics.
//
// The returned Result and its slices are owned by the Partitioner and
// remain valid only until the next Run or Reset; callers that retain a
// result across runs must deep-copy it first. ts must not exceed the
// configured K (Run panics otherwise) and is not modified.
//
//mc:allocfree steady state: every Result slice is amortized in the Partitioner
func (p *Partitioner) Run(ts *mc.TaskSet, scheme Scheme, opts *Options) *Result {
	p.a.run(ts, scheme, opts)
	p.a.finishInto(&p.res)
	return &p.res
}

// Prepare installs ts for a batch of Place/Summarize calls — the
// evaluation path of the figure sweeps, the admission daemon and the
// online replay, split into per-set preparation, placement and
// analysis stages so an instrumented caller can time each stage
// separately. Prepare computes the utilization rows and task orderings
// shared by every scheme of the batch; it allocates nothing in the
// steady state.
//
//mc:allocfree per-set precomputation into amortized storage
func (p *Partitioner) Prepare(ts *mc.TaskSet) {
	p.a.prepSet(ts)
}

// Place runs the placement pass of one scheme over the set installed
// by the last Prepare, leaving the per-core analyses cached for
// Summarize. Schemes of one batch must be interleaved as
// Place/Summarize pairs: a Place discards the previous scheme's run
// state.
//
//mc:allocfree placement over prepared state
func (p *Partitioner) Place(scheme Scheme, opts *Options) {
	p.a.runPrepared(scheme, opts)
}

// Summarize folds the per-core analyses of the last Place into an
// Eval without materializing a Result: the feasibility verdict and the
// three aggregate metrics, bit-identical to the corresponding fields
// of Run's Result.
//
//mc:allocfree folds cached analyses into a value
func (p *Partitioner) Summarize() Eval {
	return p.a.evaluate()
}

// Eval is the cheap evaluation of one partitioning run: the subset of
// Result the experiment harness aggregates. Usys, Uavg and Imbalance
// are only meaningful when Feasible is true (Eqs. 10, 11, 16).
type Eval struct {
	// Feasible reports whether every task was placed on a core whose
	// subset passes the backend's schedulability test.
	Feasible bool
	// FailedTask is the index of the first task that could not be
	// placed, or -1.
	FailedTask int
	// Usys is the system utilization (Eq. 10), Uavg the average core
	// utilization (Eq. 11), Imbalance the workload imbalance factor
	// (Eq. 16).
	Usys, Uavg, Imbalance float64
}
