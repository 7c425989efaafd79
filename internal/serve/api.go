package serve

import (
	"fmt"
	"strings"
	"time"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// Request is the admission question posed to POST /v1/admit.
type Request struct {
	// TaskSet is the candidate workload. It must validate (positive
	// periods, monotone WCET vectors, unique IDs) and be non-empty.
	TaskSet *mc.TaskSet `json:"task_set"`

	// M is the number of cores to partition onto.
	M int `json:"m"`

	// K is the number of system criticality levels; 0 defaults to the
	// set's own maximum criticality.
	K int `json:"k,omitempty"`

	// Schemes names the partitioning heuristics to try, in order
	// (partition.ParseScheme forms, e.g. "CA-TPA", "FFD"). Empty
	// defaults to CA-TPA alone.
	Schemes []string `json:"schemes,omitempty"`

	// Backend names the per-core analysis backend ("edfvd", "amcrtb");
	// empty selects the default EDF-VD analysis.
	Backend string `json:"backend,omitempty"`

	// TimeoutMS optionally tightens this request's deadline below the
	// server-wide request timeout (it can never extend it).
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// RequireFull opts out of graceful degradation: a client that
	// cannot act on a probe-only verdict asks for the full analysis
	// and accepts backpressure (429) instead when the daemon is past
	// its watermark.
	RequireFull bool `json:"require_full,omitempty"`

	// Tag is an opaque client label echoed in the response; the chaos
	// suite also scripts fault injection by tag.
	Tag string `json:"tag,omitempty"`
}

// Verdict is the outcome of one scheme's partitioning attempt.
type Verdict struct {
	// Scheme is the heuristic's canonical name.
	Scheme string `json:"scheme"`
	// Admitted reports whether every task was placed on a core that
	// passes the backend's schedulability analysis.
	Admitted bool `json:"admitted"`
	// Usys, Uavg and Imbalance are the Eq. 10/11/16 aggregates of the
	// resulting partition (meaningful when Admitted).
	Usys      float64 `json:"usys"`
	Uavg      float64 `json:"uavg"`
	Imbalance float64 `json:"imbalance"`
	// Assignment maps task index to core for the first admitted
	// scheme of the response (omitted otherwise).
	Assignment []int `json:"assignment,omitempty"`
}

// Verdict labels used in Response.Verdict.
const (
	// VerdictAdmitted: at least one scheme produced a feasible
	// partition under the full backend analysis.
	VerdictAdmitted = "admitted"
	// VerdictRejected: no tried scheme admits the set. In degraded
	// mode this label is only used for certified screen rejects.
	VerdictRejected = "rejected"
	// VerdictUncertain: the degraded tier could not certify a reject
	// and full analysis was not run; retry later for a real verdict.
	VerdictUncertain = "uncertain"
)

// Response is the daemon's answer to an admission request.
type Response struct {
	// Admitted is true only when a full-analysis verdict admitted the
	// set; degraded and partial responses never set it spuriously.
	Admitted bool `json:"admitted"`
	// Verdict is one of the Verdict* labels.
	Verdict string `json:"verdict"`
	// Verdicts holds the per-scheme outcomes that completed.
	Verdicts []Verdict `json:"verdicts,omitempty"`
	// Degraded marks a load-shed verdict from the probe-only screen
	// (no full analysis ran).
	Degraded bool `json:"degraded,omitempty"`
	// Partial marks a response whose deadline fired mid-batch:
	// Verdicts carries only the schemes that completed in time.
	Partial bool `json:"partial,omitempty"`
	// Cached marks a verdict served from the daemon's verdict cache.
	Cached bool `json:"cached,omitempty"`
	// Reason explains rejected/uncertain verdicts.
	Reason string `json:"reason,omitempty"`
	// TaskSetHash is the mc.TaskSetHash of the request's set, in hex: a
	// correlation ID that ignores task order, IDs and sub-1e-9 float
	// noise. It is not the verdict-cache identity (that is the request
	// body itself), and two requests with the same hash may get
	// different assignments.
	TaskSetHash string `json:"task_set_hash,omitempty"`
	// Tag echoes Request.Tag.
	Tag string `json:"tag,omitempty"`
	// Error carries the failure description on non-2xx responses.
	Error string `json:"error,omitempty"`
}

// admitJob is a validated, normalized admission request.
type admitJob struct {
	ts          *mc.TaskSet
	m, k        int
	schemes     []partition.Scheme
	backend     string
	tag         string
	hash        uint64
	timeout     time.Duration // 0: server default
	requireFull bool
}

// normalize validates req against the server limits and resolves every
// default, returning the executable job or a client error.
func normalize(req *Request, maxTasks, maxCores int) (*admitJob, error) {
	if req.TaskSet == nil || req.TaskSet.Len() == 0 {
		return nil, fmt.Errorf("task_set must hold at least one task")
	}
	if n := req.TaskSet.Len(); n > maxTasks {
		return nil, fmt.Errorf("task_set has %d tasks; the server accepts at most %d", n, maxTasks)
	}
	if err := req.TaskSet.Validate(); err != nil {
		return nil, fmt.Errorf("invalid task_set: %v", err)
	}
	if req.M < 1 || req.M > maxCores {
		return nil, fmt.Errorf("m must be in 1..%d, got %d", maxCores, req.M)
	}
	k := req.K
	maxCrit := req.TaskSet.MaxCrit()
	if k == 0 {
		k = maxCrit
	}
	if k < maxCrit {
		return nil, fmt.Errorf("k=%d below the task set's criticality %d", k, maxCrit)
	}
	backend := req.Backend
	if backend == "" {
		backend = partition.DefaultBackend
	}
	be, err := partition.NewBackend(backend)
	if err != nil {
		return nil, fmt.Errorf("unknown backend %q (registered: %v)", backend, partition.BackendNames())
	}
	if maxK := be.MaxLevels(); maxK > 0 && k > maxK {
		return nil, fmt.Errorf("backend %q supports at most K=%d levels, got %d", backend, maxK, k)
	}
	// The backend's own name, not the request's copy: the name keys the
	// worker's partitioner pool, and a decoded string shares the memory
	// of the whole request body.
	backend = be.Name()
	names := req.Schemes
	if len(names) == 0 {
		names = []string{partition.CATPA.String()}
	}
	schemes := make([]partition.Scheme, 0, len(names))
	for _, name := range names {
		s, err := partition.ParseScheme(name)
		if err != nil {
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
		schemes = append(schemes, s)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	return &admitJob{
		ts:          req.TaskSet,
		m:           req.M,
		k:           k,
		schemes:     schemes,
		backend:     backend,
		tag:         strings.Clone(req.Tag), // echoed by cached responses, so it must not pin the body
		hash:        mc.TaskSetHash(req.TaskSet),
		timeout:     time.Duration(req.TimeoutMS) * time.Millisecond,
		requireFull: req.RequireFull,
	}, nil
}
