package partition

import (
	"fmt"
	"math"
	"strings"

	"catpa/internal/edfvd"
	"catpa/internal/fpamc"
	"catpa/internal/mc"
)

// CoreInfo summarizes one core of a finished partition.
type CoreInfo struct {
	// Tasks holds indices into the partitioned TaskSet's Tasks slice,
	// in allocation order.
	Tasks []int

	// Util is the core utilization U^Psi of Eq. 9.
	Util float64

	// OwnLevelLoad is sum_k U_k^Psi(k), the Eq. 4 load measure.
	OwnLevelLoad float64

	// FeasibleK is the smallest Theorem-1 condition that holds on the
	// core (1..K-1; 0 only for an infeasible partial result).
	FeasibleK int

	// Lambda holds the virtual-deadline reduction factors lambda_j of
	// the core's final subset (Eq. 6), needed to run EDF-VD.
	Lambda []float64
}

// Step records one allocation decision for trace output (the format of
// the paper's Tables II and III).
type Step struct {
	// Task is the index of the allocated task in the TaskSet.
	Task int
	// Core is the selected core (0-based), or -1 when allocation
	// failed.
	Core int
	// Util is the selected core's utilization after the allocation.
	Util float64
	// Increment is the core-utilization increment of Eq. 14.
	Increment float64
}

// Result is the outcome of one partitioning run.
type Result struct {
	// Scheme that produced the result.
	Scheme Scheme
	// Backend names the analysis that produced the result, as
	// NewBackend takes it; empty reads as DefaultBackend.
	Backend string
	// M is the number of cores, K the number of criticality levels.
	M, K int

	// Feasible reports whether every task was placed on a core whose
	// subset passes the backend's schedulability test.
	Feasible bool

	// Assignment maps each task index to its core (0-based), or -1
	// if the task was not placed (only when Feasible is false).
	Assignment []int

	// FailedTask is the index of the first task that could not be
	// placed, or -1.
	FailedTask int

	// Cores describes each core's final subset; valid entries are
	// populated even for infeasible runs (up to the failure point).
	Cores []CoreInfo

	// Usys is the system utilization max_m U^Psi_m (Eq. 10), Uavg the
	// average core utilization (Eq. 11), and Imbalance the workload
	// imbalance factor Lambda (Eq. 16). They are only meaningful when
	// Feasible is true.
	Usys, Uavg, Imbalance float64

	// Trace holds per-task allocation steps when Options.Trace was set.
	Trace []Step
}

// finishMetrics computes Usys, Uavg and Imbalance from the per-core
// utilizations (Eqs. 10, 11, 16).
//
//mc:allocfree folds the per-core utilizations
func (r *Result) finishMetrics() {
	if len(r.Cores) == 0 {
		return
	}
	maxU, minU, sum := math.Inf(-1), math.Inf(1), 0.0
	for i := range r.Cores {
		u := r.Cores[i].Util
		sum += u
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	r.Usys = maxU
	r.Uavg = sum / float64(len(r.Cores))
	if maxU > mc.Eps {
		r.Imbalance = (maxU - minU) / maxU
	} else {
		r.Imbalance = 0
	}
}

// Subsets materializes the per-core task subsets as TaskSets (deep
// copies), e.g. to hand them to the runtime simulator.
func (r *Result) Subsets(ts *mc.TaskSet) []*mc.TaskSet {
	out := make([]*mc.TaskSet, len(r.Cores))
	for m := range r.Cores {
		sub := mc.NewTaskSetCap(len(r.Cores[m].Tasks))
		for _, ti := range r.Cores[m].Tasks {
			sub.Tasks = append(sub.Tasks, ts.Tasks[ti].Clone())
		}
		out[m] = sub
	}
	return out
}

// Verify re-derives feasibility of the final assignment from scratch
// (independent matrices, fresh analysis by the result's backend: the
// Theorem-1 analysis for edfvd, the AMC-rtb response-time test and
// the own-level load for amcrtb) and checks internal consistency. It
// returns an error describing the first inconsistency found, or nil.
// Intended for tests and for validating deserialized results.
func (r *Result) Verify(ts *mc.TaskSet) error {
	amc := r.Backend == fpamc.BackendName
	if !amc && r.Backend != "" && r.Backend != DefaultBackend {
		return fmt.Errorf("partition: unknown backend %q", r.Backend)
	}
	if len(r.Assignment) != ts.Len() {
		return fmt.Errorf("partition: assignment length %d != N %d", len(r.Assignment), ts.Len())
	}
	mats := make([]*mc.UtilMatrix, r.M)
	subsets := make([][]mc.Task, r.M)
	for m := range mats {
		mats[m] = mc.NewUtilMatrix(r.K)
	}
	placed := 0
	for i, core := range r.Assignment {
		if core == -1 {
			if r.Feasible {
				return fmt.Errorf("partition: feasible result leaves task %d unplaced", i)
			}
			continue
		}
		if core < 0 || core >= r.M {
			return fmt.Errorf("partition: task %d assigned to invalid core %d", i, core)
		}
		mats[core].Add(&ts.Tasks[i])
		subsets[core] = append(subsets[core], ts.Tasks[i])
		placed++
	}
	for m := range mats {
		var feasible bool
		var util float64
		if amc {
			feasible, util = fpamc.Schedulable(subsets[m]), mats[m].OwnLevelLoad()
		} else {
			rep := edfvd.Analyze(mats[m])
			feasible, util = rep.Feasible(), rep.CoreUtil
		}
		if r.Feasible && !feasible {
			return fmt.Errorf("partition: core %d infeasible under re-analysis", m)
		}
		if r.Feasible && math.Abs(util-r.Cores[m].Util) > 1e-6 {
			return fmt.Errorf("partition: core %d utilization %v != recomputed %v", m, r.Cores[m].Util, util)
		}
	}
	if r.Feasible && placed != ts.Len() {
		return fmt.Errorf("partition: feasible result placed %d of %d tasks", placed, ts.Len())
	}
	return nil
}

// String renders a one-line summary.
func (r *Result) String() string {
	if !r.Feasible {
		return fmt.Sprintf("%s{M=%d, INFEASIBLE at task %d}", r.Scheme, r.M, r.FailedTask)
	}
	return fmt.Sprintf("%s{M=%d, Usys=%.3f, Uavg=%.3f, Lambda=%.3f}",
		r.Scheme, r.M, r.Usys, r.Uavg, r.Imbalance)
}

// FormatTrace renders the allocation trace as an aligned text table in
// the spirit of the paper's Tables II-III. ts provides task labels.
func (r *Result) FormatTrace(ts *mc.TaskSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "allocation trace (%s, M=%d):\n", r.Scheme, r.M)
	for _, s := range r.Trace {
		label := ts.Tasks[s.Task].Label()
		if s.Core < 0 {
			fmt.Fprintf(&b, "  %-8s -> FAILURE (no feasible core)\n", label)
			continue
		}
		fmt.Fprintf(&b, "  %-8s -> P%-2d  U=%.3f  dU=%+.3f\n", label, s.Core+1, s.Util, s.Increment)
	}
	return b.String()
}
