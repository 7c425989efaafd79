package mc

import (
	"fmt"
	"strings"
)

// UtilMatrix maintains the per-level utilization sums U_j^Psi(k) of a
// subset Psi of tasks (the tasks allocated to one core), for a system
// with K criticality levels (Eq. 3). It supports O(K) incremental
// addition and removal of tasks so that probing every core for a
// candidate task — the inner loop of CA-TPA — never rescans task lists.
//
// The matrix is indexed 1-based on both axes: At(j, k) = U_j^Psi(k),
// the level-k utilization of the subset's tasks whose own criticality
// is exactly j. Entries with k > j are stored saturated (equal to
// At(j, j)) but are not used by the analysis.
type UtilMatrix struct {
	k int
	// u[(j-1)*k + (k'-1)] = U_j(k'); row-major, K x K.
	u []float64
	// n is the number of tasks currently accumulated.
	n int
}

// NewUtilMatrix returns an empty matrix for a system with k >= 1
// criticality levels.
func NewUtilMatrix(k int) *UtilMatrix {
	if k < 1 {
		panic(fmt.Sprintf("mc: invalid criticality level count %d", k))
	}
	return &UtilMatrix{k: k, u: make([]float64, k*k)}
}

// K returns the number of criticality levels the matrix was built for.
//
//mc:allocfree trivial accessor
func (m *UtilMatrix) K() int { return m.k }

// Len returns the number of tasks accumulated in the subset.
//
//mc:allocfree trivial accessor
func (m *UtilMatrix) Len() int { return m.n }

// At returns U_j^Psi(k), for 1 <= j, k <= K.
//
//mc:allocfree read per level inside the feasibility screens
func (m *UtilMatrix) At(j, k int) float64 {
	m.check(j, k)
	return m.u[(j-1)*m.k+(k-1)]
}

// Add accumulates task t into the subset.
//
//mc:allocfree O(K) updates on preallocated rows
func (m *UtilMatrix) Add(t *Task) {
	m.apply(t, +1)
}

// Remove removes task t from the subset. The caller must only remove
// tasks previously added; sums may otherwise go negative.
//
//mc:allocfree O(K) updates on preallocated rows
func (m *UtilMatrix) Remove(t *Task) {
	m.apply(t, -1)
}

//mc:allocfree shared body of Add and Remove
func (m *UtilMatrix) apply(t *Task, sign float64) {
	if t.Crit > m.k {
		panic(fmt.Sprintf("mc: task %d criticality %d exceeds matrix K=%d", t.ID, t.Crit, m.k))
	}
	row := (t.Crit - 1) * m.k
	for k := 1; k <= m.k; k++ {
		m.u[row+k-1] += sign * t.Util(k)
	}
	m.n += int(sign)
}

// Data exposes the backing row-major K x K utilization sums:
// Data()[(j-1)*K + (k-1)] = U_j^Psi(k). It exists so the schedulability
// analysis can read the matrix without per-entry bounds checks; callers
// must treat the slice as read-only.
//
//mc:allocfree returns the backing slice without copying
func (m *UtilMatrix) Data() []float64 { return m.u }

// TotalAt returns U^Psi(k) = sum_{j>=k} U_j^Psi(k), the subset
// counterpart of Eq. 2.
//
//mc:allocfree summed per probe
func (m *UtilMatrix) TotalAt(k int) float64 {
	m.check(k, k)
	var s float64
	for j := k; j <= m.k; j++ {
		s += m.u[(j-1)*m.k+(k-1)]
	}
	return s
}

// OwnLevelLoad returns sum_k U_k^Psi(k), the left-hand side of the
// pessimistic schedulability condition Eq. 4 for this subset.
//
//mc:allocfree summed per core comparison in the classical schemes
func (m *UtilMatrix) OwnLevelLoad() float64 {
	var s float64
	for k := 1; k <= m.k; k++ {
		s += m.u[(k-1)*m.k+(k-1)]
	}
	return s
}

// Clone returns a deep copy of the matrix.
func (m *UtilMatrix) Clone() *UtilMatrix {
	return &UtilMatrix{k: m.k, u: append([]float64(nil), m.u...), n: m.n}
}

// Reset zeroes the matrix in place.
//
//mc:allocfree zeroes in place between allocation passes
func (m *UtilMatrix) Reset() {
	for i := range m.u {
		m.u[i] = 0
	}
	m.n = 0
}

// MatrixOf accumulates all tasks of ts into a fresh matrix with the
// given number of levels k (which must be >= ts.MaxCrit()).
func MatrixOf(ts *TaskSet, k int) *UtilMatrix {
	m := NewUtilMatrix(k)
	for i := range ts.Tasks {
		m.Add(&ts.Tasks[i])
	}
	return m
}

//mc:allocfree bounds guard on every matrix access
func (m *UtilMatrix) check(j, k int) {
	if j < 1 || j > m.k || k < 1 || k > m.k {
		panic(fmt.Sprintf("mc: index (%d,%d) out of range for K=%d", j, k, m.k))
	}
}

// String renders the matrix rows U_j(1..K) for debugging.
func (m *UtilMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UtilMatrix{K=%d, n=%d", m.k, m.n)
	for j := 1; j <= m.k; j++ {
		fmt.Fprintf(&b, ", U_%d=[", j)
		for k := 1; k <= m.k; k++ {
			if k > 1 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.3f", m.At(j, k))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}
