package mc

import (
	"math"
	"slices"
)

// HashQuantum is the grid the task-set hash quantizes every
// floating-point parameter to before hashing. Two parameter values
// closer than half a quantum hash identically, so representation noise
// (a 1e-12 wiggle from a different parser or platform) does not change
// a set's correlation ID.
const HashQuantum = 1e-9

// TaskSetHash returns a 64-bit correlation hash of a task set: a short
// ID that admission responses and benchmark checks use to tell which
// workload an answer is about, and that sim.Timeline uses to skip a
// core configuration it has already recorded.
//
// The hash is a function of the multiset of (Crit, Period, WCET
// vector) triples only:
//
//   - permutation-invariant — tasks are folded in a canonical sorted
//     order, so reordering Tasks never changes the hash;
//   - quantized — every float is snapped to the HashQuantum grid
//     first;
//   - label-blind — Task.ID and Task.Name do not contribute.
//
// It is therefore not an identity for an analysis answer: Task.ID
// breaks ties in the allocation order ≻, an assignment is indexed by
// task position, and a sub-quantum difference can flip a verdict, so
// two sets with the same hash may be partitioned differently.
// Collisions are also possible in principle (it is a 64-bit digest).
func TaskSetHash(ts *TaskSet) uint64 {
	if ts == nil || len(ts.Tasks) == 0 {
		return fnvOffset
	}
	// Hash each task independently, then fold the per-task digests in
	// sorted order: sorting 8-byte digests is cheaper and simpler than
	// defining a total order on variable-length WCET vectors, and any
	// canonical order makes the fold permutation-invariant.
	digests := make([]uint64, len(ts.Tasks))
	for i := range ts.Tasks {
		digests[i] = taskHash(&ts.Tasks[i])
	}
	slices.Sort(digests)
	h := uint64(fnvOffset)
	for _, d := range digests {
		h = fnvMix(h, d)
	}
	return fnvMix(h, uint64(len(ts.Tasks)))
}

// taskHash digests one task's analysis-relevant parameters.
func taskHash(t *Task) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(t.Crit))
	h = fnvMix(h, quantize(t.Period))
	for _, c := range t.WCET {
		h = fnvMix(h, quantize(c))
	}
	return h
}

// quantize snaps v to the HashQuantum grid and returns a stable bit
// pattern for it. Values whose quotient overflows the grid (or is not
// finite) fall back to the raw IEEE-754 bits — such parameters never
// validate anyway, but the hash must still be total.
func quantize(v float64) uint64 {
	q := math.Round(v / HashQuantum)
	if math.IsNaN(q) || q > math.MaxInt64 || q < math.MinInt64 {
		return math.Float64bits(v)
	}
	return uint64(int64(q))
}

// FNV-1a, 64 bit, folded word-wise: each 64-bit word is mixed in as
// its eight little-endian bytes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}
