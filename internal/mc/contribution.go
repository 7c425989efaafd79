package mc

import "math"

// Contribution holds the utilization contributions of one task with
// respect to a whole task set (Eqs. 12-13): PerLevel[k-1] = C_i(k) =
// u_i(k)/U(k) for k = 1..l_i, and Max = C_i = max_k C_i(k).
type Contribution struct {
	PerLevel []float64
	Max      float64
}

// Contributions computes the utilization contribution of every task in
// ts with respect to the system-wide totals U(k) of ts itself
// (Eq. 12). Levels whose total utilization U(k) is zero cannot occur
// for k <= l_i of any task (the task itself contributes to U(k)), so
// no division by zero arises for valid sets.
//
// The returned slice is indexed like ts.Tasks.
func Contributions(ts *TaskSet) []Contribution {
	k := ts.MaxCrit()
	totals := make([]float64, k+1) // totals[j] = U(j), 1-based
	for j := 1; j <= k; j++ {
		totals[j] = ts.TotalUtilAt(j)
	}
	out := make([]Contribution, len(ts.Tasks))
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		c := Contribution{PerLevel: make([]float64, t.Crit)}
		for lev := 1; lev <= t.Crit; lev++ {
			v := 0.0
			if totals[lev] > 0 {
				v = t.Util(lev) / totals[lev]
			}
			c.PerLevel[lev-1] = v
			if v > c.Max {
				c.Max = v
			}
		}
		out[i] = c
	}
	return out
}

// Precedes reports whether task a strictly precedes task b in the
// CA-TPA ordering operator (the relation written a ≻ b in the paper):
//
//  1. larger utilization contribution first;
//  2. ties broken in favor of the higher criticality level;
//  3. remaining ties broken in favor of the smaller task ID.
//
// ca and cb are the respective Max contributions, tied when within Eps.
// For distinct IDs exactly one of a ≻ b and b ≻ a holds, but the
// relation is not transitive: keys 0, 0.6e-9 and 1.2e-9 at equal
// criticality form a cycle. The sorts therefore use the Eps-cluster
// rule of sortIndexByKey, which agrees with Precedes on every pair
// outside such a chain.
//
//mc:allocfree three comparisons
func Precedes(a *Task, ca float64, b *Task, cb float64) bool {
	if diff := ca - cb; diff > Eps || diff < -Eps {
		return diff > 0
	}
	return tieBefore(a, b)
}

// tieBefore orders two tasks whose keys tie: higher criticality first,
// then smaller ID.
//
//mc:allocfree two comparisons
func tieBefore(a, b *Task) bool {
	if a.Crit != b.Crit {
		return a.Crit > b.Crit
	}
	return a.ID < b.ID
}

// MaxContributionsInto fills key[i] with task i's maximum utilization
// contribution C_i (Eq. 12) without allocating per-task slices. key is
// reused when its capacity suffices; the (possibly re-grown) slice is
// returned. The values are bitwise those of Contributions().Max.
//
//mc:allocfree totals live in a stack array up to K=16, keys in caller scratch
func MaxContributionsInto(ts *TaskSet, key []float64) []float64 {
	k := ts.MaxCrit()
	var totalsArr [16]float64
	totals := totalsArr[:]
	if cap(totals) < k+1 {
		totals = make([]float64, k+1)
	}
	for j := 1; j <= k; j++ {
		totals[j] = 0
	}
	// One task-major pass over the set instead of K TotalUtilAt scans.
	// For each level j the additions still run in task-index order, so
	// every totals[j] is bitwise TotalUtilAt(j). Levels at most Crit
	// never saturate, so WCET[lev-1]/Period is exactly Util(lev).
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		p := t.Period
		for lev := 1; lev <= t.Crit; lev++ {
			totals[lev] += t.WCET[lev-1] / p
		}
	}
	key = resizeFloats(key, len(ts.Tasks))
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		maxC := 0.0
		for lev := 1; lev <= t.Crit; lev++ {
			v := 0.0
			if totals[lev] > 0 {
				v = t.WCET[lev-1] / t.Period / totals[lev]
			}
			if v > maxC {
				maxC = v
			}
		}
		key[i] = maxC
	}
	return key
}

// MaxUtilsInto fills key[i] with task i's own-level utilization
// u_i(l_i), the primary key of the classical decreasing orders. key is
// reused when its capacity suffices.
//
//mc:allocfree fills caller scratch
func MaxUtilsInto(ts *TaskSet, key []float64) []float64 {
	key = resizeFloats(key, len(ts.Tasks))
	for i := range ts.Tasks {
		// WCET[Crit-1]/Period is exactly MaxUtil() without the C()
		// saturation branch.
		t := &ts.Tasks[i]
		key[i] = t.WCET[t.Crit-1] / t.Period
	}
	return key
}

// SortScratch is the reusable working storage of the ordering sorts:
// the per-task keys and two radix buffers. The zero value is ready to
// use; the slices grow to the largest set sorted and are reused.
type SortScratch struct {
	key       []float64
	word, tmp []uint64
}

// sortIndexByKey fills idx (reused when its capacity suffices) with
// 0..N-1 in decreasing s.key order (s.key[i] the key of task i) under
// the Eps-cluster tie rule shared by every ordering:
//
//  1. a two-pass LSD radix sort on the top 16 bits (sign, exponent,
//     seven mantissa bits) of each key's descending float32 image,
//     packed above the task index; the image is monotone, so keys may
//     collide but never invert, and more bits cost more passes than
//     they save in step 2 on typical sets;
//  2. an insertion pass on the exact keys, which moves only tasks
//     whose images collided;
//  3. a walk that cuts the order into Eps-clusters wherever two
//     neighbours differ by more than Eps and orders each cluster by
//     higher criticality, then smaller ID.
//
// The rule is transitive and depends only on the multiset of (key,
// Crit, ID), not on the order of ts.Tasks. It agrees with Precedes on
// every pair except inside an Eps-chain: a cluster whose extreme keys
// differ by more than Eps.
//
//mc:allocfree radix, repair and cluster passes over caller scratch
func sortIndexByKey(ts *TaskSet, idx []int, s *SortScratch) []int {
	n := len(ts.Tasks)
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	if cap(s.word) < n {
		s.word, s.tmp = make([]uint64, n), make([]uint64, n)
	}
	src, dst, key := s.word[:n], s.tmp[:n], s.key
	// lo and hi count the low and high byte of the 16 sorted bits.
	var lo, hi [256]uint32
	for i, k := range key {
		// Descending image: non-negative floats flip their value bits,
		// negative ones (whose bits already run backwards) keep them.
		b := math.Float32bits(float32(k))
		b ^= ^uint32(int32(b)>>31) & 0x7fffffff
		src[i] = uint64(b)<<32 | uint64(i)
		lo[uint8(b>>16)]++
		hi[b>>24]++
	}
	var sl, sh uint32
	for d := range lo {
		lo[d], sl = sl, sl+lo[d]
		hi[d], sh = sh, sh+hi[d]
	}
	for _, w := range src {
		d := uint8(w >> 48)
		dst[lo[d]] = w
		lo[d]++
	}
	for _, w := range dst {
		d := w >> 56
		src[hi[d]] = w
		hi[d]++
	}
	for r, w := range src {
		i := int(uint32(w))
		k := key[i]
		j := r
		for ; j > 0 && key[idx[j-1]] < k; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	first := 0
	for r := 1; r <= n; r++ {
		if r < n && key[idx[r-1]]-key[idx[r]] <= Eps {
			continue
		}
		for c := first + 1; c < r; c++ {
			i := idx[c]
			j := c
			for ; j > first && tieBefore(&ts.Tasks[i], &ts.Tasks[idx[j-1]]); j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = i
		}
		first = r
	}
	return idx
}

// SortByContributionInto is SortByContribution with caller-provided
// storage: idx receives the order and s holds the keys and radix
// buffers; both are reused when their capacity suffices, making the
// call allocation-free at steady state. It returns the order slice.
//
//mc:allocfree the per-point ordering step of every sweep
func SortByContributionInto(ts *TaskSet, idx []int, s *SortScratch) []int {
	s.key = MaxContributionsInto(ts, s.key)
	return sortIndexByKey(ts, idx, s)
}

// SortByMaxUtilInto is SortByMaxUtil with caller-provided storage,
// mirroring SortByContributionInto.
//
//mc:allocfree the per-point ordering step of every sweep
func SortByMaxUtilInto(ts *TaskSet, idx []int, s *SortScratch) []int {
	s.key = MaxUtilsInto(ts, s.key)
	return sortIndexByKey(ts, idx, s)
}

// SortByContribution returns the indices of ts.Tasks sorted by
// decreasing ordering priority (the allocation order used by CA-TPA,
// Section III-A), ties resolved by the Eps-cluster rule of
// sortIndexByKey. ts itself is not modified.
func SortByContribution(ts *TaskSet) []int {
	return SortByContributionInto(ts, nil, &SortScratch{})
}

// SortByMaxUtil returns the indices of ts.Tasks sorted by decreasing
// own-level utilization u_i(l_i) — the classical "decreasing" order
// used by FFD/BFD/WFD. Ties follow the same Eps-cluster rule as
// SortByContribution, so that comparisons between heuristics differ
// only in the primary key.
func SortByMaxUtil(ts *TaskSet) []int {
	return SortByMaxUtilInto(ts, nil, &SortScratch{})
}

// resizeFloats returns s resized to n, reallocating only when the
// capacity is insufficient.
//
//mc:allocfree amortized: reallocates only on growth
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
