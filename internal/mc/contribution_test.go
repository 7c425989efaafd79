package mc

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestContributions(t *testing.T) {
	ts := dualSet() // U(1)=0.60, U(2)=0.65
	cs := Contributions(ts)
	// tau1: C(1) = 0.30/0.60 = 0.5
	if !almost(cs[0].Max, 0.5) {
		t.Errorf("C_1 = %v, want 0.5", cs[0].Max)
	}
	// tau2: C(1) = 0.20/0.60 = 1/3, C(2) = 0.40/0.65 ≈ 0.6154
	if !almost(cs[1].PerLevel[0], 0.2/0.6) {
		t.Errorf("C_2(1) = %v", cs[1].PerLevel[0])
	}
	if !almost(cs[1].PerLevel[1], 0.4/0.65) {
		t.Errorf("C_2(2) = %v", cs[1].PerLevel[1])
	}
	if !almost(cs[1].Max, 0.4/0.65) {
		t.Errorf("C_2 = %v", cs[1].Max)
	}
	// tau3: max(0.1/0.6, 0.25/0.65) = 0.25/0.65.
	if !almost(cs[2].Max, 0.25/0.65) {
		t.Errorf("C_3 = %v", cs[2].Max)
	}
}

func TestPrecedesRules(t *testing.T) {
	a := mkTask(1, 10, 1, 1)
	b := mkTask(2, 10, 2, 1, 2)
	// Rule 1: larger contribution wins.
	if !Precedes(&a, 0.9, &b, 0.5) {
		t.Error("larger contribution should precede")
	}
	if Precedes(&a, 0.5, &b, 0.9) {
		t.Error("smaller contribution should not precede")
	}
	// Rule 2: tie broken by criticality.
	if !Precedes(&b, 0.5, &a, 0.5) {
		t.Error("higher criticality should precede on tie")
	}
	if Precedes(&a, 0.5, &b, 0.5) {
		t.Error("lower criticality should not precede on tie")
	}
	// Rule 3: same contribution and criticality -> smaller ID.
	c := mkTask(3, 20, 1, 2)
	if !Precedes(&a, 0.5, &c, 0.5) {
		t.Error("smaller ID should precede on full tie")
	}
	if Precedes(&c, 0.5, &a, 0.5) {
		t.Error("larger ID should not precede on full tie")
	}
}

func TestSortByContributionOrder(t *testing.T) {
	ts := dualSet()
	idx := SortByContribution(ts)
	// Contributions: tau2 ≈ 0.615, tau1 = 0.5, tau3 ≈ 0.385.
	want := []int{1, 0, 2}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("order = %v, want %v", idx, want)
		}
	}
}

func TestSortByMaxUtilOrder(t *testing.T) {
	ts := dualSet()
	idx := SortByMaxUtil(ts)
	// MaxUtil: tau2 = 0.40, tau1 = 0.30, tau3 = 0.25.
	want := []int{1, 0, 2}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("order = %v, want %v", idx, want)
		}
	}
}

// randomSet draws a set of up to 40 tasks with 1-3 levels. dups
// extra tasks copy the parameters of earlier ones under fresh IDs, so
// their keys tie exactly and the cluster rule has work to do.
func randomSet(rng *rand.Rand, dups int) *TaskSet {
	n := 1 + rng.Intn(40)
	ts := &TaskSet{}
	for i := 0; i < n; i++ {
		crit := 1 + rng.Intn(3)
		p := 10 + rng.Float64()*90
		w := make([]float64, crit)
		c := (0.05 + rng.Float64()*0.3) * p
		for k := range w {
			w[k] = c
			c *= 1 + rng.Float64()*0.5
		}
		// Cap utilization at 1.
		if w[crit-1] > p {
			continue
		}
		ts.Tasks = append(ts.Tasks, Task{ID: i + 1, Period: p, Crit: crit, WCET: w})
	}
	for d := 0; d < dups && len(ts.Tasks) > 0; d++ {
		t := ts.Tasks[rng.Intn(len(ts.Tasks))].Clone()
		t.ID = n + 1 + d
		ts.Tasks = append(ts.Tasks, t)
	}
	return ts
}

// checkClusterOrder reports whether order is a permutation of the
// task indices that realizes the Eps-cluster rule for key: cut the
// keys, sorted in decreasing order, wherever two neighbours differ by
// more than Eps; the order must list each cluster's keys in turn, each
// cluster by higher criticality and then smaller ID.
func checkClusterOrder(ts *TaskSet, key []float64, order []int) bool {
	if len(order) != len(ts.Tasks) {
		return false
	}
	seen := make([]bool, len(order))
	for _, i := range order {
		if i < 0 || i >= len(order) || seen[i] {
			return false
		}
		seen[i] = true
	}
	sorted := append([]float64(nil), key...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	lo := 0
	for r := 1; r <= len(sorted); r++ {
		if r < len(sorted) && sorted[r-1]-sorted[r] <= Eps {
			continue
		}
		got := make([]float64, 0, r-lo)
		for c := lo; c < r; c++ {
			got = append(got, key[order[c]])
			if c > lo && !tieBefore(&ts.Tasks[order[c-1]], &ts.Tasks[order[c]]) {
				return false
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		for c := range got {
			if !SameFloat(got[c], sorted[lo+c]) {
				return false
			}
		}
		lo = r
	}
	return true
}

// TestSortByContributionIsPermutation checks, property-style, that both
// orderings return a permutation that realizes the Eps-cluster rule.
// Adjacent pairs need not satisfy Precedes inside an Eps-chain, so the
// check follows the cluster rule itself.
func TestSortByContributionIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := randomSet(rng, rng.Intn(4))
		return checkClusterOrder(ts, MaxContributionsInto(ts, nil), SortByContribution(ts)) &&
			checkClusterOrder(ts, MaxUtilsInto(ts, nil), SortByMaxUtil(ts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sortIDs runs the ordering sort on hand-set keys and returns the
// resulting task IDs.
func sortIDs(ts *TaskSet, key []float64) []int {
	s := SortScratch{key: key}
	var ids []int
	for _, i := range sortIndexByKey(ts, nil, &s) {
		ids = append(ids, ts.Tasks[i].ID)
	}
	return ids
}

// TestSortTieRule pins the Eps-cluster rule on hand cases.
func TestSortTieRule(t *testing.T) {
	f32 := func(x float64) uint32 { return math.Float32bits(float32(x)) }
	// 0.7 and 0.7+5e-9 share a float32 image but differ by more than
	// Eps, so only the exact-key repair can put the larger one first.
	if f32(0.7) != f32(0.7+5e-9) {
		t.Fatal("test premise: 0.7 and 0.7+5e-9 should collide in float32")
	}
	cases := []struct {
		name  string
		crits []int
		ids   []int
		keys  []float64
		want  []int
	}{
		{"empty", nil, nil, nil, nil},
		{"single", []int{1}, []int{7}, []float64{0.3}, []int{7}},
		{"two apart", []int{2, 1}, []int{1, 2}, []float64{0.1, 0.2}, []int{2, 1}},
		{"two tied", []int{1, 2}, []int{1, 2}, []float64{0.2, 0.2 + Eps/2}, []int{2, 1}},
		// The cycle of the pairwise relation: 0 ≈ 0.6e-9 ≈ 1.2e-9 but
		// 1.2e-9 ≻ 0. All three form one cluster, ordered by ID.
		{"eps chain", []int{1, 1, 1}, []int{3, 1, 2}, []float64{0, 0.6e-9, 1.2e-9}, []int{1, 2, 3}},
		{"exact tie cluster", []int{1, 3, 3, 2, 1}, []int{5, 4, 2, 3, 1},
			[]float64{0.5, 0.5, 0.5, 0.9, 0.5}, []int{3, 2, 4, 1, 5}},
		{"float32 collision", []int{3, 1, 2}, []int{1, 2, 3},
			[]float64{0.7, 0.7 + 5e-9, 0.1}, []int{2, 1, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := &TaskSet{}
			for i := range c.ids {
				ts.Tasks = append(ts.Tasks, Task{ID: c.ids[i], Crit: c.crits[i]})
			}
			if got := sortIDs(ts, c.keys); !slices.Equal(got, c.want) {
				t.Errorf("order = %v, want %v", got, c.want)
			}
			// Every input order of the same (key, crit, ID) triples
			// gives the same sequence.
			rng := rand.New(rand.NewSource(1))
			for r := 0; r < 10; r++ {
				perm := rng.Perm(len(c.ids))
				pts, pkey := &TaskSet{}, make([]float64, len(perm))
				for j, i := range perm {
					pts.Tasks = append(pts.Tasks, ts.Tasks[i])
					pkey[j] = c.keys[i]
				}
				if got := sortIDs(pts, pkey); !slices.Equal(got, c.want) {
					t.Errorf("permutation %v: order = %v, want %v", perm, got, c.want)
				}
			}
		})
	}
}

// TestSortPermutationInvariant shuffles ts.Tasks, IDs attached, and
// requires both orderings to yield the same ID sequence.
func TestSortPermutationInvariant(t *testing.T) {
	ids := func(ts *TaskSet, order []int) []int {
		out := make([]int, len(order))
		for r, i := range order {
			out[r] = ts.Tasks[i].ID
		}
		return out
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		ts := randomSet(rng, rng.Intn(6))
		wantC, wantU := ids(ts, SortByContribution(ts)), ids(ts, SortByMaxUtil(ts))
		rng.Shuffle(len(ts.Tasks), func(i, j int) { ts.Tasks[i], ts.Tasks[j] = ts.Tasks[j], ts.Tasks[i] })
		if got := ids(ts, SortByContribution(ts)); !slices.Equal(got, wantC) {
			t.Fatalf("trial %d: contribution order %v after shuffle, want %v", trial, got, wantC)
		}
		if got := ids(ts, SortByMaxUtil(ts)); !slices.Equal(got, wantU) {
			t.Fatalf("trial %d: max-util order %v after shuffle, want %v", trial, got, wantU)
		}
	}
}

// TestPrecedesTotalOrder verifies antisymmetry of the relation on
// random pairs: exactly one of a≻b, b≻a holds for distinct IDs.
func TestPrecedesTotalOrder(t *testing.T) {
	f := func(ca, cb float64, critA, critB uint8) bool {
		a := mkTask(1, 10, 1+int(critA%3), 1, 1, 1)
		a.WCET = a.WCET[:a.Crit]
		b := mkTask(2, 10, 1+int(critB%3), 1, 1, 1)
		b.WCET = b.WCET[:b.Crit]
		ab := Precedes(&a, ca, &b, cb)
		ba := Precedes(&b, cb, &a, ca)
		return ab != ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContributionsSingleTask(t *testing.T) {
	ts := NewTaskSet(mkTask(1, 10, 3, 1, 2, 3))
	cs := Contributions(ts)
	// A lone task contributes 100% at every level.
	for k, v := range cs[0].PerLevel {
		if !almost(v, 1.0) {
			t.Errorf("C(%d) = %v, want 1", k+1, v)
		}
	}
	if !almost(cs[0].Max, 1.0) {
		t.Errorf("Max = %v, want 1", cs[0].Max)
	}
}
