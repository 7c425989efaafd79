package mc_test

import (
	"slices"
	"sort"
	"testing"

	"catpa/internal/experiments"
	"catpa/internal/mc"
	"catpa/internal/taskgen"
)

// figureConfigs returns the generator configuration of every point of
// the paper's Figs. 1-5.
func figureConfigs(t testing.TB) []taskgen.Config {
	var cfgs []taskgen.Config
	for fig := 1; fig <= 5; fig++ {
		s := experiments.Figure(fig, 1, 1)
		for _, x := range s.Values {
			p := experiments.DefaultParams()
			s.Apply(&p, x)
			cfg := taskgen.DefaultConfig()
			cfg.M, cfg.K, cfg.NSU, cfg.IFC, cfg.N = p.M, p.K, p.NSU, p.IFC, p.N
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// chainFree reports whether every Eps-cluster of key (the keys sorted
// in decreasing order, cut wherever neighbours differ by more than
// Eps) spans at most Eps, so that Precedes is a strict total order on
// the set.
func chainFree(key []float64) bool {
	sorted := append([]float64(nil), key...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	lo := 0
	for r := 1; r <= len(sorted); r++ {
		if r < len(sorted) && sorted[r-1]-sorted[r] <= mc.Eps {
			continue
		}
		if sorted[lo]-sorted[r-1] > mc.Eps {
			return false
		}
		lo = r
	}
	return true
}

// TestSortAgreesWithPrecedes checks that on chain-free sets from the
// Figs. 1-5 generators both orderings equal a reference stable sort
// under the paper's pairwise relation Precedes.
func TestSortAgreesWithPrecedes(t *testing.T) {
	sets := 40
	if testing.Short() {
		sets = 8
	}
	policies := []struct {
		name string
		keys func(*mc.TaskSet, []float64) []float64
		sort func(*mc.TaskSet, []int, *mc.SortScratch) []int
	}{
		{"contribution", mc.MaxContributionsInto, mc.SortByContributionInto},
		{"maxutil", mc.MaxUtilsInto, mc.SortByMaxUtilInto},
	}
	var s mc.SortScratch
	var order []int
	checked := 0
	for pi, cfg := range figureConfigs(t) {
		for i := 0; i < sets; i++ {
			ts := taskgen.GenerateIndexed(&cfg, 2016, i)
			for _, pol := range policies {
				key := pol.keys(ts, nil)
				if !chainFree(key) {
					continue
				}
				want := make([]int, len(key))
				for r := range want {
					want[r] = r
				}
				sort.SliceStable(want, func(a, b int) bool {
					return mc.Precedes(&ts.Tasks[want[a]], key[want[a]], &ts.Tasks[want[b]], key[want[b]])
				})
				order = pol.sort(ts, order, &s)
				if !slices.Equal(order, want) {
					t.Fatalf("point %d set %d %s: order %v, want %v", pi, i, pol.name, order, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no chain-free set was checked")
	}
}

// BenchmarkSort times both orderings on one Fig. 1 set (NSU 0.6, N ~
// U[40,200]) with reused storage; the steady state allocates nothing.
func BenchmarkSort(b *testing.B) {
	cfg := taskgen.DefaultConfig()
	ts := taskgen.GenerateIndexed(&cfg, 2016, 0)
	for _, bc := range []struct {
		name string
		sort func(*mc.TaskSet, []int, *mc.SortScratch) []int
	}{
		{"contribution", mc.SortByContributionInto},
		{"maxutil", mc.SortByMaxUtilInto},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s mc.SortScratch
			order := bc.sort(ts, nil, &s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				order = bc.sort(ts, order, &s)
			}
		})
	}
}
