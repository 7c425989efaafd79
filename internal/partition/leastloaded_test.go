package partition

import (
	"math"
	"testing"

	"catpa/internal/mc"
)

// scriptBackend is a Backend whose per-core verdicts are scripted:
// ProbeUtil answers +Inf on a core scripted infeasible and 1 otherwise,
// and counts its calls. The allocator's utils are set directly, so
// pickLeastLoaded sees exactly the loads a test chooses.
type scriptBackend struct {
	feasible []bool
	probes   int
}

func (b *scriptBackend) Name() string                   { return "script" }
func (b *scriptBackend) MaxLevels() int                 { return 0 }
func (b *scriptBackend) Reset(m, k int)                 {}
func (b *scriptBackend) Prepare(ts *mc.TaskSet)         {}
func (b *scriptBackend) Begin()                         {}
func (b *scriptBackend) FeasibleWith(c, ti int) bool    { return b.feasible[c] }
func (b *scriptBackend) Place(c, ti int)                {}
func (b *scriptBackend) Remove(c, ti int)               {}
func (b *scriptBackend) Reanalyze(c int)                {}
func (b *scriptBackend) OwnLoad(c int) float64          { return 0 }
func (b *scriptBackend) CoreUtil(c int) float64         { return 0 }
func (b *scriptBackend) ReportInto(c int, ci *CoreInfo) {}

func (b *scriptBackend) ProbeUtil(c, ti int, base, margin float64) float64 {
	b.probes++
	if !b.feasible[c] {
		return math.Inf(1)
	}
	return 1
}

// indexOrderLeastLoaded is the index-order imbalance-fallback scan
// pickLeastLoaded replaced, kept as its reference: a feasible core
// displaces the incumbent only when its load is below the incumbent's
// by more than Eps.
func indexOrderLeastLoaded(utils []float64, feasible []bool) int {
	best := -1
	bestU := math.Inf(1)
	for c, u := range utils {
		if u >= bestU-mc.Eps || !feasible[c] {
			continue
		}
		best, bestU = c, u
	}
	return best
}

// leastLoadedLayout decodes one fuzz input into core loads and
// verdicts: byte c is core c, its low bit the verdict (1 feasible) and
// the rest a step count, so core c's load is base + (byte>>1)*step.
// With step near Eps the loads straddle the hysteresis boundary.
func leastLoadedLayout(base, step float64, layout []byte) ([]float64, []bool) {
	utils := make([]float64, len(layout))
	feasible := make([]bool, len(layout))
	for c, v := range layout {
		utils[c] = base + float64(v>>1)*step
		feasible[c] = v&1 == 1
	}
	return utils, feasible
}

// checkLeastLoaded runs pickLeastLoaded over scripted loads and
// verdicts and compares its pick with the index-order reference.
func checkLeastLoaded(t *testing.T, utils []float64, feasible []bool) {
	t.Helper()
	be := &scriptBackend{feasible: feasible}
	a := allocator{be: be}
	a.reset(len(utils), 1)
	copy(a.utils, utils)
	got := a.pickLeastLoaded(0)
	if want := indexOrderLeastLoaded(utils, feasible); got != want {
		t.Fatalf("loads %v verdicts %v: picked core %d, the index-order scan picks %d", utils, feasible, got, want)
	}
	if be.probes > len(utils) {
		t.Fatalf("loads %v verdicts %v: %d probes on %d cores; a core was probed twice", utils, feasible, be.probes, len(utils))
	}
}

// TestLeastLoadedPickCases pins the load-ordered fallback on the cases
// its chain argument turns on.
func TestLeastLoadedPickCases(t *testing.T) {
	eps := mc.Eps
	cases := []struct {
		name     string
		utils    []float64
		feasible []bool
	}{
		{"ties at zero", []float64{0, 0, 0, 0}, []bool{false, true, true, false}},
		{"none feasible", []float64{0.2, 0.1, 0.3}, []bool{false, false, false}},
		{"infeasible least loaded", []float64{0.5, 0.1, 0.2, 0.4}, []bool{true, false, false, true}},
		// A naive [u*, u*+Eps] band holds only the last two cores and
		// picks the middle one; the index-order scan picks the last.
		{"band breaker", []float64{0.3 + 1.5*eps, 0.3 + 0.7*eps, 0.3}, []bool{true, true, true}},
		{"chain of Eps steps", []float64{0.3 + 3.6*eps, 0.3 + 2.7*eps, 0.3 + 1.8*eps, 0.3 + 0.9*eps, 0.3}, []bool{true, true, true, true, true}},
		{"chain broken by a gap", []float64{0.3 + 5*eps, 0.3 + 0.9*eps, 0.3}, []bool{true, true, true}},
		{"single core", []float64{0.7}, []bool{true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkLeastLoaded(t, tc.utils, tc.feasible)
		})
	}
}

// FuzzLeastLoadedPick is the differential gate of the load-ordered
// imbalance fallback: on fuzzed core loads and verdicts, its pick must
// equal the index-order scan's, probing no core twice.
func FuzzLeastLoadedPick(f *testing.F) {
	f.Add(0.0, 0.0, []byte{0, 1, 1, 0})                // exact ties at 0 (empty cores)
	f.Add(0.1, 0.05, []byte{8, 0, 2, 7, 5})            // infeasible least-loaded cores
	f.Add(0.3, mc.Eps/10, []byte{31, 15, 1})           // loads u*+1.5·Eps, u*+0.7·Eps, u*, all feasible
	f.Add(0.3, 0.9*mc.Eps, []byte{9, 7, 5, 3, 1, 0})   // a chain over several Eps steps
	f.Add(0.25, mc.Eps, []byte{3, 1, 5, 2, 7, 9, 255}) // steps exactly Eps apart
	f.Fuzz(func(t *testing.T, base, step float64, layout []byte) {
		if len(layout) == 0 || len(layout) > 64 {
			t.Skip()
		}
		utils, feasible := leastLoadedLayout(base, step, layout)
		for _, u := range utils {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Skip()
			}
		}
		checkLeastLoaded(t, utils, feasible)
	})
}
