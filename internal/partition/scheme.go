package partition

import (
	"fmt"
	"math"
)

// Scheme identifies a partitioning heuristic.
type Scheme int

// The heuristics evaluated in the paper, in the order of its legends.
const (
	// WFD is Worst-Fit Decreasing on own-level utilizations.
	WFD Scheme = iota
	// FFD is First-Fit Decreasing on own-level utilizations.
	FFD
	// BFD is Best-Fit Decreasing on own-level utilizations.
	BFD
	// Hybrid allocates high-criticality tasks (l_i >= 2) with WFD and
	// then low-criticality tasks (l_i = 1) with FFD, following
	// Rodriguez et al.
	Hybrid
	// CATPA is the criticality-aware task partitioning algorithm of
	// Han et al. (Algorithm 1).
	CATPA
)

// Schemes lists all heuristics in presentation order.
var Schemes = []Scheme{WFD, FFD, BFD, Hybrid, CATPA}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case WFD:
		return "WFD"
	case FFD:
		return "FFD"
	case BFD:
		return "BFD"
	case Hybrid:
		return "Hybrid"
	case CATPA:
		return "CA-TPA"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme maps a name (case-sensitive, as produced by String, with
// "CATPA" accepted as an alias) back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "WFD":
		return WFD, nil
	case "FFD":
		return FFD, nil
	case "BFD":
		return BFD, nil
	case "Hybrid":
		return Hybrid, nil
	case "CA-TPA", "CATPA":
		return CATPA, nil
	}
	return 0, fmt.Errorf("partition: unknown scheme %q", name)
}

// Options tunes a heuristic run. The zero value selects the paper's
// defaults.
type Options struct {
	// Alpha is the workload-imbalance threshold of CA-TPA (Section
	// III-C). Zero selects the paper's default 0.7; math.Inf(1)
	// disables the imbalance fallback entirely.
	Alpha float64

	// Trace records the per-task allocation steps in Result.Trace,
	// reproducing the paper's Tables II-III format.
	Trace bool
}

// DefaultAlpha is the paper's default imbalance threshold
// (Section IV-A: "the default values ... alpha = 0.7").
const DefaultAlpha = 0.7

//
//mc:allocfree defaulting accessor
func (o *Options) alpha() float64 {
	//lint:ignore mclint/floateq deliberately exact: 0 is the zero-value sentinel selecting the default, not a computed quantity
	if o == nil || o.Alpha == 0 {
		return DefaultAlpha
	}
	return o.Alpha
}

//
//mc:allocfree defaulting accessor
func (o *Options) trace() bool { return o != nil && o.Trace }

// InfAlpha is a convenience for disabling the imbalance fallback.
func InfAlpha() float64 { return math.Inf(1) }
