package experiments

import (
	"fmt"
	"strings"

	"catpa/internal/partition"
)

// Variant is one cell of the heuristic x analysis cross-product a
// sweep compares: a partitioning scheme running atop a per-core
// schedulability backend. The zero Backend selects the default EDF-VD
// analysis, so a plain scheme list lifts into variants without naming
// the backend anywhere — default sweeps keep their historical
// identity (series labels, metric labels, checkpoint headers).
type Variant struct {
	Scheme  partition.Scheme
	Backend string
}

// backendName resolves the empty-string default.
func (v Variant) backendName() string {
	if v.Backend == "" {
		return partition.DefaultBackend
	}
	return v.Backend
}

// String renders the variant's canonical name: the scheme name alone
// on the default backend ("CA-TPA"), scheme@backend otherwise
// ("CA-TPA@amcrtb"). The form round-trips through ParseVariant and is
// the identity used in chart legends, CSV headers and checkpoint
// journals.
func (v Variant) String() string {
	if v.backendName() == partition.DefaultBackend {
		return v.Scheme.String()
	}
	return v.Scheme.String() + "@" + v.Backend
}

// Label renders the variant as a metric-name label: the scheme label
// alone on the default backend ("ca-tpa"), suffixed with the backend
// otherwise ("ca-tpa-amcrtb").
func (v Variant) Label() string {
	if v.backendName() == partition.DefaultBackend {
		return SchemeLabel(v.Scheme)
	}
	return SchemeLabel(v.Scheme) + "-" + v.Backend
}

// ParseVariant parses the String form: a scheme name, optionally
// followed by "@backend". The backend must be one NewBackend knows;
// RunContext re-validates it and additionally checks each point's
// criticality-level count against the backend's MaxLevels.
func ParseVariant(name string) (Variant, error) {
	schemeName, backend, found := strings.Cut(name, "@")
	s, err := partition.ParseScheme(schemeName)
	if err != nil {
		return Variant{}, fmt.Errorf("experiments: bad variant %q: %v", name, err)
	}
	if found {
		if _, err := partition.NewBackend(backend); err != nil {
			return Variant{}, fmt.Errorf("experiments: bad variant %q: %v", name, err)
		}
		if backend == partition.DefaultBackend {
			backend = "" // normalize to the zero-value default
		}
	}
	return Variant{Scheme: s, Backend: backend}, nil
}

// DefaultVariants returns the five paper schemes on the default
// EDF-VD backend, in presentation order.
func DefaultVariants() []Variant {
	out := make([]Variant, len(partition.Schemes))
	for i, s := range partition.Schemes {
		out[i] = Variant{Scheme: s}
	}
	return out
}

// backendGroup batches the variants of one backend so a worker
// prepares each task set once per backend and then places every
// scheme of the group, sharing one Prepare's per-set preparation
// across the group's schemes.
type backendGroup struct {
	backend string
	schemes []partition.Scheme
	idx     []int // variant index of each scheme, into the sweep's variant list
}

// buildGroups partitions variants by backend, preserving first-seen
// backend order and within-backend variant order.
func buildGroups(variants []Variant) []backendGroup {
	var groups []backendGroup
	pos := make(map[string]int)
	for vi, v := range variants {
		name := v.backendName()
		gi, ok := pos[name]
		if !ok {
			gi = len(groups)
			pos[name] = gi
			groups = append(groups, backendGroup{backend: name})
		}
		groups[gi].schemes = append(groups[gi].schemes, v.Scheme)
		groups[gi].idx = append(groups[gi].idx, vi)
	}
	return groups
}
