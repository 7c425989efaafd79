package partition

import "catpa/internal/fpamc"

// amcrtbBackend adapts the AMC-rtb response-time analysis of
// internal/fpamc to Backend: the ten reset, delta and probe methods are
// fpamc.Backend's own, and this adapter adds the identity and the
// report. See fpamc.Backend for the incremental state and why its
// core-utilization metric is the Eq. 4 own-level load.
type amcrtbBackend struct{ fpamc.Backend }

// Name implements Backend.
//
//mc:allocfree constant
func (b *amcrtbBackend) Name() string { return fpamc.BackendName }

// MaxLevels implements Backend: AMC-rtb is dual-criticality.
//
//mc:allocfree constant
func (b *amcrtbBackend) MaxLevels() int { return 2 }

// ReportInto implements Backend. FeasibleK and Lambda are EDF-VD
// notions with no AMC counterpart; they stay zero and empty.
//
//mc:allocfree fills the caller-owned CoreInfo in place
func (b *amcrtbBackend) ReportInto(c int, ci *CoreInfo) {
	ci.Util = b.OwnLoad(c)
	ci.FeasibleK = 0
	ci.Lambda = ci.Lambda[:0]
}
