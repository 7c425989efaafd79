package partition_test

import (
	"testing"

	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// TestHotPathAllocFree is the runtime twin of the //mc:allocfree
// annotations on the partitioning hot path: after one warm-up run,
// Partitioner.Run and the Prepare/Place/Summarize evaluation path must
// perform zero heap allocations per call, under both analysis backends
// and every scheme. mclint's
// allocfree pass proves the property statically; this test pins it
// against compiler escape-analysis regressions the static model cannot
// see (closures that start escaping, interface conversions introduced
// by inlining changes).
func TestHotPathAllocFree(t *testing.T) {
	for _, name := range []string{partition.DefaultBackend, "amcrtb"} {
		t.Run(name, func(t *testing.T) {
			// K=2 keeps the set valid for the dual-criticality AMC-rtb
			// backend; the EDF-VD path is K-generic so nothing is lost.
			cfg := popConfig(4, 2)
			ts := taskgen.GenerateIndexed(&cfg, 17, 0)
			be, err := partition.NewBackend(name)
			if err != nil {
				t.Fatal(err)
			}
			p := partition.NewWithBackend(4, 2, be)
			for _, scheme := range partition.Schemes {
				p.Run(ts, scheme, nil) // warm up the amortized storage
				allocs := testing.AllocsPerRun(50, func() {
					p.Run(ts, scheme, nil)
				})
				if allocs != 0 {
					t.Errorf("%s/%v: Run allocates %.1f times per call, want 0", name, scheme, allocs)
				}
				allocs = testing.AllocsPerRun(50, func() {
					p.Prepare(ts)
					p.Place(scheme, nil)
					p.Summarize()
				})
				if allocs != 0 {
					t.Errorf("%s/%v: Prepare/Place/Summarize allocates %.1f times per call, want 0", name, scheme, allocs)
				}
			}
		})
	}
}

// TestSessionAllocFree extends the alloc-free proof to the incremental
// delta methods: a full online cycle — StartIncremental, admitting the
// whole set, releasing half, re-admitting, summarizing — must perform
// zero heap allocations per cycle at steady state, under both backends
// and every scheme. This is the runtime twin of the //mc:allocfree
// annotations on Admit, Release and the backends' Place/Remove/rebuild
// delta paths.
func TestSessionAllocFree(t *testing.T) {
	for _, name := range []string{partition.DefaultBackend, "amcrtb"} {
		t.Run(name, func(t *testing.T) {
			cfg := popConfig(4, 2)
			ts := taskgen.GenerateIndexed(&cfg, 17, 0)
			be, err := partition.NewBackend(name)
			if err != nil {
				t.Fatal(err)
			}
			p := partition.NewWithBackend(4, 2, be)
			for _, scheme := range partition.Schemes {
				cycle := func() {
					p.StartIncremental(ts, scheme, nil)
					for ti := 0; ti < ts.Len(); ti++ {
						p.Admit(ti)
					}
					for ti := 0; ti < ts.Len(); ti += 2 {
						if p.Assigned(ti) >= 0 {
							p.Release(ti)
						}
					}
					for ti := 0; ti < ts.Len(); ti += 2 {
						if p.Assigned(ti) < 0 {
							p.Admit(ti)
						}
					}
					p.Summarize()
				}
				cycle() // warm up the amortized storage
				if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
					t.Errorf("%s/%v: session cycle allocates %.1f times per run, want 0", name, scheme, allocs)
				}
			}
		})
	}
}
