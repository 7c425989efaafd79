// Package fpamc implements fixed-priority Adaptive Mixed-Criticality
// scheduling analysis — the other major family of mixed-criticality
// schedulers that Han et al. (ICPP 2016) position CA-TPA against in
// their related work (Baruah, Burns, Davis, "Response-Time Analysis
// for Mixed Criticality Systems", RTSS 2011; Kelly, Aydin, Zhao,
// "On Partitioned Scheduling of Fixed-Priority Mixed-Criticality Task
// Sets", 2011).
//
// The package provides, for dual-criticality implicit-deadline
// periodic tasks under deadline-monotonic priorities:
//
//   - classical response-time analysis per mode (SMC-style LO-mode and
//     stable HI-mode fixed points), and
//   - the AMC-rtb (response-time bound) analysis of the mode
//     transition: a HI job caught by the LO->HI switch suffers LO-mode
//     interference from low-criticality tasks bounded by its LO-mode
//     response time, plus HI-mode interference from high-criticality
//     tasks throughout.
//
// It also provides partitioned fixed-priority allocation using the
// same FFD/WFD/BFD shells as the EDF-VD path, enabling the
// EDF-VD-vs-FP acceptance comparison of the root package's
// Example_fpcompare and the corresponding benchmarks.
//
// Correctness is cross-validated two ways (see the tests): hand-worked
// fixed points, and execution of accepted task sets in the runtime
// simulator of internal/sim under fixed-priority dispatching — zero
// deadline misses, and every observed response time bounded by the
// analyzed one.
package fpamc
