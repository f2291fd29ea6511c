// The naive object-per-function simulation loop, kept verbatim as the
// differential-testing oracle (and speedup baseline) for the columnar
// kernel behind SimStream.
//
// SimulateReference() reproduces the seed engine exactly: a full O(n)
// arrival-decode scan per minute, byte-per-function membership mirrors,
// and an O(n) residency pass striding array-of-struct FunctionAccounts.
// It intentionally shares NO hot-path code with sim/columnar.* — only the
// Policy/MemSet API and ComputeFleetMetrics — so tests can assert that the
// fast kernel's accounts, totals and memory series are bitwise-equal to an
// independent implementation (tests/columnar_diff_test.cc), and benches
// can report the honest before/after ratio.

#ifndef SPES_TESTS_REFERENCE_KERNEL_H_
#define SPES_TESTS_REFERENCE_KERNEL_H_

#include "common/status.h"
#include "sim/accounting.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "trace/trace.h"

namespace spes {

/// \brief Batch simulation of `policy` over `trace` using the naive
/// per-function reference loop. Same contract and semantics as
/// Simulate(); exists solely for differential testing and benchmarking.
Result<SimulationOutcome> SimulateReference(const Trace& trace,
                                            Policy* policy,
                                            const SimOptions& options);

}  // namespace spes

#endif  // SPES_TESTS_REFERENCE_KERNEL_H_
