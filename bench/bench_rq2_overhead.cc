// RQ2-2: scheduling overhead — wall-clock seconds each policy spends
// deciding provision per simulated minute. Paper: the fixed keep-alive is
// fastest (0.024 s/min on their workstation at 83k functions); SPES adds
// 0.44 s/min, ~6.8% below FaasCache; histogram policies are the slowest.
// Absolute values depend on fleet size and hardware; compare ordering.
//
// The suite goes through SuiteRunner but defaults to ONE worker thread:
// the overhead clock is wall time around Policy::OnMinute, and concurrent
// sibling policies contending for cores would inflate it non-uniformly.
// Set SPES_BENCH_THREADS>1 only to trade timing fidelity for speed.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_policies.h"
#include "metrics/report.h"

int main(int argc, char** argv) {
  using namespace spes;
  const bench::OutputFormat format = bench::BenchFormat(argc, argv);
  const GeneratorConfig config = bench::DefaultGeneratorConfig();
  if (!bench::MachineReadable(format)) {
    bench::Banner("bench_rq2_overhead",
                  "RQ2 — provisioning overhead per simulated minute", config);
  }
  const GeneratedTrace fleet = bench::MakeFleet(config);
  const SimOptions options = bench::DefaultSimOptions(config);
  // Serial by default: this bench measures time, so jobs must not contend.
  const int threads = static_cast<int>(GetEnvInt("SPES_BENCH_THREADS", 1));
  const bench::SuiteResult suite =
      bench::RunPolicySuite(fleet.trace, options, {"spes", {}}, threads);

  Table table({"policy", "total overhead (s)", "overhead (s/sim-minute)",
               "complexity per minute"});
  const char* complexity[] = {
      "O(arrivals + wake-ups + loaded)",   // SPES (event-driven step)
      "O(n) + histogram updates",          // Defuse
      "O(n) histogram windows",            // HF
      "O(apps) histogram windows",         // HA
      "O(resident) timer scan",            // Fixed
      "O(resident) GDSF scan on pressure"  // FaasCache
  };
  for (size_t i = 0; i < suite.outcomes.size(); ++i) {
    const FleetMetrics& m = suite.outcomes[i].metrics;
    table.AddRow({m.policy_name, FormatDouble(m.overhead_seconds, 3),
                  FormatDouble(m.overhead_seconds_per_minute, 6),
                  complexity[i]});
  }
  bench::EmitTable("provisioning overhead per policy", table, format);
  if (!bench::MachineReadable(format)) {
    std::printf("expected shape (paper): fixed keep-alive cheapest; SPES's"
                "\nrule-based overhead is inconsequential relative to typical"
                "\nserverless platform latencies.\n");
  }
  return 0;
}
