// The Hybrid histogram policy of Shahrad et al. ("Serverless in the Wild",
// USENIX ATC 2020), the production policy behind Azure Functions' adaptive
// keep-alive, reproduced at two granularities:
//
//   * Hybrid-Application (HA): the original — the scheduling unit is the
//     application; all functions of an app share one warm environment, so
//     an arrival for any of them warms (and keeps warm) the whole app.
//   * Hybrid-Function (HF): the function-granular derivation used by Defuse
//     and by the SPES paper as an additional baseline.
//
// Per unit, the policy maintains a 4-hour IAT histogram. When the histogram
// is representative it unloads the unit right after execution, re-loads it
// `head` (5th percentile) minutes after the last arrival, and keeps it until
// `tail` (99th percentile) minutes. A 10% safety margin widens the window.
// Units without a representative histogram use a fixed keep-alive fallback.

#ifndef SPES_POLICIES_HYBRID_HISTOGRAM_H_
#define SPES_POLICIES_HYBRID_HISTOGRAM_H_

#include <string>
#include <vector>

#include "policies/iat_histogram.h"
#include "sim/policy.h"

namespace spes {

class PolicyRegistry;

/// \brief Registers "hybrid_histogram{granularity=function|application,...}"
/// (see policy_registry.h).
void RegisterHybridHistogramPolicy(PolicyRegistry& registry);

/// \brief Scheduling granularity for the hybrid policy.
enum class HybridGranularity { kApplication, kFunction };

/// \brief Tuning knobs (defaults follow the original paper).
struct HybridOptions {
  int histogram_range_minutes = 240;  ///< 4-hour IAT window
  double head_percentile = 5.0;       ///< pre-warm point
  double tail_percentile = 99.0;      ///< keep-alive horizon
  double margin_fraction = 0.10;      ///< widen [head, tail] by +/-10%
  int min_samples = 10;               ///< representativeness floor
  double max_oob_fraction = 0.5;      ///< representativeness ceiling
  /// Units without a representative histogram use the provider's standard
  /// fixed keep-alive (Azure's default was 20 minutes).
  int fallback_keepalive_minutes = 20;
};

/// \brief Shahrad et al.'s hybrid histogram keep-alive / pre-warm policy.
class HybridHistogramPolicy : public Policy {
 public:
  HybridHistogramPolicy(HybridGranularity granularity,
                        HybridOptions options = {});

  [[nodiscard]] std::string name() const override;
  using Policy::Train;
  void Train(const TrainingWindow& window) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \brief Number of units using the fixed-keep-alive fallback (after
  /// training); exposed for tests and analysis.
  [[nodiscard]] int64_t CountFallbackUnits() const;

 private:
  struct UnitState {
    IatHistogram histogram;
    int last_arrival = -1;
    // Scheduling window relative to last arrival; refreshed per arrival.
    int prewarm_after = 0;   // load at last_arrival + prewarm_after
    int unload_after = 0;    // evict at last_arrival + unload_after
    bool use_histogram = false;

    explicit UnitState(int range) : histogram(range) {}
  };

  void RefreshWindow(UnitState* unit) const;
  void ApplyUnitSchedule(int t, size_t unit_index, MemSet* mem);

  HybridGranularity granularity_;
  HybridOptions options_;
  std::vector<UnitState> units_;
  /// function index -> unit index
  std::vector<uint32_t> unit_of_function_;
  /// unit index -> member function indices
  std::vector<std::vector<uint32_t>> functions_of_unit_;
  /// scratch: whether each unit had an arrival this minute
  std::vector<uint8_t> unit_arrived_;
};

}  // namespace spes

#endif  // SPES_POLICIES_HYBRID_HISTOGRAM_H_
