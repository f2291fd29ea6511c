// Defuse (Shen et al., ICDCS 2021): a dependency-guided function scheduler.
//
// Defuse mines inter-function dependencies from invocation histories and
// pre-warms a function when one of its mined predecessors fires. For the
// keep-alive decision it reuses the histogram windows of Shahrad et al.'s
// hybrid policy at function granularity, falling back to a short fixed
// keep-alive for functions whose histories are too sparse (the SPES paper
// notes this fallback covers >32% of functions on the Azure trace).
//
// Dependency mining follows Defuse's "strong dependency" notion: ordered
// pairs (A -> B) where B fires within a short window after A with high
// confidence and sufficient support. The candidate space is restricted to
// function pairs sharing an application — the workflow structures
// dependencies arise from — which keeps mining near-linear in fleet size.

#ifndef SPES_POLICIES_DEFUSE_H_
#define SPES_POLICIES_DEFUSE_H_

#include <string>
#include <vector>

#include "policies/hybrid_histogram.h"
#include "sim/policy.h"

namespace spes {

class PolicyRegistry;

/// \brief Registers "defuse{dependency_window=10,...}" (see
/// policy_registry.h).
void RegisterDefusePolicy(PolicyRegistry& registry);

/// \brief Tuning knobs for Defuse.
struct DefuseOptions {
  /// Max minutes between a predecessor firing and the dependent firing.
  int dependency_window = 10;
  /// Minimum P(B within window | A) to call A -> B a strong dependency.
  double min_confidence = 0.5;
  /// Minimum number of A arrivals before confidence is trusted.
  int min_support = 10;
  /// Minutes a dependency-triggered pre-warm keeps the target loaded.
  int prewarm_hold_minutes = 10;
  /// Keep-alive fallback for sparse-history functions (original paper
  /// uses a 10-minute fixed window).
  int fallback_keepalive_minutes = 10;
};

/// \brief Dependency-guided keep-alive/pre-warm scheduler.
class DefusePolicy : public Policy {
 public:
  explicit DefusePolicy(DefuseOptions options = {});

  [[nodiscard]] std::string name() const override;
  using Policy::Train;
  void Train(const TrainingWindow& window) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \brief Mined strong dependencies (A -> B), for tests/analysis.
  [[nodiscard]] const std::vector<std::vector<uint32_t>>& successors() const {
    return successors_;
  }
  /// \brief Functions scheduled by the fixed fallback (no usable histogram).
  [[nodiscard]] int64_t CountFallbackFunctions() const;

 private:
  DefuseOptions options_;
  /// Keep-alive engine: hybrid histogram windows at function granularity.
  HybridHistogramPolicy keepalive_;
  std::vector<std::vector<uint32_t>> successors_;  // A -> {B...}
  std::vector<int> prewarm_hold_until_;  // dependency pre-warm expiry
};

}  // namespace spes

#endif  // SPES_POLICIES_DEFUSE_H_
