// FaasCache (Fuerst & Sharma, ASPLOS 2021): keep-alive as object caching.
//
// FaasCache treats warm containers as cache objects and applies
// Greedy-Dual-Size-Frequency (GDSF) eviction: every executed function stays
// resident until memory pressure forces eviction of the lowest-priority
// instance, where
//
//   priority(f) = clock + frequency(f) * cost(f) / size(f)
//
// and the cache clock is advanced to the priority of each evicted victim
// (the aging mechanism of GDSF). Under the paper's simulation principles
// cost and size are uniform, so priority reduces to clock + frequency.
//
// The policy requires a memory capacity; the SPES paper provisions it with
// the maximum memory SPES itself used during the simulation.

#ifndef SPES_POLICIES_FAASCACHE_H_
#define SPES_POLICIES_FAASCACHE_H_

#include <string>
#include <vector>

#include "sim/policy.h"

namespace spes {

class PolicyRegistry;

/// \brief Registers "faascache{capacity=N}" (see policy_registry.h).
void RegisterFaasCachePolicy(PolicyRegistry& registry);

/// \brief GDSF keep-alive cache with a fixed capacity (instances).
class FaasCachePolicy : public Policy {
 public:
  /// \param capacity_instances maximum resident instances (> 0).
  explicit FaasCachePolicy(size_t capacity_instances);

  [[nodiscard]] std::string name() const override;
  using Policy::Train;
  /// Purely online: sizes its state from the window's shape only.
  void Train(const TrainingWindow& window) override;
  [[nodiscard]] bool NeedsTrainingWindow() const override { return false; }
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] double clock() const { return clock_; }

 private:
  size_t capacity_;
  double clock_ = 0.0;
  std::vector<double> frequency_;
  std::vector<double> priority_;
  std::vector<uint8_t> pinned_;  // arrived this minute: not evictable
};

}  // namespace spes

#endif  // SPES_POLICIES_FAASCACHE_H_
