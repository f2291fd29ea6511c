// Clairvoyant upper bound: loads a function exactly one minute before each
// invocation and evicts it as soon as no invocation is imminent. With a
// one-minute prediction horizon it achieves zero cold starts (after the
// first simulated minute) and zero wasted memory — the ideal scheduler the
// paper's introduction describes. Used by tests as a bound and by benches
// as a sanity row; not a baseline from the paper.

#ifndef SPES_POLICIES_ORACLE_H_
#define SPES_POLICIES_ORACLE_H_

#include <string>
#include <vector>

#include "sim/policy.h"

namespace spes {

class PolicyRegistry;

/// \brief Registers "oracle" (see policy_registry.h).
void RegisterOraclePolicy(PolicyRegistry& registry);

/// \brief Perfect-future scheduler (lower-bounds both CSR and WMT).
class OraclePolicy : public Policy {
 public:
  OraclePolicy() = default;

  [[nodiscard]] std::string name() const override { return "Oracle"; }
  /// \brief Binds the full `trace`; the only policy that overrides the
  /// Trace form, because it reads past the training minutes.
  void Train(const Trace& trace, int train_minutes) override;
  /// \brief A window holds no future minute, so this leaves the oracle
  /// unbound; sessions hand a RequiresFullTrace() policy the full trace
  /// instead, and OnMinute() requires one.
  void Train(const TrainingWindow& window) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \brief The oracle reads minute t+1 of the trace bound at Train(), so
  /// it cannot run over a streamed source that materializes only the train
  /// prefix.
  [[nodiscard]] bool RequiresFullTrace() const override { return true; }

  /// \name Checkpointing: the oracle keeps no online-mutable state (its
  /// only member is the trace bound at Train()), so its blob is empty.
  /// @{
  [[nodiscard]] bool SupportsCheckpoint() const override { return true; }
  [[nodiscard]] Result<std::string> SaveState() const override { return std::string(); }
  Status RestoreState(const std::string& blob) override {
    return blob.empty()
               ? Status::OK()
               : Status::InvalidArgument(
                     "oracle state blob must be empty, got " +
                     std::to_string(blob.size()) + " bytes");
  }
  /// @}

 private:
  const Trace* trace_ = nullptr;
};

}  // namespace spes

#endif  // SPES_POLICIES_ORACLE_H_
