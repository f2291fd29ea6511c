// SPES: the differentiated provisioning scheduler (§IV, Algorithm 1).
//
// Offline (Train): per-function WT/AT/AN features are extracted from the
// training window; functions are categorized deterministically (with the
// forgetting fallback), indeterminate functions are assigned to pulsed /
// correlated / possible by validation replay, and inter-function
// correlation links are mined from T-lagged co-occurrence.
//
// Online (OnMinute): arrivals refresh each function's waiting-time state
// and (adaptive strategy S2) drift-adjust its predictive values; unknown
// and unseen functions are late-categorized when their online WTs develop
// repeated modes (S3); unseen functions are pre-warmed through same-trigger
// online correlation. Provision follows Algorithm 1: a function is
// pre-loaded when a predicted invocation falls within +/-theta_prewarm of
// now, and evicted once its current WT reaches its type's theta_givenup.
//
// The step is event-driven: its cost follows the minute's arrivals, the
// functions inside a pre-load window and the loaded set, not the fleet
// size. Each function has one wake-up minute — the next minute at which
// its hold or its predictive model can ask for a pre-load — recomputed
// when an arrival or a hold changes it; give-up walks only the loaded
// set. The outputs are bitwise those of the literal dense loop, which is
// kept as the test oracle (tests/reference_spes_policy.h).

#ifndef SPES_CORE_SPES_POLICY_H_
#define SPES_CORE_SPES_POLICY_H_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/categorizer.h"
#include "core/config.h"
#include "core/correlation.h"
#include "core/types.h"
#include "sim/policy.h"

namespace spes {

class PolicyRegistry;

/// \brief Registers "spes{theta_prewarm=2,...}" (see policy_registry.h).
void RegisterSpesPolicy(PolicyRegistry& registry);

/// \brief The SPES provisioning policy.
class SpesPolicy : public Policy {
 public:
  explicit SpesPolicy(SpesConfig config = {});

  [[nodiscard]] std::string name() const override { return "SPES"; }
  using Policy::Train;
  void Train(const TrainingWindow& window) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \name Checkpointing: every field OnMinute() mutates — per-function
  /// states (including the predictive models, which drift under S2/S3),
  /// correlation links, online-correlation trackers and the adaptive
  /// counters. The config is NOT serialized; restore into a policy
  /// constructed with the same SpesConfig.
  /// @{
  [[nodiscard]] bool SupportsCheckpoint() const override { return true; }
  [[nodiscard]] Result<std::string> SaveState() const override;
  Status RestoreState(const std::string& blob) override;
  /// @}

  /// \brief Current type of function `f` (may change online via S3).
  [[nodiscard]] FunctionType TypeOf(size_t f) const { return states_[f].model.type; }

  /// \brief Number of functions per type after training/simulation.
  [[nodiscard]] std::array<int64_t, kNumFunctionTypes> CountByType() const;

  /// \brief Mined candidate->target links (training-time "correlated").
  [[nodiscard]] const std::vector<std::vector<CorrelationLink>>& links_by_candidate() const {
    return links_by_candidate_;
  }

  [[nodiscard]] const SpesConfig& config() const { return config_; }

  /// \brief Number of unknown functions re-categorized by forgetting
  /// (training) and by online adjusting (S3), for the Fig. 15 analysis.
  [[nodiscard]] int64_t forgetting_recategorized() const {
    return forgetting_recategorized_;
  }
  [[nodiscard]] int64_t online_recategorized() const { return online_recategorized_; }

 private:
  friend class SpesPolicyPeer;  // wake-up property test

  struct FunctionState {
    PredictiveModel model;
    int last_arrival = -1;  ///< absolute minute of the most recent arrival
    /// Idle minutes since the last arrival as of OnMinute() call
    /// `wt_step`; IdleWt() adds the calls made since. Idle time counts
    /// calls, not minutes: a dead cluster node is not stepped.
    int current_wt = 0;
    int64_t wt_step = 0;
    bool seen_in_training = false;
    /// Correlation-triggered pre-warm hold (absolute minute, inclusive).
    int corr_hold_until = -1;
    /// Regular functions predict on a phase lattice: when a predicted
    /// invocation passes unfulfilled (a dropped timer event), the next
    /// prediction advances by the period instead of losing the phase.
    /// Advanced lazily (LatticeAt): one advance to t equals advancing at
    /// every minute up to t.
    int64_t next_predicted = -1;
    std::vector<int64_t> online_wts;  ///< S1: WTs observed online
    int adjust_cursor = 0;            ///< online WTs consumed by last S2 run
  };

  /// Online-correlation tracking for one unseen/unknown function (§IV-C2).
  struct OnlineCorrState {
    uint32_t target = 0;
    std::vector<uint32_t> candidates;
    std::vector<uint8_t> active;    // candidate still considered
    std::vector<int32_t> co_count;  // co-occurrences with the target
    int32_t target_arrivals = 0;
    /// Pre-warm grants since the target last fired (telemetry for tuning
    /// the aggressiveness of the initial riding phase).
    int32_t grants_since_arrival = 0;
  };

  /// One (online-correlation entry, candidate slot) pair, filed under the
  /// slot's candidate in the reverse index.
  struct CorrSlot {
    uint32_t entry = 0;
    uint32_t slot = 0;
  };

  /// A wake-up in the heap; live while `generation` is still the
  /// function's (every reschedule bumps it).
  struct WakeEntry {
    int64_t minute = 0;
    uint32_t function = 0;
    uint32_t generation = 0;
    bool operator>(const WakeEntry& other) const {
      return minute > other.minute;
    }
  };

  /// Per-function step flags (flags_).
  static constexpr uint8_t kInvoked = 1;    ///< arrived this minute
  static constexpr uint8_t kPreloaded = 2;  ///< pre-loaded this minute
  static constexpr uint8_t kInWindow = 4;   ///< in window_ (persists)
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  [[nodiscard]] int GivenUpThreshold(FunctionType type) const;
  [[nodiscard]] bool PredictNearInvocation(const FunctionState& state, int t) const;
  void MaybeAdjustPredictiveValues(FunctionState* state);
  void MaybeLateCategorize(FunctionState* state);

  /// Idle minutes of `state` at the end of OnMinute() call `step`.
  [[nodiscard]] int64_t IdleWt(const FunctionState& state, int64_t step) const;
  /// The regular-lattice prediction as the dense loop holds it after an
  /// idle minute `t`; next_predicted unchanged for non-lattice models.
  [[nodiscard]] int64_t LatticeAt(const FunctionState& state, int64_t t) const;
  /// Algorithm 1's pre-load test at minute `t` (advances the lattice).
  [[nodiscard]] bool Preload(FunctionState* state, int t) const;
  /// Earliest minute >= `from` at which Preload() can be true while the
  /// state stays as it is; kNever when no such minute exists.
  [[nodiscard]] int64_t NextWake(const FunctionState& state,
                                 int64_t from) const;
  /// Reschedules `f` from minute `from` after its state changed during
  /// minute `t`; a no-op while `f` is in the window (re-tested anyway).
  void Wake(size_t f, int64_t from, int t);
  void EnterWindow(size_t f);
  /// Rebuilds the wake-up schedule from minute `t`.
  void RebuildSchedule(int t);
  /// Resets the derived step state after Train()/RestoreState().
  void ResetStepState();
  /// Builds corr_of_target_ and the candidate -> slot reverse index.
  void IndexOnlineCorrelations();
  /// The per-entry COR bookkeeping of §IV-C2 (counts, running maximum,
  /// keep/expel). A no-op on `active` unless the counts changed, so it
  /// runs only for entries whose target fired.
  void UpdateOnlineCorrEntry(OnlineCorrState* corr, int t, bool target_fired);
  void UpdateOnlineCorrelations(int t, bool refresh_all, MemSet* mem);

  SpesConfig config_;
  std::vector<FunctionState> states_;
  /// links_by_candidate_[c] = correlated targets pre-warmed when c fires.
  std::vector<std::vector<CorrelationLink>> links_by_candidate_;
  std::vector<OnlineCorrState> online_corr_;
  int64_t forgetting_recategorized_ = 0;
  int64_t online_recategorized_ = 0;

  // --- Derived step state, rebuilt after Train()/RestoreState(). ---------
  int64_t steps_ = 0;     ///< OnMinute() calls since Train/RestoreState
  int last_minute_ = -1;  ///< minute of the latest OnMinute() call
  bool rebuild_pending_ = true;
  std::vector<uint8_t> flags_;
  std::vector<uint32_t> fired_;  ///< this minute's distinct arrivals
  std::vector<int32_t> corr_of_target_;  ///< online_corr_ entry, or -1
  std::vector<uint32_t> slots_begin_;    ///< CSR offsets by candidate
  std::vector<CorrSlot> slots_;
  /// Functions inside a pre-load window: re-Add()ed every minute (an
  /// outside eviction, e.g. cluster capacity, is undone as in the dense
  /// loop) until Preload() turns false.
  std::vector<uint32_t> window_;
  /// Min-heap of wake-ups, at most one live entry per function.
  std::vector<WakeEntry> wake_heap_;
  std::vector<int64_t> wake_at_;  ///< minute of the live entry, or kNever
  std::vector<uint32_t> wake_generation_;
};

}  // namespace spes

#endif  // SPES_CORE_SPES_POLICY_H_
