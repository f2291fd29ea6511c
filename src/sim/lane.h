// One engine lane and the session built on it. Under the §V-A principles
// (Shahrad et al., ATC'20) a SimStream lockstep lane and a ClusterSession
// node spend a minute the same way, so StepLane() writes that minute once;
// a cluster only routes before it and trims capacity inside it.
// LaneSession holds the rest both sessions share: the cursor, the
// three-phase minute on a fork-join pool, latency setup and the
// checkpoint lane path with its field codecs.

#ifndef SPES_SIM_LANE_H_
#define SPES_SIM_LANE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/fork_join.h"
#include "common/status.h"
#include "latency/latency.h"
#include "sim/accounting.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/memset.h"
#include "sim/observer.h"
#include "sim/policy.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief One policy's engine state: its MemSet, columnar counters,
/// memory series, live totals, policy-step time and optional latency
/// queue, plus per-lane scratch so lanes can step concurrently.
struct Lane {
  Policy* policy = nullptr;  ///< borrowed (a cluster node owns it)
  MemSet mem{0};
  LaneColumns cols;
  std::vector<uint32_t> memory_series;
  LiveTotals totals;
  double overhead_seconds = 0.0;
  /// Latency/queue state when SimOptions.latency is set; null otherwise.
  std::unique_ptr<LatencyLane> latency;
  /// Scratch: which of this minute's arrivals were cold (latency only).
  std::vector<uint8_t> cold_flags;
  /// Scratch: the classic account view handed to observers.
  std::vector<FunctionAccount> scratch_accounts;
};

/// \brief Simulates minute `t` of `lane` over its `arrivals`: cold starts,
/// the timed policy step, pinning (when `pin`), `evict_hook(t)` (when
/// set), residency and the memory series, then the latency lane. Touches
/// only `lane` and what the hook touches, so lanes may step concurrently.
void StepLane(Lane& lane, int t, const std::vector<Invocation>& arrivals,
              bool pin, const std::function<void(int)>& evict_hook = {});

/// \brief One lane's state in a checkpoint: every engine counter plus the
/// policy's and latency lane's serialized state.
struct LaneCheckpoint {
  std::string policy_name;  ///< Policy::name(), validated on Restore
  std::vector<FunctionAccount> accounts;
  std::vector<uint32_t> memory_series;
  std::vector<uint8_t> loaded;  ///< MemSet membership bytes
  LiveTotals totals;
  double overhead_seconds = 0.0;
  std::string policy_state;   ///< Policy::SaveState() blob
  std::string latency_state;  ///< LatencyLane::SaveState(); empty = none
};

/// \brief The session-wide head of a checkpoint: the cursor and the
/// window it was taken in (validated on Restore).
struct CheckpointCursor {
  /// Next minute to simulate when resumed.
  int cursor = 0;
  int train_minutes = 0;
  int end_minute = 0;  ///< resolved end (never 0 unless the window is empty)
  bool pin_executing_functions = true;
  uint64_t num_functions = 0;
  bool stopped = false;  ///< an early stop was requested before the snapshot
};

/// \name Field codecs shared by the SPESCKPT and SPESCLCK framings.
/// @{
void PutCheckpointCursor(BinaryWriter& w, const CheckpointCursor& cursor);
Status ReadCheckpointCursor(BinaryReader& r, CheckpointCursor* cursor);
/// Accounts, memory series and membership bytes, in that order.
void PutLaneCounters(BinaryWriter& w, const LaneCheckpoint& lane);
Status ReadLaneCounters(BinaryReader& r, LaneCheckpoint* lane);
/// Live totals, then the policy-step seconds.
void PutLaneTotals(BinaryWriter& w, const LaneCheckpoint& lane);
Status ReadLaneTotals(BinaryReader& r, LaneCheckpoint* lane);
/// The magic tag and a version in [1, max_version]; `what` names the
/// format in errors ("checkpoint", "cluster checkpoint").
Result<uint32_t> ReadCheckpointTag(BinaryReader& r, const char* magic,
                                   const char* what, uint32_t max_version);
/// InvalidArgument unless every byte was consumed.
Status ExpectCheckpointEnd(const BinaryReader& r, const char* what);
/// @}

/// \brief The shared body of SimStream and ClusterSession: a cursor over
/// a window, a set of lanes and the three-phase minute that steps them.
/// Not thread-safe; drive each session from one thread. Internally each
/// Step() fans StepLane out over up to SimOptions::step_threads threads
/// and joins before it returns; outcomes, checkpoints and observer calls
/// do not depend on the thread count.
class LaneSession {
 public:
  /// Words that name the session in error messages.
  struct Names {
    const char* kind;  ///< "SimStream"
    const char* noun;  ///< "stream"
    const char* lane;  ///< "lane"
  };

  /// \brief Attaches a per-minute observer (borrowed). Must be called
  /// before the first Step(); OnStreamStart fires at that first step.
  void AddObserver(SimObserver* observer);

  /// \name Cursor state
  /// @{
  [[nodiscard]] int cursor() const { return cursor_; }          ///< next minute to run
  [[nodiscard]] int start_minute() const { return start_; }     ///< == train_minutes
  [[nodiscard]] int end_minute() const { return end_; }         ///< resolved end
  [[nodiscard]] size_t num_lanes() const { return lanes_.size(); }
  [[nodiscard]] const Policy* policy(size_t lane) const { return lanes_[lane].policy; }
  /// Minutes decoded so far: one arrival decode serves every lane, so
  /// this counts simulated minutes, not minutes x lanes.
  [[nodiscard]] int64_t minutes_decoded() const { return minutes_decoded_; }
  /// True once the cursor reached end_minute(), an early stop halted the
  /// session, or Finish consumed it.
  [[nodiscard]] bool done() const { return finished_ || stopped_ || cursor_ >= end_; }
  /// True when the session halted before end_minute().
  [[nodiscard]] bool stopped_early() const { return stopped_; }
  /// @}

  /// \brief Simulates one minute across all lanes. Cancelled once the
  /// session was stopped early, OutOfRange once it is exhausted or
  /// consumed by Finish.
  Status Step();

  /// \brief Steps until the cursor reaches min(minute, end_minute()). A
  /// minute at or before the cursor is a no-op. Cancelled when an early
  /// stop halts the session short of the target; OutOfRange once it was
  /// consumed by Finish.
  Status RunUntil(int minute);

 protected:
  LaneSession(const Names& names, TraceSource* source,
              std::unique_ptr<TraceSource> owned, const SimOptions& options,
              int end);
  virtual ~LaneSession() = default;
  LaneSession(LaneSession&&) noexcept = default;
  LaneSession& operator=(LaneSession&&) noexcept = default;

  /// Validates `options` against `horizon` and resolves the end minute.
  static Result<int> ResolveWindow(int horizon, const SimOptions& options);

  /// Appends an untrained lane for `policy`.
  void AddLane(Policy* policy);

  /// Called by Create() once every lane exists: trains the lanes
  /// (TrainLanes), resolves the step thread count and builds each lane's
  /// LatencyLane from options_.latency.
  Status FinishCreate(std::string simulate_label, const Trace* full_trace);

  /// Phase 1 after the shared decode of minute `t` into arrivals_ (a
  /// cluster applies events and routes here). A failure aborts the step
  /// before any lane changes.
  virtual Status RouteMinute(int t) {
    (void)t;
    return Status::OK();
  }
  /// Phase 2 for lane `k`: StepLane over the shared decode (a cluster
  /// steps a node over its routed arrivals instead). Runs on any
  /// participant thread; must touch only lane `k`'s state.
  virtual void StepLaneAt(size_t k, int t);
  /// Phase 3: the arrivals lane `k` saw this minute (the shared decode),
  /// or null when it is not reported (a dead cluster node).
  virtual const std::vector<Invocation>* ReportedArrivals(size_t k) const;

  /// Runs to the end of the window (unless stopped), consumes the session
  /// and returns every lane's outcome in lane order, each also handed to
  /// the observers' OnStreamEnd.
  Result<std::vector<SimulationOutcome>> FinishLanes();

  /// \name The checkpoint lane path
  /// @{
  /// Fails once consumed, or NotImplemented naming the first lane whose
  /// policy cannot checkpoint; otherwise fills the checkpoint head.
  Status BeginCheckpoint(CheckpointCursor* out) const;
  Status SaveLane(size_t k, LaneCheckpoint* out) const;
  /// Validates a checkpoint head (and its lane count) against this
  /// session's window and fleet.
  Status CheckCursor(const CheckpointCursor& in, size_t lanes) const;
  /// Checks every lane's shape, hands every lane's policy and latency
  /// lane its state, then reinstates the engine counters and the cursor.
  /// On a failure every lane is put back as it was and nothing else
  /// changes.
  Status RestoreLanes(const std::vector<const LaneCheckpoint*>& in,
                      const CheckpointCursor& head);
  /// Records a checkpoint event ("save" or "restore") on the recorder.
  void RecordCheckpoint(const char* what) const;
  /// @}

  Names names_;
  /// The in-memory adapter when created from a Trace; null for borrowed
  /// sources. Heap-allocated so source_ stays stable across moves.
  std::unique_ptr<TraceSource> owned_source_;
  TraceSource* source_;
  SimOptions options_;
  int start_;
  int end_;
  int cursor_;
  bool started_ = false;   ///< OnStreamStart delivered
  bool stopped_ = false;   ///< early stop requested
  bool finished_ = false;  ///< outcomes moved out
  int64_t minutes_decoded_ = 0;
  std::vector<Lane> lanes_;
  std::vector<SimObserver*> observers_;
  /// Block-transposed minute-major decode shared by every lane.
  ArrivalDecoder decoder_;
  /// This minute's arrivals, copied from the decoder block (the Policy
  /// API takes a vector); reused across steps.
  std::vector<Invocation> arrivals_;

 private:
  /// Trains every lane from one TrainingWindow decoded off the source
  /// when some lane needs it (a metadata-only window otherwise) or, for a
  /// RequiresFullTrace() policy, from `full_trace` — null for a streamed
  /// session, which rejects such policies. The window is freed on return.
  Status TrainLanes(const Trace* full_trace);
  /// Delivers OnStreamStart exactly once, before any other callback.
  void EnsureStarted();
  /// One simulated minute in the three phases.
  Status StepLocked();
  /// Name, sizes, series length against the cursor, latency presence.
  Status CheckLaneShape(size_t k, const LaneCheckpoint& in,
                        int cursor) const;
  /// Phase 3 for one lane: the observer call and the strided heartbeat.
  /// False when an observer asked to stop.
  bool EmitLaneMinute(size_t k, int t,
                      const std::vector<Invocation>& arrivals);

  /// Participants in phase 2, resolved from SimOptions::step_threads; 1
  /// runs it serially on the calling thread.
  int step_threads_ = 1;
  /// Workers for phase 2: started by the first Step() when
  /// step_threads_ > 1, joined by Finish or destruction.
  std::unique_ptr<ForkJoinPool> pool_;
  std::string simulate_label_;
  /// Open "simulate" span token when SimOptions.recorder is set; closed
  /// by FinishLanes(). Observability only — never feeds sim state.
  uint64_t simulate_span_ = 0;
};

}  // namespace spes

#endif  // SPES_SIM_LANE_H_
