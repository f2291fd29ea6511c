// SimStream: the incremental, observable simulation session the engine is
// built on.
//
// A stream is opened over a trace and one or more policies, then driven
// minute-by-minute: Step() simulates one minute, RunUntil(t) advances to an
// absolute minute, Finish()/FinishAll() run to the end of the window and
// return the outcome(s). The §V-A semantics of the batch engine — train
// prefix, per-minute policy step, engine-side cold-start accounting,
// execution pinning — are preserved bit-for-bit; Simulate() in sim/engine.h
// is now a thin wrapper over a full-window stream.
//
// Three capabilities come with the session form:
//   * SimObserver hooks (sim/observer.h): per-minute callbacks with the
//     lane's arrivals, MemSet and incremental counters — time-series
//     capture, live snapshots, progress, early stop.
//   * Checkpoint()/Restore(): snapshot the engine cursor, per-function
//     accounts and (for checkpointable policies) the policy-visible state;
//     SerializeCheckpoint()/ParseCheckpoint() turn snapshots into bytes
//     for cross-process resume.
//   * Lockstep lanes: N policies advance over ONE shared arrival decode
//     per minute, so a policy sweep walks the trace once instead of once
//     per policy; within a minute the lanes step in parallel (sim/lane.h).

#ifndef SPES_SIM_STREAM_H_
#define SPES_SIM_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "latency/latency.h"
#include "sim/accounting.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/lane.h"
#include "sim/memset.h"
#include "sim/observer.h"
#include "sim/policy.h"
#include "trace/trace.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief A resumable snapshot of a SimStream: the cursor plus, per lane,
/// every counter the engine maintains and the policy's serialized state.
/// Produced by SimStream::Checkpoint(), consumed by SimStream::Restore();
/// SerializeCheckpoint()/ParseCheckpoint() round-trip it through bytes.
/// A lane's `latency_state` is empty unless the stream ran with a latency
/// block. Serialized checkpoints stay at version 1 (byte-identical to
/// before the latency subsystem existed) when every lane's blob is empty;
/// any non-empty blob bumps the tag to version 2.
struct SimCheckpoint : CheckpointCursor {
  using Lane = LaneCheckpoint;
  std::vector<Lane> lanes;
};

/// \brief Byte form of a checkpoint (magic-tagged, little-endian).
std::string SerializeCheckpoint(const SimCheckpoint& checkpoint);

/// \brief Parses bytes produced by SerializeCheckpoint(); truncated or
/// corrupt input yields InvalidArgument instead of undefined behaviour.
Result<SimCheckpoint> ParseCheckpoint(const std::string& bytes);

/// \brief An incremental simulation session. Create() trains the
/// policy/policies and positions the cursor at the first simulated minute.
/// The trace, policies and observers are borrowed and must outlive the
/// stream. Not thread-safe; drive each stream from one thread. Lockstep
/// lanes step concurrently inside Step() on up to
/// SimOptions::step_threads threads (sim/lane.h); a single-lane stream
/// never starts a thread.
class SimStream : public LaneSession {
 public:
  /// \brief Single-policy stream. Fails like Simulate() on a null policy,
  /// an invalid window, or a train window past the trace horizon.
  static Result<SimStream> Create(const Trace& trace, Policy* policy,
                                  const SimOptions& options);

  /// \brief Lockstep multi-policy stream: every lane advances over one
  /// shared arrival decode per minute. Lanes must be distinct, non-null
  /// policy instances (each lane owns its MemSet and counters).
  static Result<SimStream> Create(const Trace& trace,
                                  std::vector<Policy*> policies,
                                  const SimOptions& options);

  /// \brief Streamed single-policy stream over any TraceSource (e.g. a
  /// packed trace file): arrivals are pulled in chunked minute windows, so
  /// the full trace never needs to exist in memory. The policy trains on
  /// the sparse training window (decoded only if some lane needs it);
  /// policies whose RequiresFullTrace() is true are rejected with
  /// InvalidArgument. The source must outlive the
  /// stream. Outcomes are bitwise-identical to the in-memory overloads.
  static Result<SimStream> Create(TraceSource& source, Policy* policy,
                                  const SimOptions& options);

  /// \brief Streamed lockstep form; see the TraceSource overload above.
  static Result<SimStream> Create(TraceSource& source,
                                  std::vector<Policy*> policies,
                                  const SimOptions& options);

  /// \brief Convenience: RunUntil(end_minute()).
  Status RunToEnd() { return RunUntil(end_); }

  /// \brief Live fleet metrics of one lane over the minutes simulated so
  /// far (wall-clock overhead included). O(n) — fine per snapshot, use an
  /// observer with LiveTotals for per-minute monitoring.
  [[nodiscard]] FleetMetrics SnapshotMetrics(size_t lane) const;

  /// \brief Runs to the end of the window (unless already stopped) and
  /// returns the single lane's outcome, consuming the stream. Requires a
  /// single-lane stream; lockstep streams use FinishAll().
  Result<SimulationOutcome> Finish();

  /// \brief Runs to the end of the window (unless already stopped) and
  /// returns every lane's outcome in lane order, consuming the stream.
  Result<std::vector<SimulationOutcome>> FinishAll();

  /// \brief Halts the stream as if an observer returned false; done()
  /// becomes true, further Step()/RunUntil() calls return Cancelled, and
  /// Finish() returns the partial-window outcome.
  void RequestStop() { stopped_ = true; }

  /// \brief Snapshot of the cursor, per-lane counters and policy state.
  /// Every lane's policy must support checkpointing (NotImplemented
  /// naming the first lane that does not, otherwise). Fails once the
  /// stream has been consumed by Finish()/FinishAll().
  [[nodiscard]] Result<SimCheckpoint> Checkpoint() const;

  /// \brief Rewinds/forwards this stream to `checkpoint`. The stream must
  /// have been created over the same trace, window and policy line-up as
  /// the checkpoint's origin (validated field by field, InvalidArgument
  /// naming the mismatch); policies are handed their serialized state.
  /// After a successful restore the stream continues from
  /// checkpoint.cursor exactly as the original would have. A failed
  /// restore (a corrupt policy or latency blob included) leaves the
  /// stream exactly as it was.
  Status Restore(const SimCheckpoint& checkpoint);

 private:
  SimStream(TraceSource* source, std::unique_ptr<TraceSource> owned,
            const SimOptions& options, int end);

  /// Shared body of the Create() overloads. Every policy trains on the
  /// training window decoded from `source`, except that on the in-memory
  /// path (`full_trace` non-null) a RequiresFullTrace() policy trains on
  /// the full trace; a streamed session (null) rejects such policies.
  static Result<SimStream> CreateImpl(TraceSource* source,
                                      std::unique_ptr<TraceSource> owned,
                                      const Trace* full_trace,
                                      std::vector<Policy*> policies,
                                      const SimOptions& options);
};

}  // namespace spes

#endif  // SPES_SIM_STREAM_H_
