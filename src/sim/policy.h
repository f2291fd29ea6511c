// Provisioning policy interface shared by SPES and all baselines.
//
// A policy is trained offline on the first `train_minutes` of a trace and
// then stepped once per simulated minute. Within a step it sees the minute's
// arrivals and mutates the MemSet (pre-loads and evictions). The engine —
// not the policy — accounts cold starts, so all policies are measured
// identically.
//
// Training reads a TrainingWindow (trace/training_window.h): each
// function's arrival slots over the training minutes, decoded once per
// session and shared by its lanes. A policy that learns nothing offline
// says so through NeedsTrainingWindow(), and a session none of whose
// lanes needs the window decodes no training minute at all.
//
// Concrete policies override Train(const TrainingWindow&) only; the
// oracle, which reads past the training minutes, also overrides the Trace
// form to bind the full trace. The Train(const Trace&, int) overload is a
// compatibility adapter for decorators written against the dense
// interface (perfbench's TimedPolicy); it goes away together with
// TimedPolicy (ROADMAP item 1).

#ifndef SPES_SIM_POLICY_H_
#define SPES_SIM_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/memset.h"
#include "trace/trace.h"
#include "trace/trace_source.h"  // Invocation lives with the trace sources
#include "trace/training_window.h"

namespace spes {

/// \brief Interface implemented by every provisioning strategy.
class Policy {
 public:
  virtual ~Policy() = default;

  /// \brief Human-readable policy name used in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// \brief Offline phase: learn from `window`, the arrivals of minutes
  /// [0, window.train_minutes()). Called exactly once before any
  /// OnMinute(); the window does not outlive the call. The default
  /// materializes the window as a dense Trace and calls the Trace
  /// overload, so a decorator that overrides only that overload still
  /// sees exactly the minutes it used to.
  virtual void Train(const TrainingWindow& window);

  /// \brief Compatibility adapter: builds the window of `trace` over
  /// [0, train_minutes) through an InMemoryTraceSource (metadata only
  /// when NeedsTrainingWindow() is false) and calls Train(window).
  virtual void Train(const Trace& trace, int train_minutes);

  /// \brief False when Train() reads nothing but the window's shape and
  /// metadata (fixed keep-alive, FaasCache); such a policy is handed a
  /// TrainingWindow::MetadataOnly() window.
  [[nodiscard]] virtual bool NeedsTrainingWindow() const { return true; }

  /// \brief Online step for minute `t` (absolute trace minute).
  ///
  /// The engine has already loaded every arriving function into `mem`
  /// (executions occupy memory regardless of policy); the policy applies
  /// its keep-alive / pre-warm / eviction logic. `arrivals` lists this
  /// minute's invoked functions with counts.
  ///
  /// Contract: `t` strictly increases from call to call, but minutes may
  /// be skipped — a dead cluster node's policy is not stepped at all — so
  /// a policy must not assume one call per minute. Between calls, code
  /// outside the policy may evict from `mem` (cluster capacity).
  ///
  /// Threading: the lanes of one lockstep SimStream and the node policies
  /// of one cluster may run OnMinute() concurrently on different threads
  /// (one call per instance at a time), so instances must not share
  /// mutable state — no static caches, no shared generators.
  virtual void OnMinute(int t, const std::vector<Invocation>& arrivals,
                        MemSet* mem) = 0;

  /// \name Checkpoint support (opt-in)
  ///
  /// A checkpointable policy can serialize everything OnMinute() mutates
  /// into an opaque blob and later restore it, so a SimStream holding the
  /// policy can snapshot mid-window and resume bit-for-bit (sim/stream.h).
  /// RestoreState() is called on a policy that was constructed with the
  /// same parameters and Train()ed on the same trace and window as the one
  /// that produced the blob; it only needs to reinstate online-mutable
  /// state. The default implementation opts out.
  /// @{
  /// \brief True when the policy retains a pointer into the trained trace
  /// and reads minutes beyond the train window at OnMinute() time (the
  /// oracle does). Sessions over an in-memory Trace hand such a policy
  /// the full trace through Train(const Trace&, int) instead of a window.
  /// The streamed entry points — SimStream/ClusterSession over a
  /// TraceSource — hold no realized trace, so they reject such policies
  /// with InvalidArgument.
  [[nodiscard]] virtual bool RequiresFullTrace() const { return false; }

  [[nodiscard]] virtual bool SupportsCheckpoint() const { return false; }
  [[nodiscard]] virtual Result<std::string> SaveState() const {
    return Status::NotImplemented("policy '" + name() +
                                  "' does not support checkpointing");
  }
  virtual Status RestoreState(const std::string& blob) {
    (void)blob;
    return Status::NotImplemented("policy '" + name() +
                                  "' does not support checkpointing");
  }
  /// @}
};

}  // namespace spes

#endif  // SPES_SIM_POLICY_H_
