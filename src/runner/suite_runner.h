// SuiteRunner: fans a list of independent policy simulations out across a
// thread pool.
//
// Policies are stateful (Train() fills per-function models), so each job
// owns a fresh policy instance produced by its factory; nothing is shared
// between jobs except the read-only trace. Results are collected by slot
// index, so the output order — and therefore every report table built from
// it — is bitwise identical at any thread count.

#ifndef SPES_RUNNER_SUITE_RUNNER_H_
#define SPES_RUNNER_SUITE_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "sim/engine.h"
#include "sim/observer.h"
#include "sim/policy.h"
#include "trace/trace.h"

namespace spes {

struct ScenarioSpec;  // sim/scenario.h; spec-batch callers include it.

/// \brief Produces a fresh policy instance for one job. Called exactly once
/// per job, from the worker thread that runs it.
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/// \brief One unit of work: a policy (by factory) plus its engine options.
struct SuiteJob {
  /// Display label; when empty the policy's name() is used.
  std::string label;
  PolicyFactory factory;
  SimOptions options;
  /// When non-OK the job is not run and its JobResult carries this status
  /// verbatim (used by the spec-batch overload to report precise
  /// validation/registry errors through the normal result path).
  Status precondition;
  /// Workload override: when set, this job simulates against *this* trace
  /// instead of the one passed to Run(). Set by the trace-less spec-batch
  /// overload so one batch can span several (transformed) workloads.
  std::shared_ptr<const Trace> trace;
  /// Per-minute observers attached to the job's stream (borrowed; null
  /// entries ignored). Populated from ScenarioSpec::observers by the
  /// spec-batch overloads. Jobs run concurrently, so an observer shared
  /// by several jobs must be thread-safe — or give each spec its own.
  std::vector<SimObserver*> observers;
  /// Cluster mode: when set, the job ignores `factory` and simulates the
  /// spec's cluster through a ClusterSession (per-node policies are built
  /// from spec.policy on the worker thread). Populated from ScenarioSpec
  /// by the spec-batch overloads whenever spec.cluster is set.
  std::shared_ptr<const ScenarioSpec> cluster_scenario;
};

/// \brief Outcome of one job. `outcome` is meaningful only when
/// `status.ok()`; `policy` is the trained instance (kept alive for
/// per-type breakdowns such as BreakdownByType). For cluster jobs,
/// `outcome` is the fleet-wide aggregate, `policy` is null, and `cluster`
/// carries the per-node breakdown.
struct JobResult {
  std::string label;
  Status status;
  SimulationOutcome outcome;
  std::unique_ptr<Policy> policy;
  std::shared_ptr<const ClusterOutcome> cluster;
};

/// \brief Progress callback: invoked after each job finishes with the
/// number of completed jobs, the total, and the finished job's result.
/// Serialized by the runner (never called concurrently).
using ProgressCallback =
    std::function<void(size_t finished, size_t total, const JobResult&)>;

/// \brief Runner knobs.
struct SuiteRunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
  ProgressCallback progress;
};

/// \brief Fans independent Simulate() calls out across a thread pool.
class SuiteRunner {
 public:
  explicit SuiteRunner(SuiteRunnerOptions options = {});

  /// \brief Runs every job against `trace` and returns results in job
  /// order. A job whose factory returns null or whose Simulate() errors
  /// yields a JobResult with a non-OK status; sibling jobs are unaffected.
  [[nodiscard]] std::vector<JobResult> Run(const Trace& trace,
                             std::vector<SuiteJob> jobs) const;

  /// \brief Spec-batch overload: a whole figure sweep as data. Each spec's
  /// policy is built through PolicyRegistry::Global() and validated up
  /// front on the calling thread; an invalid spec yields a JobResult
  /// carrying the precise registry/validation error in its slot while
  /// sibling specs still run. The specs' trace sources are ignored — the
  /// supplied trace is the workload for every slot.
  [[nodiscard]] std::vector<JobResult> Run(const Trace& trace,
                             const std::vector<ScenarioSpec>& specs) const;

  /// \brief Lockstep spec batch: instead of fanning one Simulate() per
  /// spec across threads, specs whose SimOptions match in everything but
  /// the recorder slot become lanes of ONE multi-policy SimStream, so
  /// each distinct set of options walks the trace once — one arrival
  /// decode per minute serves every policy in the group. Runs on the calling thread (the parallelism is across
  /// lanes within the walk, not across jobs). Results are slot-indexed
  /// and bitwise identical to Run(trace, specs); an invalid spec fails
  /// only its slot. Each spec's observers see only their own spec's run,
  /// presented as a single-lane stream (MinuteView::lane == 0, exactly
  /// as in the pooled Run) — but note that lanes in a window group share
  /// one cursor, so an early stop requested by ANY spec's observer halts
  /// that whole group and its sibling slots return partial-window
  /// outcomes (with OK status). The
  /// progress callback fires per slot, in slot order, as each group
  /// completes. Spec trace sources are ignored — `trace` is the workload
  /// for every slot. Cluster specs do not join a lane group (a cluster is
  /// already its own multi-lane session); they run standalone, before the
  /// groups, with results bitwise identical to Run(trace, specs).
  [[nodiscard]] std::vector<JobResult> RunLockstep(
      const Trace& trace, const std::vector<ScenarioSpec>& specs) const;

  /// \brief Trace-less spec batch: every spec realizes its *own* trace
  /// source with its transform chain applied, so one batch can sweep
  /// policies across stressed workload variants as pure data. Specs
  /// sharing a source + chain (see TraceSpecKey) share one realized
  /// trace, materialized once on the calling thread; a spec whose source
  /// or chain fails yields a JobResult carrying the precise error in its
  /// slot while sibling specs still run. Results stay slot-indexed and
  /// thread-count independent.
  [[nodiscard]] std::vector<JobResult> Run(const std::vector<ScenarioSpec>& specs) const;

  /// \brief Effective worker count for `num_jobs` jobs (>= 1).
  [[nodiscard]] int EffectiveThreads(size_t num_jobs) const;

 private:
  SuiteRunnerOptions options_;
};

/// \brief Convenience: metrics of every successful job, in job order
/// (failed jobs are skipped).
std::vector<FleetMetrics> CollectMetrics(const std::vector<JobResult>& results);

}  // namespace spes

#endif  // SPES_RUNNER_SUITE_RUNNER_H_
