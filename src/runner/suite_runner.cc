#include "runner/suite_runner.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/recorder.h"
#include "sim/scenario.h"
#include "sim/stream.h"

namespace spes {

namespace {

/// Runs one cluster job to completion over `workload`: per-node policies
/// are built inside ClusterSession::Create, the job's observers ride the
/// session, the fleet aggregate lands in JobResult::outcome and the
/// per-node breakdown in JobResult::cluster. Shared by the pooled worker
/// and the lockstep path so both produce bitwise-identical results.
/// `serial_step` keeps the session's node phase on the calling thread,
/// for jobs that already run on a multi-worker pool.
void RunClusterJob(const Trace& workload, const ScenarioSpec& spec,
                   int recorder_slot, bool serial_step,
                   const std::vector<SimObserver*>& observers,
                   JobResult* result) {
  // The spec's options drive the session; only the observability slot is
  // stamped per job so recorded events identify their slot.
  SimOptions options = spec.options;
  options.recorder_slot = recorder_slot;
  if (serial_step) options.step_threads = 1;
  Result<ClusterSession> session = ClusterSession::Create(
      workload, *spec.cluster, spec.policy, options);
  if (!session.ok()) {
    result->status = session.status();
    return;
  }
  for (SimObserver* observer : observers) {
    session.ValueOrDie().AddObserver(observer);
  }
  Result<ClusterOutcome> outcome = session.ValueOrDie().Finish();
  if (!outcome.ok()) {
    result->status = outcome.status();
    return;
  }
  ClusterOutcome& cluster = outcome.ValueOrDie();
  result->outcome = cluster.fleet;  // per-node detail keeps its own copy
  result->cluster =
      std::make_shared<const ClusterOutcome>(std::move(cluster));
  if (result->label.empty()) {
    result->label = result->outcome.metrics.policy_name;
  }
}

/// Scopes an observer to one lane of a stream: views from other lanes
/// are filtered out and the surviving views are presented as a
/// single-lane stream (lane 0, num_lanes 1). A spec's observers thus
/// behave identically whether the batch ran pooled (one single-lane
/// stream per job) or lockstep (grouped multi-lane streams), and the
/// stock observers (TimeSeriesObserver, ProgressObserver) work
/// unchanged for any slot.
class LaneScopedObserver : public SimObserver {
 public:
  LaneScopedObserver(SimObserver* inner, size_t stream_lane)
      : inner_(inner), stream_lane_(stream_lane) {}

  void OnStreamStart(const StreamInfo& info) override {
    StreamInfo scoped = info;
    scoped.num_lanes = 1;
    inner_->OnStreamStart(scoped);
  }
  bool OnMinute(const MinuteView& view) override {
    if (view.lane != stream_lane_) return true;
    MinuteView scoped = view;
    scoped.lane = 0;
    return inner_->OnMinute(scoped);
  }
  void OnStreamEnd(size_t lane, const SimulationOutcome& outcome) override {
    if (lane == stream_lane_) inner_->OnStreamEnd(0, outcome);
  }

 private:
  SimObserver* inner_;
  size_t stream_lane_;
};

}  // namespace

SuiteRunner::SuiteRunner(SuiteRunnerOptions options)
    : options_(std::move(options)) {}

int SuiteRunner::EffectiveThreads(size_t num_jobs) const {
  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (static_cast<size_t>(threads) > num_jobs) {
    threads = static_cast<int>(num_jobs);
  }
  return threads < 1 ? 1 : threads;
}

std::vector<JobResult> SuiteRunner::Run(const Trace& trace,
                                        std::vector<SuiteJob> jobs) const {
  std::vector<JobResult> results(jobs.size());
  if (jobs.empty()) return results;

  const int num_threads = EffectiveThreads(jobs.size());

  // Work queue: an atomic cursor over job slots. Each worker claims the
  // next slot, runs it to completion, and writes the result into its slot,
  // so result order never depends on scheduling.
  std::atomic<size_t> next{0};
  // Guarded by progress_mutex so callbacks see a monotonic count.
  size_t finished = 0;
  std::mutex progress_mutex;

  auto run_one = [&](size_t slot) {
    SuiteJob& job = jobs[slot];
    JobResult& result = results[slot];
    result.label = job.label;
    // Observability: every event this job emits carries its slot index —
    // a logical id, so recorded traces are identical at any thread count.
    job.options.recorder_slot = static_cast<int>(slot);
    const ScopedSpan job_span(job.options.recorder, "job",
                              static_cast<int>(slot), 0, job.label);
    if (!job.precondition.ok()) {
      result.status = std::move(job.precondition);
    } else if (job.cluster_scenario != nullptr) {
      const Trace& workload = job.trace ? *job.trace : trace;
      // Pool workers already fill the cores: a cluster job steps its
      // nodes on its own worker instead of oversubscribing them.
      RunClusterJob(workload, *job.cluster_scenario, static_cast<int>(slot),
                    /*serial_step=*/num_threads > 1, job.observers, &result);
    } else if (!job.factory) {
      result.status = Status::InvalidArgument("job has no policy factory");
    } else {
      result.policy = job.factory();
      if (result.policy == nullptr) {
        result.status =
            Status::InvalidArgument("policy factory returned null");
      } else {
        if (result.label.empty()) result.label = result.policy->name();
        const Trace& workload = job.trace ? *job.trace : trace;
        // Open the job's own stream so per-job observers ride along;
        // without observers this is exactly Simulate(). The stream is
        // already single-lane, so observers attach directly.
        Result<SimStream> stream =
            SimStream::Create(workload, result.policy.get(), job.options);
        if (stream.ok()) {
          for (SimObserver* observer : job.observers) {
            stream.ValueOrDie().AddObserver(observer);
          }
          Result<SimulationOutcome> outcome = stream.ValueOrDie().Finish();
          if (outcome.ok()) {
            result.outcome = std::move(outcome).ValueOrDie();
          } else {
            result.status = outcome.status();
          }
        } else {
          result.status = stream.status();
        }
      }
    }
    if (options_.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      options_.progress(++finished, jobs.size(), result);
    }
  };

  auto worker = [&] {
    while (true) {
      const size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= jobs.size()) return;
      run_one(slot);
    }
  };

  if (num_threads == 1) {
    worker();
    return results;
  }

  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

namespace {

/// Shared spec -> job lowering: validation and registry errors become job
/// preconditions so each slot (and the progress callback) reports the
/// exact error while sibling specs still run.
SuiteJob JobFromSpec(const ScenarioSpec& spec) {
  SuiteJob job;
  job.label = spec.label;
  job.options = spec.options;
  job.observers = spec.observers;
  job.precondition = ValidateScenarioSpec(spec);
  if (job.precondition.ok() && spec.cluster.has_value()) {
    // Catch registry problems on the calling thread, like the plain path:
    // a throwaway policy instance (un-trained, so cheap) and the router
    // validate the spec; the worker rebuilds per node.
    Result<std::unique_ptr<Policy>> probe =
        PolicyRegistry::Global().Create(spec.policy);
    if (probe.ok()) {
      Result<std::unique_ptr<Router>> router =
          RouterRegistry::Global().Create(spec.cluster->router);
      job.precondition = router.status();
    } else {
      job.precondition = probe.status();
    }
    if (job.precondition.ok()) {
      job.cluster_scenario = std::make_shared<const ScenarioSpec>(spec);
    }
    return job;
  }
  if (job.precondition.ok()) {
    Result<std::unique_ptr<Policy>> built =
        PolicyRegistry::Global().Create(spec.policy);
    if (built.ok()) {
      // SuiteJob factories are std::function (copyable), so the one-shot
      // instance travels in a shared holder; each factory runs once.
      auto holder = std::make_shared<std::unique_ptr<Policy>>(
          std::move(built).ValueOrDie());
      job.factory = [holder] { return std::move(*holder); };
    } else {
      job.precondition = built.status();
    }
  }
  return job;
}

}  // namespace

std::vector<JobResult> SuiteRunner::Run(
    const Trace& trace, const std::vector<ScenarioSpec>& specs) const {
  // Policies are built eagerly on the calling thread so registry errors
  // keep their precise message; Train()/Simulate() — the actual work —
  // still runs on the pool.
  std::vector<SuiteJob> jobs;
  jobs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) jobs.push_back(JobFromSpec(spec));
  return Run(trace, std::move(jobs));
}

std::vector<JobResult> SuiteRunner::RunLockstep(
    const Trace& trace, const std::vector<ScenarioSpec>& specs) const {
  std::vector<JobResult> results(specs.size());

  // Lower every spec through the same JobFromSpec path as the pooled
  // batches (slot isolation: a bad spec only fails its own JobResult),
  // then group the healthy slots by engine options — lockstep lanes
  // share one cursor, so only identical windows can ride one stream.
  std::vector<std::unique_ptr<Policy>> policies(specs.size());
  std::vector<std::vector<size_t>> groups;
  std::vector<std::string> group_keys;
  std::vector<size_t> cluster_slots;
  std::vector<std::shared_ptr<const ScenarioSpec>> cluster_specs(specs.size());
  for (size_t slot = 0; slot < specs.size(); ++slot) {
    const ScenarioSpec& spec = specs[slot];
    JobResult& result = results[slot];
    SuiteJob job = JobFromSpec(spec);
    result.label = job.label;
    result.status = job.precondition;
    if (!result.status.ok()) continue;
    if (job.cluster_scenario != nullptr) {
      // A cluster is already its own multi-lane session; it runs
      // standalone instead of joining a lane group.
      cluster_slots.push_back(slot);
      cluster_specs[slot] = std::move(job.cluster_scenario);
      continue;
    }
    policies[slot] = job.factory();
    if (result.label.empty()) result.label = policies[slot]->name();
    const std::string key = std::to_string(spec.options.train_minutes) + "|" +
                            std::to_string(spec.options.end_minute) + "|" +
                            (spec.options.pin_executing_functions ? "1" : "0");
    size_t group = group_keys.size();
    for (size_t g = 0; g < group_keys.size(); ++g) {
      if (group_keys[g] == key) {
        group = g;
        break;
      }
    }
    if (group == group_keys.size()) {
      group_keys.push_back(key);
      groups.emplace_back();
    }
    groups[group].push_back(slot);
  }

  size_t finished = 0;
  auto report = [&](size_t slot) {
    if (options_.progress) {
      options_.progress(++finished, specs.size(), results[slot]);
    }
  };
  // Failed slots report first, in slot order, so `finished` stays
  // monotonic over the whole batch.
  for (size_t slot = 0; slot < specs.size(); ++slot) {
    if (!results[slot].status.ok()) report(slot);
  }

  for (size_t slot : cluster_slots) {
    RunClusterJob(trace, *cluster_specs[slot], static_cast<int>(slot),
                  /*serial_step=*/false, specs[slot].observers, &results[slot]);
    report(slot);
  }

  for (const std::vector<size_t>& group : groups) {
    std::vector<Policy*> lanes;
    lanes.reserve(group.size());
    for (size_t slot : group) lanes.push_back(policies[slot].get());
    // Recorded events from a shared lockstep stream carry the group
    // leader's slot; lanes keep each member apart.
    SimOptions group_options = specs[group[0]].options;
    group_options.recorder_slot = static_cast<int>(group[0]);
    Result<SimStream> created =
        SimStream::Create(trace, std::move(lanes), group_options);
    if (created.ok()) {
      SimStream& stream = created.ValueOrDie();
      std::vector<std::unique_ptr<LaneScopedObserver>> scoped;
      for (size_t k = 0; k < group.size(); ++k) {
        for (SimObserver* observer : specs[group[k]].observers) {
          if (observer == nullptr) continue;
          scoped.push_back(
              std::make_unique<LaneScopedObserver>(observer, k));
          stream.AddObserver(scoped.back().get());
        }
      }
      Result<std::vector<SimulationOutcome>> outcomes = stream.FinishAll();
      if (outcomes.ok()) {
        std::vector<SimulationOutcome>& group_outcomes =
            outcomes.ValueOrDie();
        for (size_t k = 0; k < group.size(); ++k) {
          results[group[k]].outcome = std::move(group_outcomes[k]);
        }
      } else {
        for (size_t slot : group) results[slot].status = outcomes.status();
      }
    } else {
      for (size_t slot : group) results[slot].status = created.status();
    }
    for (size_t slot : group) {
      results[slot].policy = std::move(policies[slot]);
      report(slot);
    }
  }
  return results;
}

std::vector<JobResult> SuiteRunner::Run(
    const std::vector<ScenarioSpec>& specs) const {
  // Each spec brings its own workload: realize source + transform chain
  // through a per-batch TraceCache, so specs sharing a (source, chain)
  // key share one realized trace. Realization runs on the calling thread
  // — it is cached and ordering-sensitive — while the simulations fan
  // out; the shared_ptr overrides keep every trace alive for the run.
  TraceCache cache;
  // The batch cache reports hit/miss/realize to the first recorder any
  // spec carries (a batch shares at most one run log in practice).
  for (const ScenarioSpec& spec : specs) {
    if (spec.options.recorder != nullptr) {
      cache.set_recorder(spec.options.recorder);
      break;
    }
  }
  std::vector<SuiteJob> jobs;
  jobs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    SuiteJob job = JobFromSpec(spec);
    if (job.precondition.ok()) {
      Result<std::shared_ptr<const Trace>> trace = cache.Get(spec.trace);
      if (trace.ok()) {
        job.trace = std::move(trace).ValueOrDie();
      } else {
        job.precondition = trace.status();
      }
    }
    jobs.push_back(std::move(job));
  }
  // Every job carries its own trace; the common-trace argument is unused.
  static const Trace kNoCommonTrace;
  return Run(kNoCommonTrace, std::move(jobs));
}

std::vector<FleetMetrics> CollectMetrics(
    const std::vector<JobResult>& results) {
  std::vector<FleetMetrics> metrics;
  metrics.reserve(results.size());
  for (const JobResult& result : results) {
    if (result.status.ok()) metrics.push_back(result.outcome.metrics);
  }
  return metrics;
}

}  // namespace spes
