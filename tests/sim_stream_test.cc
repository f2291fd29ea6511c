// SimStream unit tests: incremental stepping semantics, observer hooks
// and early stop, checkpoint/restore (including the serialized byte
// form, its failure modes and the transactional restore), lockstep
// multi-policy lanes, and those lanes stepping in parallel (identical
// runs at every step_threads). The bitwise streaming-vs-batch
// equivalence on the golden fleet lives in golden_metrics_test.cc.

#include "sim/stream.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_registry.h"
#include "core/spes_policy.h"
#include "latency/latency.h"
#include "obs/recorder.h"
#include "obs/run_log.h"
#include "policies/fixed_keepalive.h"
#include "policies/oracle.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "trace/generator.h"

namespace spes {
namespace {

Trace MakeTrace(std::vector<std::vector<uint32_t>> rows) {
  Trace trace(static_cast<int>(rows[0].size()));
  int k = 0;
  for (auto& row : rows) {
    FunctionTrace f;
    f.meta.name = "f" + std::to_string(k++);
    f.meta.app = "a";
    f.meta.owner = "o";
    f.counts = std::move(row);
    EXPECT_TRUE(trace.Add(std::move(f)).ok());
  }
  return trace;
}

SimOptions Window(int train, int end = 0) {
  SimOptions options;
  options.train_minutes = train;
  options.end_minute = end;
  return options;
}

TEST(SimStreamTest, StepAdvancesCursorAndStopsAtEnd) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  EXPECT_EQ(stream.cursor(), 1);
  EXPECT_EQ(stream.start_minute(), 1);
  EXPECT_EQ(stream.end_minute(), 6);
  EXPECT_FALSE(stream.done());

  EXPECT_TRUE(stream.Step().ok());
  EXPECT_EQ(stream.cursor(), 2);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(stream.Step().ok());
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.minutes_decoded(), 5);

  const Status past_end = stream.Step();
  EXPECT_EQ(past_end.code(), StatusCode::kOutOfRange);
  EXPECT_NE(past_end.message().find("end_minute (=6)"), std::string::npos);
}

TEST(SimStreamTest, RunUntilClampsAndIsIdempotent) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0, 1, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(3).ok());
  EXPECT_EQ(stream.cursor(), 3);
  // At or before the cursor: a no-op, not an error.
  EXPECT_TRUE(stream.RunUntil(2).ok());
  EXPECT_EQ(stream.cursor(), 3);
  // Past the end: clamps.
  EXPECT_TRUE(stream.RunUntil(1000).ok());
  EXPECT_EQ(stream.cursor(), 8);
  EXPECT_TRUE(stream.done());
}

TEST(SimStreamTest, CreateRejectsNullAndDuplicateLanes) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);

  const auto null_single = SimStream::Create(trace, nullptr, Window(0));
  EXPECT_EQ(null_single.status().code(), StatusCode::kInvalidArgument);

  const auto null_lane = SimStream::Create(
      trace, std::vector<Policy*>{&policy, nullptr}, Window(0));
  EXPECT_NE(null_lane.status().message().find("lane 1"), std::string::npos);

  const auto duplicate = SimStream::Create(
      trace, std::vector<Policy*>{&policy, &policy}, Window(0));
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(duplicate.status().message().find("distinct"), std::string::npos);

  const auto empty =
      SimStream::Create(trace, std::vector<Policy*>{}, Window(0));
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimStreamTest, FinishOnMultiLaneStreamIsAnError) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy a(2), b(3);
  SimStream stream =
      SimStream::Create(trace, {&a, &b}, Window(0)).ValueOrDie();
  const auto outcome = stream.Finish();
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("FinishAll"), std::string::npos);
}

TEST(SimStreamTest, FinishConsumesTheStream) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Finish().ok());
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.Finish().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.Step().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.Checkpoint().status().code(), StatusCode::kOutOfRange);
}

TEST(SimStreamTest, ObserverSeesEveryMinuteInOrder) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();

  std::vector<int> minutes;
  std::vector<uint64_t> cumulative_invocations;
  CallbackObserver observer([&](const MinuteView& view) {
    minutes.push_back(view.minute);
    cumulative_invocations.push_back(view.totals.invocations);
    EXPECT_EQ(view.lane, 0u);
    EXPECT_EQ(view.policy->name(), "Fixed-2min");
    return true;
  });
  stream.AddObserver(&observer);
  EXPECT_TRUE(stream.RunToEnd().ok());

  EXPECT_EQ(minutes, (std::vector<int>{1, 2, 3, 4, 5}));
  // Arrivals after training: t=1 (1), t=3 (2), t=5 (1), cumulatively.
  EXPECT_EQ(cumulative_invocations,
            (std::vector<uint64_t>{1, 1, 3, 3, 4}));
}

TEST(SimStreamTest, StreamStartAndEndHooksFire) {
  Trace trace = MakeTrace({{1, 0, 1, 0}, {0, 1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1, 3)).ValueOrDie();

  struct Recorder : SimObserver {
    StreamInfo info;
    int starts = 0;
    int ends = 0;
    uint64_t final_invocations = 0;
    void OnStreamStart(const StreamInfo& i) override {
      info = i;
      ++starts;
    }
    void OnStreamEnd(size_t lane, const SimulationOutcome& out) override {
      EXPECT_EQ(lane, 0u);
      final_invocations = out.metrics.total_invocations;
      ++ends;
    }
  } recorder;
  stream.AddObserver(&recorder);
  EXPECT_TRUE(stream.Finish().ok());

  EXPECT_EQ(recorder.starts, 1);
  EXPECT_EQ(recorder.ends, 1);
  EXPECT_EQ(recorder.info.train_minutes, 1);
  EXPECT_EQ(recorder.info.start_minute, 1);
  EXPECT_EQ(recorder.info.end_minute, 3);
  EXPECT_EQ(recorder.info.num_lanes, 1u);
  EXPECT_EQ(recorder.info.num_functions, 2u);
  EXPECT_EQ(recorder.final_invocations, 2u);  // t=1 (f1), t=2 (f0)
}

TEST(SimStreamTest, ZeroStepStreamStillPairsStartAndEndHooks) {
  // train == horizon: a valid empty window. Observers must still get
  // their OnStreamStart sizing hook before OnStreamEnd.
  Trace trace = MakeTrace({{1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(3)).ValueOrDie();
  TimeSeriesObserver capture(1);
  int ends = 0;
  struct EndCounter : SimObserver {
    int* ends;
    explicit EndCounter(int* e) : ends(e) {}
    void OnStreamEnd(size_t, const SimulationOutcome&) override {
      ++*ends;
    }
  } end_counter(&ends);
  stream.AddObserver(&capture);
  stream.AddObserver(&end_counter);
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_TRUE(outcome.memory_series.empty());
  // The capture is sized (one empty lane), not left unallocated.
  ASSERT_EQ(capture.series().size(), 1u);
  EXPECT_TRUE(capture.series()[0].empty());
  EXPECT_EQ(ends, 1);
}

TEST(SimStreamTest, ObserverEarlyStopHaltsAfterTheCurrentMinute) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  CallbackObserver stop_at_minute_2(
      [](const MinuteView& view) { return view.minute < 2; });
  stream.AddObserver(&stop_at_minute_2);
  // The unreached target is signalled, distinguishably from exhaustion.
  EXPECT_EQ(stream.RunToEnd().code(), StatusCode::kCancelled);
  EXPECT_TRUE(stream.stopped_early());
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.cursor(), 3);  // minute 2 completed, then halted

  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.memory_series.size(), 3u);
  EXPECT_EQ(outcome.metrics.total_invocations, 3u);
}

TEST(SimStreamTest, EarlyStopSignalsCancelledFromStepAndRunUntilAlike) {
  // Regression test: RunUntil/RunToEnd used to return OK after an
  // observer stop while Step() returned OutOfRange. Both now report
  // Cancelled, and a reached target stays a no-op OK.
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  CallbackObserver stop_at_minute_1(
      [](const MinuteView& view) { return view.minute < 1; });
  stream.AddObserver(&stop_at_minute_1);
  EXPECT_EQ(stream.RunToEnd().code(), StatusCode::kCancelled);
  EXPECT_EQ(stream.Step().code(), StatusCode::kCancelled);
  EXPECT_EQ(stream.RunUntil(stream.end_minute()).code(),
            StatusCode::kCancelled);
  // A target at or before the cursor is still a successful no-op.
  EXPECT_TRUE(stream.RunUntil(stream.cursor()).ok());
  // Exhaustion (not an early stop) still reads OutOfRange.
  SimulationOutcome ignored = stream.Finish().ValueOrDie();
  (void)ignored;
  EXPECT_EQ(stream.Step().code(), StatusCode::kOutOfRange);
}

TEST(SimStreamTest, RequestStopHaltsTheStream) {
  Trace trace = MakeTrace({{1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Step().ok());
  stream.RequestStop();
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.Step().code(), StatusCode::kCancelled);
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.memory_series.size(), 1u);
}

TEST(SimStreamTest, SnapshotMetricsTracksThePartialWindow) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(10);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(2).ok());
  const FleetMetrics snapshot = stream.SnapshotMetrics(0);
  EXPECT_EQ(snapshot.total_invocations, 2u);
  EXPECT_EQ(snapshot.total_cold_starts, 1u);  // only the t=0 arrival
  // The stream keeps running after a snapshot.
  EXPECT_TRUE(stream.RunToEnd().ok());
  EXPECT_EQ(stream.SnapshotMetrics(0).total_invocations, 6u);
}

TEST(SimStreamTest, LockstepLanesMatchIndividualRunsAndDecodeOnce) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1, 1, 0},
                           {0, 1, 1, 0, 0, 1, 0, 1},
                           {1, 0, 0, 0, 1, 0, 0, 0}});
  const SimOptions options = Window(2);

  FixedKeepAlivePolicy solo_fixed(2);
  OraclePolicy solo_oracle;
  const SimulationOutcome batch_fixed =
      Simulate(trace, &solo_fixed, options).ValueOrDie();
  const SimulationOutcome batch_oracle =
      Simulate(trace, &solo_oracle, options).ValueOrDie();

  FixedKeepAlivePolicy lane_fixed(2);
  OraclePolicy lane_oracle;
  SimStream stream =
      SimStream::Create(trace, {&lane_fixed, &lane_oracle}, options)
          .ValueOrDie();
  EXPECT_EQ(stream.num_lanes(), 2u);
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();

  // One shared decode per minute, not one per lane.
  EXPECT_EQ(stream.minutes_decoded(), 6);

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].memory_series, batch_fixed.memory_series);
  EXPECT_EQ(outcomes[1].memory_series, batch_oracle.memory_series);
  for (size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(outcomes[0].accounts[f].cold_starts,
              batch_fixed.accounts[f].cold_starts);
    EXPECT_EQ(outcomes[1].accounts[f].cold_starts,
              batch_oracle.accounts[f].cold_starts);
  }
}

TEST(SimStreamTest, LockstepObserverSeesEveryLane) {
  Trace trace = MakeTrace({{1, 0, 1, 0}});
  FixedKeepAlivePolicy a(1), b(3);
  SimStream stream =
      SimStream::Create(trace, {&a, &b}, Window(1)).ValueOrDie();
  std::vector<std::pair<int, size_t>> seen;  // (minute, lane)
  CallbackObserver observer([&](const MinuteView& view) {
    seen.emplace_back(view.minute, view.lane);
    return true;
  });
  stream.AddObserver(&observer);
  EXPECT_TRUE(stream.FinishAll().ok());
  EXPECT_EQ(seen, (std::vector<std::pair<int, size_t>>{
                      {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}}));
}

TEST(SimStreamTest, CheckpointRequiresCheckpointablePolicies) {
  // An anonymous policy without checkpoint support.
  class OpaquePolicy : public Policy {
   public:
    std::string name() const override { return "Opaque"; }
    void Train(const Trace&, int) override {}
    void OnMinute(int, const std::vector<Invocation>&, MemSet*) override {}
  };
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy fixed(2);
  OpaquePolicy opaque;
  SimStream stream =
      SimStream::Create(trace, {&fixed, &opaque}, Window(0)).ValueOrDie();
  const auto checkpoint = stream.Checkpoint();
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kNotImplemented);
  EXPECT_NE(checkpoint.status().message().find("Opaque"), std::string::npos);
  EXPECT_NE(checkpoint.status().message().find("lane 1"), std::string::npos);
}

TEST(SimStreamTest, CheckpointRestoreResumesExactly) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1, 1, 0},
                           {0, 1, 1, 0, 0, 1, 0, 1}});
  const SimOptions options = Window(1);

  FixedKeepAlivePolicy reference_policy(2);
  const SimulationOutcome reference =
      Simulate(trace, &reference_policy, options).ValueOrDie();

  FixedKeepAlivePolicy original(2);
  SimStream first =
      SimStream::Create(trace, &original, options).ValueOrDie();
  EXPECT_TRUE(first.RunUntil(4).ok());
  const SimCheckpoint checkpoint = first.Checkpoint().ValueOrDie();
  EXPECT_EQ(checkpoint.cursor, 4);

  FixedKeepAlivePolicy fresh(2);
  SimStream second = SimStream::Create(trace, &fresh, options).ValueOrDie();
  EXPECT_TRUE(second.Restore(checkpoint).ok());
  EXPECT_EQ(second.cursor(), 4);
  const SimulationOutcome resumed = second.Finish().ValueOrDie();

  EXPECT_EQ(resumed.memory_series, reference.memory_series);
  for (size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(resumed.accounts[f].invocations,
              reference.accounts[f].invocations);
    EXPECT_EQ(resumed.accounts[f].cold_starts,
              reference.accounts[f].cold_starts);
    EXPECT_EQ(resumed.accounts[f].loaded_minutes,
              reference.accounts[f].loaded_minutes);
    EXPECT_EQ(resumed.accounts[f].wasted_minutes,
              reference.accounts[f].wasted_minutes);
  }
}

TEST(SimStreamTest, SerializedCheckpointRoundTrips) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(3).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();
  const std::string bytes = SerializeCheckpoint(checkpoint);

  const SimCheckpoint parsed = ParseCheckpoint(bytes).ValueOrDie();
  EXPECT_EQ(parsed.cursor, checkpoint.cursor);
  EXPECT_EQ(parsed.train_minutes, checkpoint.train_minutes);
  EXPECT_EQ(parsed.end_minute, checkpoint.end_minute);
  EXPECT_EQ(parsed.num_functions, checkpoint.num_functions);
  ASSERT_EQ(parsed.lanes.size(), 1u);
  EXPECT_EQ(parsed.lanes[0].policy_name, "Fixed-2min");
  EXPECT_EQ(parsed.lanes[0].memory_series,
            checkpoint.lanes[0].memory_series);
  EXPECT_EQ(parsed.lanes[0].loaded, checkpoint.lanes[0].loaded);
  EXPECT_EQ(parsed.lanes[0].policy_state, checkpoint.lanes[0].policy_state);

  FixedKeepAlivePolicy fresh(2);
  SimStream resumed =
      SimStream::Create(trace, &fresh, Window(0)).ValueOrDie();
  EXPECT_TRUE(resumed.Restore(parsed).ok());
  EXPECT_EQ(resumed.cursor(), 3);
  EXPECT_TRUE(resumed.Finish().ok());
}

TEST(SimStreamTest, ParseCheckpointRejectsCorruptBytes) {
  EXPECT_EQ(ParseCheckpoint("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCheckpoint("definitely not a checkpoint").status().code(),
            StatusCode::kInvalidArgument);

  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Step().ok());
  std::string bytes = SerializeCheckpoint(stream.Checkpoint().ValueOrDie());
  // Truncation is detected, never UB.
  const std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_EQ(ParseCheckpoint(truncated).status().code(),
            StatusCode::kInvalidArgument);
  // Trailing garbage is rejected too.
  EXPECT_EQ(ParseCheckpoint(bytes + "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimStreamTest, RestoreValidatesShapeAndLineup) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(3).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();

  {
    // Different window.
    FixedKeepAlivePolicy p(2);
    SimStream other = SimStream::Create(trace, &p, Window(2)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("train_minutes (=1)"),
              std::string::npos);
  }
  {
    // Different policy line-up.
    OraclePolicy oracle;
    SimStream other =
        SimStream::Create(trace, &oracle, Window(1)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("Fixed-2min"), std::string::npos);
  }
  {
    // Different fleet size.
    Trace small = MakeTrace({{1, 1, 0, 2, 0, 1}, {0, 0, 1, 0, 1, 0}});
    FixedKeepAlivePolicy p(2);
    SimStream other = SimStream::Create(small, &p, Window(1)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("num_functions"), std::string::npos);
  }
  {
    // Mismatching policy parameters: caught by the lane name check (the
    // fixed keep-alive's name embeds its window).
    FixedKeepAlivePolicy p(5);
    SimStream other = SimStream::Create(trace, &p, Window(1)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("Fixed-2min"), std::string::npos);
    EXPECT_NE(status.message().find("Fixed-5min"), std::string::npos);
  }
}

TEST(SimStreamTest, PolicyRestoreStateRejectsMismatchedFleetSize) {
  // A blob saved from a different fleet must be rejected, not indexed
  // out of bounds by the next OnMinute.
  FixedKeepAlivePolicy saved(2), target(2);
  Trace small = MakeTrace({{1, 0, 1}});
  Trace large = MakeTrace({{1, 0, 1}, {0, 1, 0}});
  saved.Train(small, 0);
  target.Train(large, 0);
  const Status status =
      target.RestoreState(saved.SaveState().ValueOrDie());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("(=1)"), std::string::npos);
  EXPECT_NE(status.message().find("(=2)"), std::string::npos);
}

TEST(SimStreamTest, PolicyRestoreStateRejectsMismatchedParameters) {
  // Drive RestoreState directly: the blob pins the keep-alive window it
  // was saved with.
  FixedKeepAlivePolicy saved(2), target(5);
  Trace trace = MakeTrace({{1, 0, 1}});
  saved.Train(trace, 0);
  target.Train(trace, 0);
  const std::string blob = saved.SaveState().ValueOrDie();
  const Status status = target.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("(=2)"), std::string::npos);
  EXPECT_NE(status.message().find("(=5)"), std::string::npos);
}

TEST(SimStreamTest, TimeSeriesObserverCapturesStridedSamples) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(10);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(2)).ValueOrDie();
  TimeSeriesObserver capture(3);
  stream.AddObserver(&capture);
  EXPECT_TRUE(stream.Finish().ok());
  ASSERT_EQ(capture.series().size(), 1u);
  const std::vector<MinuteSample>& samples = capture.series()[0];
  ASSERT_EQ(samples.size(), 2u);  // minutes 2 and 5
  EXPECT_EQ(samples[0].minute, 2);
  EXPECT_EQ(samples[1].minute, 5);
  EXPECT_EQ(samples[1].invocations, 4u);
  EXPECT_EQ(samples[0].loaded_instances, 1u);
}

// ---------------------------------------------------------------------
// Transactional restore
// ---------------------------------------------------------------------

Trace GeneratedFleet() {
  GeneratorConfig config;
  config.num_functions = 120;
  config.days = 2;
  config.seed = 5;
  return std::move(GenerateTrace(config).ValueOrDie().trace);
}

/// Tight enough (one slot, four queue places) that requests time out.
constexpr char kTightLatency[] =
    "lognormal{warm_median_ms=40,warm_sigma=0.4} @ "
    "queue{capacity=4,concurrency=1,seed=42,timeout_ms=250}";

SimOptions LatencyOptions(int step_threads) {
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  options.latency = ParseLatencySpec(kTightLatency).ValueOrDie();
  options.step_threads = step_threads;
  return options;
}

/// Registry-built policies for one stream, kept alive with it.
struct Lanes {
  std::vector<std::unique_ptr<Policy>> owned;
  std::vector<Policy*> policies;

  explicit Lanes(const std::vector<std::string>& specs) {
    for (const std::string& spec : specs) {
      owned.push_back(
          PolicyRegistry::Global().CreateFromString(spec).ValueOrDie());
      policies.push_back(owned.back().get());
    }
  }
};

/// Checkpoint bytes with the wall-clock policy-step timers zeroed.
std::string CheckpointBytes(const SimStream& stream) {
  SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();
  for (SimCheckpoint::Lane& lane : checkpoint.lanes) {
    lane.overhead_seconds = 0.0;
  }
  return SerializeCheckpoint(checkpoint);
}

void ExpectSameOutcome(const SimulationOutcome& a, const SimulationOutcome& b) {
  ASSERT_EQ(a.accounts.size(), b.accounts.size());
  for (size_t f = 0; f < a.accounts.size(); ++f) {
    EXPECT_EQ(a.accounts[f].invocations, b.accounts[f].invocations) << f;
    EXPECT_EQ(a.accounts[f].invoked_minutes, b.accounts[f].invoked_minutes)
        << f;
    EXPECT_EQ(a.accounts[f].cold_starts, b.accounts[f].cold_starts) << f;
    EXPECT_EQ(a.accounts[f].loaded_minutes, b.accounts[f].loaded_minutes)
        << f;
    EXPECT_EQ(a.accounts[f].wasted_minutes, b.accounts[f].wasted_minutes)
        << f;
  }
  EXPECT_EQ(a.memory_series, b.memory_series);
  ASSERT_EQ(a.latency == nullptr, b.latency == nullptr);
  if (a.latency != nullptr) {
    EXPECT_TRUE(*a.latency == *b.latency);
  }
}

void ExpectSameOutcomes(const std::vector<SimulationOutcome>& a,
                        const std::vector<SimulationOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    ExpectSameOutcome(a[k], b[k]);
  }
}

TEST(SimStreamTest, FailedRestoreLeavesTheStreamExactlyAsItWas) {
  const Trace trace = GeneratedFleet();
  const std::vector<std::string> specs = {"spes",
                                          "fixed_keepalive{minutes=10}"};
  // A checkpoint from later in the window whose lane 1 carries a corrupt
  // (truncated) policy or latency blob: lane 0 installs fine, lane 1
  // fails, so lane 0 must be rolled back.
  Lanes origin_lanes(specs);
  SimStream origin =
      SimStream::Create(trace, origin_lanes.policies, LatencyOptions(1))
          .ValueOrDie();
  ASSERT_TRUE(origin.RunUntil(2100).ok());
  const SimCheckpoint good = origin.Checkpoint().ValueOrDie();
  for (const bool corrupt_policy : {true, false}) {
    SCOPED_TRACE(corrupt_policy ? "policy blob" : "latency blob");
    SimCheckpoint bad = good;
    std::string& blob = corrupt_policy ? bad.lanes[1].policy_state
                                       : bad.lanes[1].latency_state;
    blob.resize(blob.size() / 2);

    Lanes lanes(specs);
    Lanes reference_lanes(specs);
    SimStream stream =
        SimStream::Create(trace, lanes.policies, LatencyOptions(2))
            .ValueOrDie();
    SimStream uninterrupted =
        SimStream::Create(trace, reference_lanes.policies, LatencyOptions(2))
            .ValueOrDie();
    ASSERT_TRUE(stream.RunUntil(1800).ok());
    ASSERT_TRUE(uninterrupted.RunUntil(1800).ok());
    const Status status = stream.Restore(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(stream.cursor(), 1800);
    EXPECT_EQ(CheckpointBytes(stream), CheckpointBytes(uninterrupted));
    ExpectSameOutcomes(uninterrupted.FinishAll().ValueOrDie(),
                       stream.FinishAll().ValueOrDie());
  }
}

// ---------------------------------------------------------------------
// Parallel lockstep lanes: every step_threads value gives the same run
// ---------------------------------------------------------------------

constexpr int kLaneThreads[] = {1, 2, 4, 8};

/// Everything one run exposes: its outcomes, each observer call as
/// (minute, lane, cold starts, loaded) and its run log.
struct LaneRun {
  std::vector<SimulationOutcome> outcomes;
  std::vector<std::vector<uint64_t>> calls;
  std::string run_log;
};

LaneRun RunLanes(const Trace& trace, const std::vector<std::string>& specs,
                 int step_threads) {
  // A frozen clock makes every wall-clock field of the log read zero.
  StringLogSink sink;
  RunRecorder::Options recorder_options;
  recorder_options.heartbeat_minute_stride = 30;
  RunRecorder recorder(&sink, recorder_options, [] { return 0.0; });
  LaneRun run;
  CallbackObserver observer([&run](const MinuteView& view) {
    run.calls.push_back({static_cast<uint64_t>(view.minute), view.lane,
                         view.totals.cold_starts, view.mem->Count()});
    return true;
  });
  Lanes lanes(specs);
  SimOptions options = LatencyOptions(step_threads);
  options.recorder = &recorder;
  SimStream stream =
      SimStream::Create(trace, lanes.policies, options).ValueOrDie();
  stream.AddObserver(&observer);
  run.outcomes = stream.FinishAll().ValueOrDie();
  recorder.Finish();
  run.run_log = sink.contents();
  return run;
}

TEST(SimStreamParallelLanesTest, EveryThreadCountGivesTheSameRun) {
  const Trace trace = GeneratedFleet();
  const std::vector<std::string> specs = {
      "spes", "fixed_keepalive{minutes=10}", "faascache", "hybrid_histogram",
      "defuse"};
  const LaneRun serial = RunLanes(trace, specs, 1);
  ASSERT_EQ(serial.outcomes.size(), specs.size());
  EXPECT_EQ(serial.calls.size(), specs.size() * 1440u);
  EXPECT_GT(serial.outcomes[0].latency->timeouts, 0u);
  for (int threads : kLaneThreads) {
    SCOPED_TRACE("step_threads " + std::to_string(threads));
    const LaneRun run = RunLanes(trace, specs, threads);
    ExpectSameOutcomes(serial.outcomes, run.outcomes);
    EXPECT_EQ(serial.calls, run.calls);
    EXPECT_EQ(serial.run_log, run.run_log);
  }
}

TEST(SimStreamParallelLanesTest, CheckpointsDoNotDependOnTheThreadCount) {
  // Checkpoints need checkpointable policies: SPES in two shapes, the
  // fixed keep-alive and the oracle.
  const Trace trace = GeneratedFleet();
  const std::vector<std::string> specs = {"spes", "spes{theta_prewarm=5}",
                                          "fixed_keepalive{minutes=10}",
                                          "oracle"};
  const int sampled[] = {1441, 1700, 2250, 2879};
  std::vector<std::string> serial;
  for (int threads : kLaneThreads) {
    SCOPED_TRACE("step_threads " + std::to_string(threads));
    Lanes lanes(specs);
    SimStream stream =
        SimStream::Create(trace, lanes.policies, LatencyOptions(threads))
            .ValueOrDie();
    for (size_t i = 0; i < std::size(sampled); ++i) {
      ASSERT_TRUE(stream.RunUntil(sampled[i]).ok());
      const std::string bytes = CheckpointBytes(stream);
      if (threads == 1) {
        serial.push_back(bytes);
      } else {
        EXPECT_EQ(bytes, serial[i]) << "minute " << sampled[i];
      }
    }
  }
}

/// Records the thread each OnMinute() call ran on.
class ThreadRecordingPolicy : public FixedKeepAlivePolicy {
 public:
  ThreadRecordingPolicy() : FixedKeepAlivePolicy(2) {}
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override {
    threads_.push_back(std::this_thread::get_id());
    FixedKeepAlivePolicy::OnMinute(t, arrivals, mem);
  }
  const std::vector<std::thread::id>& threads() const { return threads_; }

 private:
  std::vector<std::thread::id> threads_;
};

TEST(SimStreamParallelLanesTest, LanesFanOutAndASingleLaneStaysOnTheCaller) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0}, {0, 1, 0, 1, 0, 1}});
  const std::thread::id caller = std::this_thread::get_id();
  {
    // One lane never starts a pool, whatever step_threads asks for.
    ThreadRecordingPolicy only;
    SimOptions options = Window(0);
    options.step_threads = 8;
    SimStream stream = SimStream::Create(trace, &only, options).ValueOrDie();
    ASSERT_TRUE(stream.Finish().ok());
    ASSERT_EQ(only.threads().size(), 6u);
    for (const std::thread::id id : only.threads()) EXPECT_EQ(id, caller);
  }
  {
    // Lane k runs on participant k % threads; participant 0 is the caller.
    ThreadRecordingPolicy a, b;
    SimOptions options = Window(0);
    options.step_threads = 2;
    SimStream stream =
        SimStream::Create(trace, {&a, &b}, options).ValueOrDie();
    ASSERT_TRUE(stream.FinishAll().ok());
    ASSERT_EQ(b.threads().size(), 6u);
    for (const std::thread::id id : a.threads()) EXPECT_EQ(id, caller);
    for (const std::thread::id id : b.threads()) {
      EXPECT_NE(id, caller);
      EXPECT_EQ(id, b.threads()[0]);  // one persistent worker
    }
  }
}

}  // namespace
}  // namespace spes
