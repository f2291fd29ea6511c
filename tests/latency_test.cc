// Latency subsystem unit tests: the model registry and its built-ins,
// the `<model> @ queue{...}` spec grammar, ConcurrencyQueue admission
// semantics (hand-computable with the constant model), LatencyLane
// determinism and save/restore, and the SimStream / ClusterSession
// integration including checkpoint round-trips. The seed-99 latency
// golden pins live in golden_metrics_test.cc.

#include "latency/latency.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "core/policy_registry.h"
#include "latency/latency_model.h"
#include "latency/queue.h"
#include "policies/fixed_keepalive.h"
#include "sim/engine.h"
#include "sim/stream.h"
#include "trace/trace.h"

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

SimOptions Window(int train, const std::string& latency_block = "") {
  SimOptions options;
  options.train_minutes = train;
  if (!latency_block.empty()) {
    options.latency = ParseLatencySpec(latency_block).ValueOrDie();
  }
  return options;
}

// ---------------------------------------------------------------------
// LatencyModelRegistry + built-in models
// ---------------------------------------------------------------------

TEST(LatencyModelRegistryTest, ConstantDefaultsAndOverrides) {
  auto& registry = LatencyModelRegistry::Global();
  const auto defaults = registry.CreateFromString("constant").ValueOrDie();
  EXPECT_EQ(defaults->name(), "constant");
  EXPECT_EQ(defaults->SampleMs(true, 7), 1000.0);
  EXPECT_EQ(defaults->SampleMs(false, 7), 10.0);

  const auto tuned =
      registry.CreateFromString("constant{cold_ms=500,warm_ms=5}")
          .ValueOrDie();
  EXPECT_EQ(tuned->SampleMs(true, 99), 500.0);
  EXPECT_EQ(tuned->SampleMs(false, 99), 5.0);
}

TEST(LatencyModelRegistryTest, LognormalIsAPureFunctionOfTheKey) {
  const auto model =
      LatencyModelRegistry::Global().CreateFromString("lognormal")
          .ValueOrDie();
  const double warm = model->SampleMs(false, 42);
  EXPECT_EQ(model->SampleMs(false, 42), warm);  // no carried state
  EXPECT_NE(model->SampleMs(false, 43), warm);
  // Cold and warm are independent streams even at the same key.
  EXPECT_NE(model->SampleMs(true, 42), warm);
  EXPECT_GT(warm, 0.0);
}

TEST(LatencyModelRegistryTest, LognormalSigmaZeroDegeneratesToMedians) {
  const auto model = LatencyModelRegistry::Global()
                         .CreateFromString(
                             "lognormal{cold_median_ms=900,cold_sigma=0,"
                             "warm_median_ms=9,warm_sigma=0}")
                         .ValueOrDie();
  EXPECT_EQ(model->SampleMs(true, 1), 900.0);
  EXPECT_EQ(model->SampleMs(false, 2), 9.0);
}

TEST(LatencyModelRegistryTest, LognormalMatchesTheRngNormalDrawBitwise) {
  // SampleMs draws only the cosine half of the Box-Muller pair; it must
  // equal median * exp(sigma * Rng(key').Normal(0, 1)) bit for bit, where
  // key' is the key, salted for cold draws.
  constexpr uint64_t kColdDrawSalt = 0xc01d5742a5a1f00dULL;
  struct Shape {
    double cold_median, cold_sigma, warm_median, warm_sigma;
  };
  const Shape shapes[] = {
      {800.0, 0.5, 8.0, 0.3},
      {1234.5, 2.0, 40.0, 0.4},
      {3.0, 7.9, 0.25, 0.01},
  };
  std::vector<std::unique_ptr<LatencyModel>> models;
  for (const Shape& shape : shapes) {
    LatencyModelSpec spec{"lognormal", {}};
    spec.params["cold_median_ms"] = ParamValue(shape.cold_median);
    spec.params["cold_sigma"] = ParamValue(shape.cold_sigma);
    spec.params["warm_median_ms"] = ParamValue(shape.warm_median);
    spec.params["warm_sigma"] = ParamValue(shape.warm_sigma);
    models.push_back(LatencyModelRegistry::Global().Create(spec).ValueOrDie());
  }
  const auto reference = [](uint64_t seed, double median, double sigma) {
    Rng rng(seed);
    return median * std::exp(sigma * rng.Normal(0.0, 1.0));
  };
  uint64_t state = 7;
  uint64_t mismatches = 0;
  constexpr uint64_t kKeys = 1'000'000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    // Small keys first, then hashed ones like the engine's request keys.
    const uint64_t key = i < 1000 ? i : SplitMix64(&state);
    const size_t m = static_cast<size_t>(i % 3);
    const Shape& shape = shapes[m];
    const double cold = models[m]->SampleMs(true, key);
    const double warm = models[m]->SampleMs(false, key);
    const double want_cold =
        reference(key ^ kColdDrawSalt, shape.cold_median, shape.cold_sigma);
    const double want_warm =
        reference(key, shape.warm_median, shape.warm_sigma);
    if (std::bit_cast<uint64_t>(cold) != std::bit_cast<uint64_t>(want_cold)) {
      ++mismatches;
    }
    if (std::bit_cast<uint64_t>(warm) != std::bit_cast<uint64_t>(want_warm)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(LatencyModelRegistryTest, UnknownModelListsAlternatives) {
  const auto result =
      LatencyModelRegistry::Global().CreateFromString("pareto");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("constant"), std::string::npos);
  EXPECT_NE(result.status().message().find("lognormal"), std::string::npos);
}

TEST(LatencyModelRegistryTest, BadParametersNameTheField) {
  auto& registry = LatencyModelRegistry::Global();
  const auto unknown = registry.CreateFromString("constant{bogus=1}");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("bogus"), std::string::npos);

  const auto negative = registry.CreateFromString("constant{cold_ms=-1}");
  EXPECT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("cold_ms"), std::string::npos);
}

TEST(LatencyModelRegistryTest, IntrospectionSurfacesTheBuiltins) {
  auto& registry = LatencyModelRegistry::Global();
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"constant", "lognormal"}));
  EXPECT_TRUE(registry.Contains("lognormal"));
  EXPECT_FALSE(registry.Contains("pareto"));
  const auto* entry = registry.Find("lognormal");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->params.size(), 4u);
  EXPECT_EQ(registry.Find("pareto"), nullptr);
}

// ---------------------------------------------------------------------
// LatencySpec grammar
// ---------------------------------------------------------------------

TEST(LatencySpecTest, ParseBareModelLeavesQueueOff) {
  const LatencySpec spec = ParseLatencySpec("constant").ValueOrDie();
  EXPECT_EQ(spec.model.name, "constant");
  EXPECT_EQ(spec.concurrency, 0);
  EXPECT_EQ(spec.queue_capacity, 0);
  EXPECT_EQ(spec.timeout_ms, 0.0);
  EXPECT_EQ(spec.seed, 0u);
  EXPECT_EQ(FormatLatencySpec(spec), "constant");
  EXPECT_TRUE(ValidateLatencySpec(spec).ok());
}

TEST(LatencySpecTest, ParseFullBlockRoundTrips) {
  const std::string text =
      "lognormal{cold_median_ms=900} @ "
      "queue{capacity=256,concurrency=16,seed=42,timeout_ms=2000}";
  const LatencySpec spec = ParseLatencySpec(text).ValueOrDie();
  EXPECT_EQ(spec.model.name, "lognormal");
  EXPECT_EQ(spec.concurrency, 16);
  EXPECT_EQ(spec.queue_capacity, 256);
  EXPECT_EQ(spec.timeout_ms, 2000.0);
  EXPECT_EQ(spec.seed, 42u);
  // Canonical form is a fixed point of format -> reparse.
  const std::string canonical = FormatLatencySpec(spec);
  const LatencySpec reparsed = ParseLatencySpec(canonical).ValueOrDie();
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(FormatLatencySpec(reparsed), canonical);
  EXPECT_TRUE(ValidateLatencySpec(spec).ok());
}

TEST(LatencySpecTest, RejectsNonQueueBlockAfterAt) {
  const auto result = ParseLatencySpec("constant @ pool{concurrency=4}");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("queue"), std::string::npos);
}

TEST(LatencySpecTest, RejectsUnknownQueueParameter) {
  const auto result = ParseLatencySpec("constant @ queue{burst=9}");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("burst"), std::string::npos);
}

TEST(LatencySpecTest, ValidateRejectsQueueKnobsWithoutConcurrency) {
  const LatencySpec capacity_only =
      ParseLatencySpec("constant @ queue{capacity=10}").ValueOrDie();
  EXPECT_EQ(ValidateLatencySpec(capacity_only).code(),
            StatusCode::kInvalidArgument);
  const LatencySpec timeout_only =
      ParseLatencySpec("constant @ queue{timeout_ms=100}").ValueOrDie();
  EXPECT_EQ(ValidateLatencySpec(timeout_only).code(),
            StatusCode::kInvalidArgument);
}

TEST(LatencySpecTest, ValidateRejectsUnknownModel) {
  LatencySpec spec;
  spec.model.name = "pareto";
  EXPECT_EQ(ValidateLatencySpec(spec).code(), StatusCode::kNotFound);
}

TEST(LatencySpecTest, QueueSchemaMatchesTheParser) {
  std::vector<std::string> names;
  for (const ParamSpec& param : LatencyQueueParamSchema()) {
    names.push_back(param.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"concurrency", "capacity",
                                             "timeout_ms", "seed"}));
}

// ---------------------------------------------------------------------
// ConcurrencyQueue admission semantics
// ---------------------------------------------------------------------

TEST(ConcurrencyQueueTest, UnlimitedSlotsAreAPassthrough) {
  ConcurrencyQueue queue;  // zero config: no limits
  for (int i = 0; i < 5; ++i) {
    const QueueOutcome out = queue.Offer(0.0, 100.0);
    EXPECT_EQ(out.admission, Admission::kServed);
    EXPECT_EQ(out.end_to_end_ms, 100.0);
  }
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ConcurrencyQueueTest, SingleServerWaitAccumulates) {
  ConcurrencyQueue queue(QueueConfig{1, 0, 0.0});
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 100.0);
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 200.0);  // waits 100
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 300.0);  // waits 200
  EXPECT_EQ(queue.depth(), 2u);  // two waiters, leaving at 100 and 200
  EXPECT_EQ(queue.DrainUntil(100.0), 1u);
  EXPECT_EQ(queue.DrainUntil(250.0), 0u);
}

TEST(ConcurrencyQueueTest, IdleServersAbsorbLateArrivals) {
  ConcurrencyQueue queue(QueueConfig{1, 0, 0.0});
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 100.0);
  // Arrives after the server freed up: no wait.
  const QueueOutcome out = queue.Offer(150.0, 50.0);
  EXPECT_EQ(out.admission, Admission::kServed);
  EXPECT_EQ(out.end_to_end_ms, 50.0);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ConcurrencyQueueTest, WaitPastTimeoutAbandons) {
  ConcurrencyQueue queue(QueueConfig{1, 0, 150.0});
  EXPECT_EQ(queue.Offer(0.0, 100.0).admission, Admission::kServed);
  // Wait of 100 is tolerated...
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 200.0);
  // ...a wait of 200 is not: the request abandons at t=150 without ever
  // occupying a server.
  const QueueOutcome out = queue.Offer(0.0, 100.0);
  EXPECT_EQ(out.admission, Admission::kTimedOut);
  EXPECT_EQ(queue.depth(), 2u);  // the waiter (until 100) + the abandoner
  EXPECT_EQ(queue.DrainUntil(150.0), 0u);
  // The abandoner never held a slot: a fourth request starts at 200.
  EXPECT_EQ(queue.Offer(160.0, 10.0).end_to_end_ms, 50.0);
}

TEST(ConcurrencyQueueTest, FullQueueSheds) {
  ConcurrencyQueue queue(QueueConfig{1, 1, 0.0});
  EXPECT_EQ(queue.Offer(0.0, 1000.0).admission, Admission::kServed);
  EXPECT_EQ(queue.Offer(0.0, 10.0).admission, Admission::kServed);
  EXPECT_EQ(queue.depth(), 1u);  // at capacity
  EXPECT_EQ(queue.Offer(0.0, 10.0).admission, Admission::kShed);
  // Once the waiter starts (t=1000), admission resumes.
  EXPECT_EQ(queue.Offer(1000.0, 10.0).admission, Admission::kServed);
}

TEST(ConcurrencyQueueTest, SerializeRoundTripsMidBurst) {
  ConcurrencyQueue queue(QueueConfig{2, 8, 500.0});
  for (int i = 0; i < 6; ++i) queue.Offer(static_cast<double>(i), 300.0);
  BinaryWriter writer;
  queue.SerializeTo(&writer);
  const std::string bytes = writer.Take();

  BinaryReader reader(bytes);
  ConcurrencyQueue restored = ConcurrencyQueue::ParseFrom(&reader).ValueOrDie();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(restored == queue);
  // The restored queue behaves identically, not just compares equal.
  const QueueOutcome a = queue.Offer(6.0, 300.0);
  const QueueOutcome b = restored.Offer(6.0, 300.0);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.end_to_end_ms, b.end_to_end_ms);
}

TEST(ConcurrencyQueueTest, ParseRejectsTruncatedAndCorruptBytes) {
  ConcurrencyQueue queue(QueueConfig{2, 4, 100.0});
  queue.Offer(0.0, 50.0);
  queue.Offer(0.0, 50.0);
  queue.Offer(0.0, 50.0);
  BinaryWriter writer;
  queue.SerializeTo(&writer);
  const std::string bytes = writer.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    BinaryReader reader(prefix);
    const auto result = ConcurrencyQueue::ParseFrom(&reader);
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(result.status().message().empty());
  }
  // More busy servers than slots.
  ConcurrencyQueue busy(QueueConfig{3, 0, 0.0});
  busy.Offer(0.0, 10.0);
  busy.Offer(0.0, 10.0);
  BinaryWriter bad_writer;
  busy.SerializeTo(&bad_writer);
  std::string bad = bad_writer.Take();
  bad[0] = 1;  // concurrency 3 -> 1 (varint, single byte)
  BinaryReader reader(bad);
  const auto result = ConcurrencyQueue::ParseFrom(&reader);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("busy servers"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// LatencyLane
// ---------------------------------------------------------------------

LatencySpec ConstantLaneSpec() {
  return ParseLatencySpec("constant").ValueOrDie();
}

std::shared_ptr<const std::vector<uint64_t>> TwoHashes() {
  return std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{0x1111, 0x2222});
}

TEST(LatencyLaneTest, ColdChargesOnlyTheArrivalsFirstRequest) {
  auto lane = CreateLatencyLane(ConstantLaneSpec(), TwoHashes()).ValueOrDie();
  // One cold arrival with 3 concurrent requests: SPES V-A says they share
  // the freshly started instance, so exactly one pays the cold start.
  lane->OnMinute(5, {{0, 3}}, {1});
  const LatencyOutcome outcome = lane->TakeOutcome();
  EXPECT_EQ(outcome.served, 3u);
  EXPECT_EQ(outcome.cold_served, 1u);
  EXPECT_EQ(outcome.timeouts, 0u);
  EXPECT_EQ(outcome.shed, 0u);
  // constant: one 1000ms draw + two 10ms draws, exact in the histogram.
  EXPECT_EQ(outcome.max_ms, 1000.0);
  EXPECT_EQ(outcome.mean_ms, 340.0);
  EXPECT_EQ(outcome.queue_depth_series, (std::vector<uint32_t>{0}));
  EXPECT_EQ(outcome.max_queue_depth, 0u);
}

TEST(LatencyLaneTest, WarmArrivalNeverSamplesCold) {
  auto lane = CreateLatencyLane(ConstantLaneSpec(), TwoHashes()).ValueOrDie();
  lane->OnMinute(0, {{0, 2}, {1, 1}}, {0, 0});
  const LatencyOutcome outcome = lane->TakeOutcome();
  EXPECT_EQ(outcome.served, 3u);
  EXPECT_EQ(outcome.cold_served, 0u);
  EXPECT_EQ(outcome.max_ms, 10.0);
}

TEST(LatencyLaneTest, IdenticalInputsGiveIdenticalOutcomes) {
  const LatencySpec spec =
      ParseLatencySpec(
          "lognormal @ queue{concurrency=2,capacity=8,timeout_ms=500,seed=7}")
          .ValueOrDie();
  auto a = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  auto b = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  for (int minute = 0; minute < 4; ++minute) {
    const std::vector<Invocation> arrivals = {{0, 40}, {1, 25}};
    const std::vector<uint8_t> cold = {static_cast<uint8_t>(minute == 0), 0};
    a->OnMinute(minute, arrivals, cold);
    b->OnMinute(minute, arrivals, cold);
    EXPECT_EQ(a->live(), b->live());
  }
  EXPECT_EQ(a->TakeOutcome(), b->TakeOutcome());
}

TEST(LatencyLaneTest, LiveTotalsTrackTheOutcome) {
  // 100 requests spread over one minute arrive every 600ms; at 2000ms
  // per service the single server falls behind and the 2-slot queue
  // starts shedding.
  const LatencySpec spec =
      ParseLatencySpec(
          "constant{cold_ms=2000,warm_ms=2000} @ "
          "queue{concurrency=1,capacity=2}")
          .ValueOrDie();
  auto lane = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  lane->OnMinute(0, {{0, 100}}, {1});
  const LatencyLiveTotals live = lane->live();
  const LatencyOutcome outcome = lane->TakeOutcome();
  EXPECT_EQ(live.served, outcome.served);
  EXPECT_EQ(live.timeouts, outcome.timeouts);
  EXPECT_EQ(live.shed, outcome.shed);
  EXPECT_GT(outcome.shed, 0u);  // 100 requests, 1 slot, 2 queue slots
  EXPECT_EQ(outcome.offered(), 100u);
}

TEST(LatencyLaneTest, SaveRestoreResumesExactly) {
  const LatencySpec spec =
      ParseLatencySpec(
          "lognormal @ queue{concurrency=2,capacity=8,timeout_ms=500,seed=7}")
          .ValueOrDie();
  auto original = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  const std::vector<Invocation> arrivals = {{0, 40}, {1, 25}};
  original->OnMinute(0, arrivals, {1, 1});
  original->OnMinute(1, arrivals, {0, 0});
  const std::string blob = original->SaveState();

  auto restored = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  ASSERT_TRUE(restored->RestoreState(blob, 2).ok());
  original->OnMinute(2, arrivals, {0, 1});
  restored->OnMinute(2, arrivals, {0, 1});
  EXPECT_EQ(original->TakeOutcome(), restored->TakeOutcome());
}

TEST(LatencyLaneTest, RestoreValidatesTheBlob) {
  const LatencySpec spec = ConstantLaneSpec();
  auto lane = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  lane->OnMinute(0, {{0, 2}}, {1});
  const std::string blob = lane->SaveState();

  auto target = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  // Minute count mismatch: the blob covers 1 minute, not 5.
  const Status wrong_minutes = target->RestoreState(blob, 5);
  EXPECT_EQ(wrong_minutes.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_minutes.message().find("minutes"), std::string::npos);
  // Queue config mismatch.
  const LatencySpec other =
      ParseLatencySpec("constant @ queue{concurrency=4}").ValueOrDie();
  auto other_lane = CreateLatencyLane(other, TwoHashes()).ValueOrDie();
  EXPECT_EQ(other_lane->RestoreState(blob, 1).code(),
            StatusCode::kInvalidArgument);
  // Truncations never parse, and a rejected blob leaves the lane as it
  // was (stepped once, so its state differs from the blob's).
  target->OnMinute(0, {{1, 5}}, {0});
  const std::string before = target->SaveState();
  ASSERT_NE(before, blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(target->RestoreState(blob.substr(0, len), 1).ok());
    EXPECT_EQ(target->SaveState(), before) << "prefix " << len;
  }
}

// ---------------------------------------------------------------------
// SimStream integration
// ---------------------------------------------------------------------

TEST(LatencyStreamTest, DisabledRunsCarryNoLatencyOutcome) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.latency, nullptr);
}

TEST(LatencyStreamTest, EnabledRunsAccountEveryArrival) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}, {0, 1, 0, 1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1, "constant")).ValueOrDie();
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  ASSERT_NE(outcome.latency, nullptr);
  // Simulated window is minutes 1..5: 5 arrivals on f0, 3 on f1.
  EXPECT_EQ(outcome.latency->offered(), 8u);
  EXPECT_EQ(outcome.latency->served, 8u);
  EXPECT_EQ(outcome.latency->timeouts, 0u);
  EXPECT_EQ(outcome.latency->shed, 0u);
  EXPECT_EQ(outcome.latency->histogram.TotalCount(), 8u);
  EXPECT_EQ(outcome.latency->queue_depth_series.size(), 5u);
  EXPECT_EQ(outcome.metrics.total_invocations, 8u);
  // Cold-served mirrors the engine's cold-start accounting: each cold
  // arrival-minute pays exactly one cold draw.
  EXPECT_EQ(outcome.latency->cold_served, outcome.metrics.total_cold_starts);
}

TEST(LatencyStreamTest, LatencyPathDoesNotPerturbAccounting) {
  Trace trace = MakeTrace({{2, 0, 1, 3, 0, 1, 0, 2}, {1, 1, 0, 0, 2, 0, 1, 0}});
  FixedKeepAlivePolicy plain_policy(3);
  FixedKeepAlivePolicy latency_policy(3);
  SimStream plain =
      SimStream::Create(trace, &plain_policy, Window(2)).ValueOrDie();
  SimStream with_latency =
      SimStream::Create(trace, &latency_policy,
                        Window(2, "lognormal @ queue{concurrency=1,"
                                  "timeout_ms=50,seed=3}"))
          .ValueOrDie();
  const SimulationOutcome a = plain.Finish().ValueOrDie();
  const SimulationOutcome b = with_latency.Finish().ValueOrDie();
  EXPECT_EQ(a.metrics.total_invocations, b.metrics.total_invocations);
  EXPECT_EQ(a.metrics.total_cold_starts, b.metrics.total_cold_starts);
  EXPECT_EQ(a.memory_series, b.memory_series);
  EXPECT_EQ(a.accounts.size(), b.accounts.size());
  for (size_t f = 0; f < a.accounts.size(); ++f) {
    EXPECT_EQ(a.accounts[f].invocations, b.accounts[f].invocations) << f;
    EXPECT_EQ(a.accounts[f].cold_starts, b.accounts[f].cold_starts) << f;
  }
}

TEST(LatencyStreamTest, CreateRejectsABadLatencyBlock) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimOptions options = Window(0);
  options.latency = LatencySpec{};
  options.latency->model.name = "pareto";
  const auto stream = SimStream::Create(trace, &policy, options);
  EXPECT_FALSE(stream.ok());
  EXPECT_NE(stream.status().message().find("pareto"), std::string::npos);
}

TEST(LatencyStreamTest, LockstepLanesShareTheDecodeAndSampleAlike) {
  Trace trace = MakeTrace({{1, 2, 0, 3, 1, 0}, {0, 1, 1, 0, 2, 1}});
  FixedKeepAlivePolicy a(2), b(2);
  SimStream stream =
      SimStream::Create(trace, {&a, &b}, Window(1, "constant")).ValueOrDie();
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_NE(outcomes[0].latency, nullptr);
  ASSERT_NE(outcomes[1].latency, nullptr);
  // Identical policies see identical cold flags, so the whole latency
  // outcome matches lane for lane.
  EXPECT_EQ(*outcomes[0].latency, *outcomes[1].latency);
}

TEST(LatencyStreamTest, CheckpointRoundTripsThroughBytes) {
  Trace trace = MakeTrace({{2, 1, 0, 3, 1, 0, 2, 1, 0, 4},
                           {0, 1, 2, 0, 1, 2, 0, 1, 2, 0}});
  const std::string block =
      "lognormal @ queue{concurrency=1,capacity=4,timeout_ms=200,seed=5}";
  FixedKeepAlivePolicy original_policy(2);
  SimStream original =
      SimStream::Create(trace, &original_policy, Window(1, block))
          .ValueOrDie();
  ASSERT_TRUE(original.RunUntil(5).ok());
  const SimCheckpoint checkpoint = original.Checkpoint().ValueOrDie();
  ASSERT_EQ(checkpoint.lanes.size(), 1u);
  EXPECT_FALSE(checkpoint.lanes[0].latency_state.empty());
  const std::string bytes = SerializeCheckpoint(checkpoint);
  const SimCheckpoint parsed = ParseCheckpoint(bytes).ValueOrDie();

  FixedKeepAlivePolicy resumed_policy(2);
  SimStream resumed =
      SimStream::Create(trace, &resumed_policy, Window(1, block))
          .ValueOrDie();
  ASSERT_TRUE(resumed.Restore(parsed).ok());
  const SimulationOutcome from_start = original.Finish().ValueOrDie();
  const SimulationOutcome from_restore = resumed.Finish().ValueOrDie();
  ASSERT_NE(from_start.latency, nullptr);
  ASSERT_NE(from_restore.latency, nullptr);
  EXPECT_EQ(*from_start.latency, *from_restore.latency);
  EXPECT_EQ(from_start.metrics.total_cold_starts, from_restore.metrics.total_cold_starts);
  EXPECT_EQ(from_start.memory_series, from_restore.memory_series);
}

TEST(LatencyStreamTest, DisabledCheckpointsStayLatencyFree) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  ASSERT_TRUE(stream.RunUntil(3).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();
  ASSERT_EQ(checkpoint.lanes.size(), 1u);
  EXPECT_TRUE(checkpoint.lanes[0].latency_state.empty());
  // And the byte form still parses (version-1 layout).
  const SimCheckpoint parsed =
      ParseCheckpoint(SerializeCheckpoint(checkpoint)).ValueOrDie();
  EXPECT_TRUE(parsed.lanes[0].latency_state.empty());
}

TEST(LatencyStreamTest, RestoreRejectsALatencyMismatch) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}});
  FixedKeepAlivePolicy with_policy(2);
  SimStream with_latency =
      SimStream::Create(trace, &with_policy, Window(1, "constant"))
          .ValueOrDie();
  ASSERT_TRUE(with_latency.RunUntil(3).ok());
  const SimCheckpoint checkpoint = with_latency.Checkpoint().ValueOrDie();

  FixedKeepAlivePolicy without_policy(2);
  SimStream without_latency =
      SimStream::Create(trace, &without_policy, Window(1)).ValueOrDie();
  const Status mismatch = without_latency.Restore(checkpoint);
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// ClusterSession integration
// ---------------------------------------------------------------------

Trace MakeFleet(int functions, int minutes) {
  std::vector<std::vector<uint32_t>> rows;
  for (int f = 0; f < functions; ++f) {
    std::vector<uint32_t> row;
    row.reserve(static_cast<size_t>(minutes));
    for (int t = 0; t < minutes; ++t) {
      row.push_back(static_cast<uint32_t>((t + f) % 3 == 0 ? 2 : 1));
    }
    rows.push_back(std::move(row));
  }
  return MakeTrace(std::move(rows));
}

TEST(LatencyClusterTest, PerNodeOutcomesMergeExactlyIntoTheFleet) {
  const Trace trace = MakeFleet(8, 40);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{2, 0, {"hash", {}}, {}},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          Window(2, "constant @ queue{concurrency=2,capacity=16,"
                    "timeout_ms=5000}"))
          .ValueOrDie();
  const ClusterOutcome outcome = session.Finish().ValueOrDie();
  ASSERT_NE(outcome.fleet.latency, nullptr);
  uint64_t served = 0, timeouts = 0, shed = 0;
  FixedBucketHistogram merged;
  for (const NodeOutcome& node : outcome.nodes) {
    ASSERT_NE(node.sim.latency, nullptr);
    served += node.sim.latency->served;
    timeouts += node.sim.latency->timeouts;
    shed += node.sim.latency->shed;
    merged.Merge(node.sim.latency->histogram);
  }
  EXPECT_EQ(outcome.fleet.latency->served, served);
  EXPECT_EQ(outcome.fleet.latency->timeouts, timeouts);
  EXPECT_EQ(outcome.fleet.latency->shed, shed);
  EXPECT_EQ(outcome.fleet.latency->histogram, merged);
  EXPECT_EQ(outcome.fleet.latency->offered(),
            outcome.fleet.metrics.total_invocations);
  // Fleet depth series sums the per-node series minute by minute.
  EXPECT_EQ(outcome.fleet.latency->queue_depth_series.size(), 38u);
}

TEST(LatencyClusterTest, SingleNodeClusterMatchesAPlainStream) {
  const Trace trace = MakeFleet(4, 30);
  const std::string block =
      "lognormal @ queue{concurrency=2,capacity=8,timeout_ms=300,seed=11}";
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          Window(2, block))
          .ValueOrDie();
  const ClusterOutcome cluster = session.Finish().ValueOrDie();

  FixedKeepAlivePolicy policy(10);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(2, block)).ValueOrDie();
  const SimulationOutcome plain = stream.Finish().ValueOrDie();
  ASSERT_NE(cluster.fleet.latency, nullptr);
  ASSERT_NE(plain.latency, nullptr);
  EXPECT_EQ(*cluster.fleet.latency, *plain.latency);
}

TEST(LatencyClusterTest, CheckpointRoundTripsThroughBytes) {
  const Trace trace = MakeFleet(8, 60);
  const ClusterSpec cluster{3, 0, {"hash", {}}, {}};
  const PolicySpec policy =
      ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  const SimOptions options =
      Window(2, "lognormal @ queue{concurrency=1,capacity=4,"
                "timeout_ms=200,seed=5}");
  ClusterSession original =
      ClusterSession::Create(trace, cluster, policy, options).ValueOrDie();
  ASSERT_TRUE(original.RunUntil(30).ok());
  const ClusterCheckpoint checkpoint = original.Checkpoint().ValueOrDie();
  ASSERT_EQ(checkpoint.nodes.size(), 3u);
  for (const auto& node : checkpoint.nodes) {
    EXPECT_FALSE(node.latency_state.empty());
  }
  const std::string bytes = SerializeClusterCheckpoint(checkpoint);
  const ClusterCheckpoint parsed =
      ParseClusterCheckpoint(bytes).ValueOrDie();

  ClusterSession resumed =
      ClusterSession::Create(trace, cluster, policy, options).ValueOrDie();
  ASSERT_TRUE(resumed.Restore(parsed).ok());
  const ClusterOutcome from_start = original.Finish().ValueOrDie();
  const ClusterOutcome from_restore = resumed.Finish().ValueOrDie();
  ASSERT_NE(from_start.fleet.latency, nullptr);
  ASSERT_NE(from_restore.fleet.latency, nullptr);
  EXPECT_EQ(*from_start.fleet.latency, *from_restore.fleet.latency);
  ASSERT_EQ(from_start.nodes.size(), from_restore.nodes.size());
  for (size_t i = 0; i < from_start.nodes.size(); ++i) {
    ASSERT_NE(from_start.nodes[i].sim.latency, nullptr);
    ASSERT_NE(from_restore.nodes[i].sim.latency, nullptr);
    EXPECT_EQ(*from_start.nodes[i].sim.latency,
              *from_restore.nodes[i].sim.latency)
        << "node " << i;
    EXPECT_EQ(from_start.nodes[i].sim.metrics.total_cold_starts,
              from_restore.nodes[i].sim.metrics.total_cold_starts);
  }
  EXPECT_EQ(from_start.reroutes, from_restore.reroutes);
}

TEST(LatencyClusterTest, CheckpointParseRejectsCorruptBytes) {
  const Trace trace = MakeFleet(4, 20);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{2, 0, {"hash", {}}, {}},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          Window(2, "constant"))
          .ValueOrDie();
  ASSERT_TRUE(session.RunUntil(10).ok());
  const std::string bytes =
      SerializeClusterCheckpoint(session.Checkpoint().ValueOrDie());
  EXPECT_FALSE(ParseClusterCheckpoint("").ok());
  EXPECT_FALSE(ParseClusterCheckpoint(bytes.substr(0, 4)).ok());
  EXPECT_FALSE(ParseClusterCheckpoint(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(ParseClusterCheckpoint(bytes + "x").ok());
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  const auto result = ParseClusterCheckpoint(bad_magic);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LatencyClusterTest, RestoreRejectsACheckpointFromAnotherShape) {
  const Trace trace = MakeFleet(4, 20);
  const PolicySpec policy =
      ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  ClusterSession two_nodes =
      ClusterSession::Create(trace, ClusterSpec{2, 0, {"hash", {}}, {}},
                             policy, Window(2, "constant"))
          .ValueOrDie();
  ASSERT_TRUE(two_nodes.RunUntil(10).ok());
  const ClusterCheckpoint checkpoint = two_nodes.Checkpoint().ValueOrDie();

  ClusterSession three_nodes =
      ClusterSession::Create(trace, ClusterSpec{3, 0, {"hash", {}}, {}},
                             policy, Window(2, "constant"))
          .ValueOrDie();
  EXPECT_EQ(three_nodes.Restore(checkpoint).code(),
            StatusCode::kInvalidArgument);

  ClusterSession no_latency =
      ClusterSession::Create(trace, ClusterSpec{2, 0, {"hash", {}}, {}},
                             policy, Window(2))
          .ValueOrDie();
  EXPECT_EQ(no_latency.Restore(checkpoint).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace spes
