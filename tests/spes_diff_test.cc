// Differential test for the event-driven SPES step: SpesPolicy must leave
// the MemSet bitwise-equal to the dense reference loop
// (tests/reference_spes_policy.h) after every minute, and emit identical
// SaveState() bytes, on generated fleets (dense, sparse, bursty) across
// the ablation configs, under outside evictions and skipped minutes, in a
// capped cluster with a node failure, and across cross-restores in both
// directions. SpesPolicy trained from a TrainingWindow's slots must also
// give the dense reference's SaveState() bytes over multi-day windows
// (where forgetting drops days) and when a trigger has no seen function.
// A property test pins the wake-up computation itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "core/policy_registry.h"
#include "core/spes_policy.h"
#include "sim/columnar.h"
#include "tests/reference_spes_policy.h"
#include "trace/generator.h"
#include "trace/trace_source.h"
#include "trace/training_window.h"
#include "trace/transform.h"

namespace spes {

/// Reaches into SpesPolicy's wake-up computation for the property test.
class SpesPolicyPeer {
 public:
  using State = SpesPolicy::FunctionState;
  static int64_t NextWake(const SpesPolicy& policy, const State& state,
                          int64_t from) {
    return policy.NextWake(state, from);
  }
  static bool Preload(const SpesPolicy& policy, State* state, int t) {
    return policy.Preload(state, t);
  }
  static constexpr int64_t kNever = SpesPolicy::kNever;
};

namespace {

constexpr int kTrainMinutes = kMinutesPerDay;

struct Fleet {
  std::string label;
  Trace trace;
};

Trace Generate(const GeneratorConfig& config) {
  return std::move(GenerateTrace(config).ValueOrDie().trace);
}

std::vector<Fleet> Fleets() {
  std::vector<Fleet> fleets;
  GeneratorConfig dense;
  dense.num_functions = 150;
  dense.days = 3;
  dense.seed = 11;
  dense.intensity_zipf_exponent = 1.1;
  fleets.push_back({"dense", Generate(dense)});

  GeneratorConfig sparse;
  sparse.num_functions = 300;
  sparse.days = 3;
  sparse.seed = 12;
  sparse.rare_fraction = 0.9;
  sparse.unseen_fraction = 0.1;
  fleets.push_back({"sparse", Generate(sparse)});

  GeneratorConfig base;
  base.num_functions = 200;
  base.days = 3;
  base.seed = 13;
  const auto chain = ParseTransformChain(
      "inject_burst{at=1000,width=20,amplitude=5,fraction=0.3,seed=1} | "
      "inject_burst{at=2000,width=45,amplitude=3,fraction=0.5,seed=2} | "
      "inject_burst{at=3500,width=10,amplitude=9,fraction=0.2,seed=3}");
  fleets.push_back(
      {"bursty",
       ApplyTransforms(Generate(base), chain.ValueOrDie()).ValueOrDie()});
  return fleets;
}

std::vector<std::pair<std::string, SpesConfig>> Configs() {
  std::vector<std::pair<std::string, SpesConfig>> configs;
  configs.emplace_back("spes", SpesConfig{});
  SpesConfig c;
  c.theta_prewarm = 0;
  configs.emplace_back("theta_prewarm=0", c);
  c = SpesConfig{};
  c.theta_prewarm = 5;
  configs.emplace_back("theta_prewarm=5", c);
  c = SpesConfig{};
  c.givenup_scaler = 3;
  configs.emplace_back("givenup_scaler=3", c);
  c = SpesConfig{};
  c.enable_correlated = false;
  configs.emplace_back("enable_correlated=false", c);
  c = SpesConfig{};
  c.enable_online_corr = false;
  configs.emplace_back("enable_online_corr=false", c);
  c = SpesConfig{};
  c.enable_forgetting = false;
  configs.emplace_back("enable_forgetting=false", c);
  c = SpesConfig{};
  c.enable_adjusting = false;
  configs.emplace_back("enable_adjusting=false", c);
  return configs;
}

/// A policy and the MemSet it steps, fed the way an engine feeds it: the
/// minute's arrivals are loaded before OnMinute().
struct Lane {
  Policy* policy;
  MemSet mem;

  void Step(int t, const std::vector<Invocation>& arrivals) {
    for (const Invocation& inv : arrivals) mem.Add(inv.function);
    policy->OnMinute(t, arrivals, &mem);
  }
};

/// Perturbations applied identically to both lanes.
struct Plan {
  /// Minutes on which neither policy is stepped (a dead node), when > 0:
  /// minutes t with t % skip_period < skip_len are skipped.
  int skip_period = 0;
  int skip_len = 0;
  /// Every `evict_period` minutes, evict about a quarter of the loaded
  /// functions from outside the policy (a capacity squeeze).
  int evict_period = 0;
  int save_every = 97;
};

bool Skipped(const Plan& plan, int t) {
  return plan.skip_period > 0 && t % plan.skip_period < plan.skip_len;
}

void EvictFromOutside(int t, MemSet* a, MemSet* b) {
  std::vector<size_t> victims;
  a->ForEachLoaded([&](size_t f) {
    if ((f * 2654435761u + static_cast<size_t>(t)) % 4 == 0) {
      victims.push_back(f);
    }
  });
  for (size_t f : victims) {
    a->Remove(f);
    b->Remove(f);
  }
}

/// Steps `a` and `b` over minutes [begin, end) and requires equal MemSet
/// words after every minute and equal SaveState() bytes at sampled
/// minutes. Returns false (after recording the failure) on a mismatch.
bool StepInLockstep(const Trace& trace, Lane* a, Lane* b, int begin, int end,
                    const Plan& plan, const std::string& context) {
  ArrivalDecoder decoder(trace);
  for (int t = begin; t < end; ++t) {
    if (Skipped(plan, t)) continue;
    const auto span = decoder.Decode(t);
    const std::vector<Invocation> arrivals(span.begin(), span.end());
    a->Step(t, arrivals);
    b->Step(t, arrivals);
    if (a->mem.words() != b->mem.words()) {
      ADD_FAILURE() << context << ": MemSet differs after minute " << t;
      return false;
    }
    if (plan.evict_period > 0 && t % plan.evict_period == 0) {
      EvictFromOutside(t, &a->mem, &b->mem);
    }
    if ((t - begin) % plan.save_every == 0 || t + 1 == end) {
      if (a->policy->SaveState().ValueOrDie() !=
          b->policy->SaveState().ValueOrDie()) {
        ADD_FAILURE() << context << ": SaveState differs after minute " << t;
        return false;
      }
    }
  }
  return true;
}

void ExpectMatchesReference(const Fleet& fleet, const SpesConfig& config,
                            const Plan& plan, const std::string& context) {
  ReferenceSpesPolicy reference(config);
  SpesPolicy policy(config);
  reference.Train(fleet.trace, kTrainMinutes);
  policy.Train(fleet.trace, kTrainMinutes);
  const size_t n = fleet.trace.num_functions();
  Lane ref_lane{&reference, MemSet(n)};
  Lane new_lane{&policy, MemSet(n)};
  // Before the first step the (untouched) trained state already matches.
  ASSERT_EQ(reference.SaveState().ValueOrDie(),
            policy.SaveState().ValueOrDie())
      << context;
  StepInLockstep(fleet.trace, &ref_lane, &new_lane, kTrainMinutes,
                 fleet.trace.num_minutes(), plan, context);
}

TEST(SpesDiffTest, MatchesDenseLoopAcrossFleetsAndConfigs) {
  for (const Fleet& fleet : Fleets()) {
    for (const auto& [label, config] : Configs()) {
      ExpectMatchesReference(fleet, config, Plan{},
                             fleet.label + "/" + label);
    }
  }
}

TEST(SpesDiffTest, MatchesUnderOutsideEvictionsAndSkippedMinutes) {
  for (const Fleet& fleet : Fleets()) {
    Plan evictions;
    evictions.evict_period = 3;
    ExpectMatchesReference(fleet, SpesConfig{}, evictions,
                           fleet.label + "/evictions");
    Plan skips;
    skips.skip_period = 211;
    skips.skip_len = 40;  // long gaps: windows and holds pass unvisited
    ExpectMatchesReference(fleet, SpesConfig{}, skips, fleet.label + "/skips");
    Plan both = skips;
    both.evict_period = 5;
    SpesConfig wide;
    wide.theta_prewarm = 5;
    ExpectMatchesReference(fleet, wide, both, fleet.label + "/both");
  }
}

/// Restores `blob` into a freshly trained policy of the other kind and
/// returns it.
template <typename PolicyT>
std::unique_ptr<Policy> RestoredInto(const Trace& trace,
                                     const std::string& blob) {
  auto policy = std::make_unique<PolicyT>();
  policy->Train(trace, kTrainMinutes);
  EXPECT_TRUE(policy->RestoreState(blob).ok());
  return policy;
}

TEST(SpesDiffTest, CrossRestoreAtRandomMinutesBothDirections) {
  Rng rng(2026);
  for (const Fleet& fleet : Fleets()) {
    const int end = fleet.trace.num_minutes();
    for (int round = 0; round < 2; ++round) {
      const int first = kTrainMinutes + 1 +
                        static_cast<int>(rng.UniformInt(0, 1200));
      const int second =
          first + 1 + static_cast<int>(rng.UniformInt(0, end - first - 2));
      const std::string context = fleet.label + "/round" +
                                  std::to_string(round) + "@" +
                                  std::to_string(first) + "," +
                                  std::to_string(second);
      const size_t n = fleet.trace.num_functions();
      Plan plan;
      plan.evict_period = round == 1 ? 7 : 0;

      ReferenceSpesPolicy reference;
      SpesPolicy policy;
      reference.Train(fleet.trace, kTrainMinutes);
      policy.Train(fleet.trace, kTrainMinutes);
      Lane ref_lane{&reference, MemSet(n)};
      Lane new_lane{&policy, MemSet(n)};
      ASSERT_TRUE(StepInLockstep(fleet.trace, &ref_lane, &new_lane,
                                 kTrainMinutes, first, plan, context));

      // new -> reference: the reference resumes from the new policy's
      // bytes and keeps matching the uninterrupted new policy.
      const std::unique_ptr<Policy> resumed_ref =
          RestoredInto<ReferenceSpesPolicy>(fleet.trace,
                                            policy.SaveState().ValueOrDie());
      Lane resumed_ref_lane{resumed_ref.get(), new_lane.mem};
      ASSERT_TRUE(StepInLockstep(fleet.trace, &resumed_ref_lane, &new_lane,
                                 first, second, plan, context + " new->ref"));

      // reference -> new: a fresh new policy resumes from the reference's
      // bytes and keeps matching it to the end.
      const std::unique_ptr<Policy> resumed_new = RestoredInto<SpesPolicy>(
          fleet.trace, resumed_ref->SaveState().ValueOrDie());
      Lane resumed_new_lane{resumed_new.get(), resumed_ref_lane.mem};
      StepInLockstep(fleet.trace, &resumed_ref_lane, &resumed_new_lane,
                     second, end, plan, context + " ref->new");
    }
  }
}

TEST(SpesDiffTest, FailedRestoreLeavesTheStepIntact) {
  const std::vector<Fleet> fleets = Fleets();
  const Fleet& fleet = fleets[1];  // sparse: online correlation in play
  const size_t n = fleet.trace.num_functions();
  const int midpoint = kTrainMinutes + 700;
  ReferenceSpesPolicy reference;
  SpesPolicy policy;
  reference.Train(fleet.trace, kTrainMinutes);
  policy.Train(fleet.trace, kTrainMinutes);
  Lane ref_lane{&reference, MemSet(n)};
  Lane new_lane{&policy, MemSet(n)};
  ASSERT_TRUE(StepInLockstep(fleet.trace, &ref_lane, &new_lane,
                             kTrainMinutes, midpoint, Plan{}, "before"));

  // Every truncation of a valid blob is rejected and leaves the policy
  // stepping exactly as the uninterrupted reference.
  const std::string blob = policy.SaveState().ValueOrDie();
  for (size_t len = 0; len < blob.size(); len += 1 + len / 3) {
    EXPECT_EQ(policy.RestoreState(blob.substr(0, len)).code(),
              StatusCode::kInvalidArgument)
        << "prefix " << len;
  }
  EXPECT_EQ(policy.RestoreState(blob.substr(0, blob.size() - 1)).code(),
            StatusCode::kInvalidArgument);
  StepInLockstep(fleet.trace, &ref_lane, &new_lane, midpoint,
                 fleet.trace.num_minutes(), Plan{}, "after failed restores");
}

// --- A capped cluster with a node failure and a replacement node. --------

void RegisterReferenceOnce() {
  static const bool registered = [] {
    PolicyRegistry::Entry entry;
    entry.canonical_name = "spes_reference";
    entry.summary = "dense SPES step (differential oracle)";
    entry.factory = [](const PolicyParams&) -> Result<std::unique_ptr<Policy>> {
      return std::unique_ptr<Policy>(std::make_unique<ReferenceSpesPolicy>());
    };
    return PolicyRegistry::Global().Register(std::move(entry)).ok();
  }();
  ASSERT_TRUE(registered);
}

/// Records every live node's MemSet words after every minute.
class MemRecorder : public SimObserver {
 public:
  bool OnMinute(const MinuteView& view) override {
    frames.push_back({view.minute, view.lane, view.mem->words()});
    return true;
  }
  struct Frame {
    int minute;
    size_t lane;
    std::vector<uint64_t> words;
    bool operator==(const Frame&) const = default;
  };
  std::vector<Frame> frames;
};

TEST(SpesDiffTest, CappedClusterWithNodeFailureMatchesDenseLoop) {
  RegisterReferenceOnce();
  for (const Fleet& fleet : Fleets()) {
    ClusterSpec spec;
    spec.nodes = 4;
    spec.node_capacity = static_cast<int>(fleet.trace.num_functions() / 12);
    spec.router = {"least_loaded", {}};
    spec.events = ParseNodeEventTimeline(
                      "fail{at=2000,node=1} | add{at=2300} | "
                      "fail{at=3100,node=3}")
                      .ValueOrDie();
    SimOptions options;
    options.train_minutes = kTrainMinutes;

    std::vector<MemRecorder> recorders(2);
    std::vector<ClusterOutcome> outcomes;
    for (size_t k = 0; k < 2; ++k) {
      const PolicySpec policy{k == 0 ? "spes_reference" : "spes", {}};
      ClusterSession session =
          ClusterSession::Create(fleet.trace, spec, policy, options)
              .ValueOrDie();
      session.AddObserver(&recorders[k]);
      outcomes.push_back(session.Finish().ValueOrDie());
    }
    ASSERT_EQ(recorders[0].frames.size(), recorders[1].frames.size())
        << fleet.label;
    for (size_t i = 0; i < recorders[0].frames.size(); ++i) {
      ASSERT_EQ(recorders[0].frames[i], recorders[1].frames[i])
          << fleet.label << ": node " << recorders[0].frames[i].lane
          << " differs after minute " << recorders[0].frames[i].minute;
    }
    EXPECT_GT(outcomes[1].nodes[0].pressure_evictions, 0u) << fleet.label;
    EXPECT_EQ(outcomes[0].fleet.metrics.total_cold_starts,
              outcomes[1].fleet.metrics.total_cold_starts);
    EXPECT_EQ(outcomes[0].fleet.memory_series, outcomes[1].fleet.memory_series);
  }
}

// --- Restore rejects blobs that break the step's invariants. -------------

/// Two functions: a queue-triggered candidate firing every 25 minutes and
/// an unseen target, so training leaves no correlation links and exactly
/// one online-correlation entry (target 1, candidate 0).
Trace OnlineCorrTrace() {
  const int horizon = 3 * kMinutesPerDay;
  Trace trace(horizon);
  for (int k = 0; k < 2; ++k) {
    FunctionTrace f;
    f.meta.name = "f" + std::to_string(k);
    f.meta.app = "app";
    f.meta.owner = "o";
    f.meta.trigger = TriggerType::kQueue;
    f.counts.assign(static_cast<size_t>(horizon), 0);
    for (int t = 0; t + 2 < horizon; t += 25) {
      if (k == 0) f.counts[static_cast<size_t>(t)] = 1;
      if (k == 1 && t >= 2 * kMinutesPerDay) {
        f.counts[static_cast<size_t>(t + 2)] = 1;
      }
    }
    EXPECT_TRUE(trace.Add(std::move(f)).ok());
  }
  return trace;
}

std::string Bytes(void (*put)(BinaryWriter*)) {
  BinaryWriter w;
  put(&w);
  return w.Take();
}

TEST(SpesDiffTest, RestoreRejectsBlobsBreakingStepInvariants) {
  const Trace trace = OnlineCorrTrace();
  const int train = 2 * kMinutesPerDay;
  SpesPolicy policy;
  policy.Train(trace, train);
  ReferenceSpesPolicy reference;
  reference.Train(trace, train);
  ASSERT_TRUE(policy.links_by_candidate()[0].empty());
  ASSERT_TRUE(policy.links_by_candidate()[1].empty());
  Lane new_lane{&policy, MemSet(2)};
  Lane ref_lane{&reference, MemSet(2)};
  ASSERT_TRUE(StepInLockstep(trace, &ref_lane, &new_lane, train, train + 300,
                             Plan{}, "before"));

  // Tail layout: links (u64 2, u64 0, u64 0) | u64 1 | one 29-byte entry
  // (u32 target, u64 1, u32 candidate, u8, i32, i32, i32) | two i64.
  const std::string blob = policy.SaveState().ValueOrDie();
  const size_t entry_at = blob.size() - 16 - 29;
  const size_t count_at = entry_at - 8;
  const size_t links_at = count_at - 24;
  ASSERT_EQ(blob.substr(entry_at, 4),
            Bytes([](BinaryWriter* w) { w->PutU32(1); }));

  std::string seen_target = blob;
  seen_target.replace(entry_at, 4,
                      Bytes([](BinaryWriter* w) { w->PutU32(0); }));
  std::string duplicate = blob;
  duplicate.insert(entry_at + 29, blob.substr(entry_at, 29));
  duplicate.replace(count_at, 8, Bytes([](BinaryWriter* w) { w->PutU64(2); }));
  const auto links_with = [&](uint32_t candidate_field) {
    BinaryWriter w;
    w.PutU64(2);
    w.PutU64(1);  // one link filed under candidate 0
    w.PutU32(1);  // target
    w.PutU32(candidate_field);
    w.PutI32(2);
    w.PutDouble(0.9);
    w.PutU64(0);
    std::string out = blob;
    out.replace(links_at, 24, w.Take());
    return out;
  };

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"seen in training", seen_target},
      {"more than once", duplicate},
      {"under candidate", links_with(1)},
  };
  for (const auto& [needle, bytes] : bad) {
    const Status status = policy.RestoreState(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << needle;
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
  }
  // The correctly filed link is accepted by a fresh policy.
  SpesPolicy other;
  other.Train(trace, train);
  EXPECT_TRUE(other.RestoreState(links_with(0)).ok());

  // The rejected restores left `policy` stepping as before.
  StepInLockstep(trace, &ref_lane, &new_lane, train + 300,
                 trace.num_minutes(), Plan{}, "after rejected restores");
}

// --- Training from the window's slots vs the dense oracle. ---------------

/// A rare-0.9 fleet over six days whose unseen functions stay silent until
/// the last day, so every training window below leaves them unseen.
Trace RareFleet() {
  GeneratorConfig config;
  config.num_functions = 400;
  config.days = 6;
  config.seed = 31;
  config.rare_fraction = 0.9;
  config.unseen_fraction = 0.1;
  config.unseen_days = 1;
  return Generate(config);
}

/// Trains `policy` from the slots of a TrainingWindow and `reference` from
/// the dense Trace, and requires equal SaveState() bytes right after.
void ExpectTrainMatches(const Trace& trace, int train, SpesPolicy* policy,
                        ReferenceSpesPolicy* reference,
                        const std::string& context) {
  InMemoryTraceSource source(trace);
  const TrainingWindow window =
      TrainingWindow::Build(source, train).ValueOrDie();
  policy->Train(window);
  reference->Train(trace, train);
  EXPECT_EQ(policy->SaveState().ValueOrDie(),
            reference->SaveState().ValueOrDie())
      << context;
  EXPECT_EQ(policy->forgetting_recategorized(),
            reference->forgetting_recategorized())
      << context;
}

TEST(SpesDiffTest, MultiDayTrainingFromTheWindowMatchesDenseOracle) {
  const Trace trace = RareFleet();
  std::vector<std::pair<std::string, SpesConfig>> configs;
  configs.emplace_back("spes", SpesConfig{});
  SpesConfig c;
  c.validation_minutes = 1000;
  configs.emplace_back("validation_minutes=1000", c);
  c = SpesConfig{};
  c.enable_forgetting = false;
  configs.emplace_back("enable_forgetting=false", c);
  c = SpesConfig{};
  c.enable_correlated = false;
  configs.emplace_back("enable_correlated=false", c);

  // 2880 and 3000 minutes let forgetting drop one day, 4320 one, 5760 two;
  // the default 2880-minute validation replay is shorter than all but the
  // first window.
  int64_t forgotten = 0;
  int64_t correlated = 0;
  for (const int train : {2880, 3000, 4320, 5760}) {
    for (const auto& [label, config] : configs) {
      SpesPolicy policy(config);
      ReferenceSpesPolicy reference(config);
      ExpectTrainMatches(trace, train, &policy, &reference,
                         label + " @ " + std::to_string(train));
      forgotten += reference.forgetting_recategorized();
      correlated += reference.CountByType()[static_cast<size_t>(
          FunctionType::kCorrelated)];
    }
  }
  // The forgetting retries and the mined links both take part.
  EXPECT_GT(forgotten, 0);
  EXPECT_GT(correlated, 0);
}

TEST(SpesDiffTest, OnlineCorrelationForATriggerWithNoSeenFunction) {
  // Unseen functions alternate between the orchestration trigger, which no
  // seen function has, and the event trigger, which three seen functions
  // have: the same-trigger fallback finds nothing for the first and fewer
  // than online_corr_max_candidates for the second.
  const Trace base = RareFleet();
  const int train = 2 * kMinutesPerDay;
  Trace trace(base.num_minutes());
  int unseen = 0;
  int seen_events = 0;
  for (const FunctionTrace& function : base.functions()) {
    FunctionTrace copy = function;
    const auto window = std::span<const uint32_t>(copy.counts).first(train);
    const bool seen = std::any_of(window.begin(), window.end(),
                                  [](uint32_t count) { return count > 0; });
    TriggerType& trigger = copy.meta.trigger;
    if (!seen) {
      trigger = unseen++ % 2 == 0 ? TriggerType::kOrchestration
                                  : TriggerType::kEvent;
    } else if (seen_events < 3) {
      trigger = TriggerType::kEvent;
      ++seen_events;
    } else if (trigger == TriggerType::kOrchestration ||
               trigger == TriggerType::kEvent) {
      trigger = TriggerType::kHttp;
    }
    ASSERT_TRUE(trace.Add(std::move(copy)).ok());
  }
  ASSERT_GT(unseen, 10);

  SpesPolicy policy;
  ReferenceSpesPolicy reference;
  ExpectTrainMatches(trace, train, &policy, &reference, "after Train");
  const size_t n = trace.num_functions();
  Lane ref_lane{&reference, MemSet(n)};
  Lane new_lane{&policy, MemSet(n)};
  StepInLockstep(trace, &ref_lane, &new_lane, train, trace.num_minutes(),
                 Plan{}, "orphan trigger");
}

// --- Property: no pre-load minute hides before the wake-up minute. -------

TEST(SpesWakeUpPropertyTest, WakeUpIsTheFirstPreloadMinute) {
  using State = SpesPolicyPeer::State;
  Rng rng(99);
  constexpr int64_t kHorizon = 1500;
  for (int trial = 0; trial < 20000; ++trial) {
    SpesConfig config;
    config.theta_prewarm = static_cast<int>(rng.UniformInt(0, 6));
    const SpesPolicy policy(config);

    State st;
    const bool arrived = rng.UniformInt(0, 9) != 0;
    st.last_arrival = arrived ? static_cast<int>(rng.UniformInt(0, 400)) : -1;
    const int64_t from =
        std::max<int64_t>(0, st.last_arrival) + rng.UniformInt(0, 300);
    if (rng.UniformInt(0, 3) == 0) {
      st.corr_hold_until = static_cast<int>(from + rng.UniformInt(-50, 50));
    }
    PredictiveModel& model = st.model;
    switch (rng.UniformInt(0, 4)) {
      case 0:  // regular lattice (sometimes without a seeded prediction)
        model.type = FunctionType::kRegular;
        model.values = {rng.UniformInt(-1, 90)};
        if (rng.UniformInt(0, 2) != 0) {
          st.next_predicted = std::max<int64_t>(0, st.last_arrival) +
                              rng.UniformInt(-20, 200);
        }
        break;
      case 1:  // continuous window
        model.type = FunctionType::kDense;
        model.continuous = true;
        model.range_lo = rng.UniformInt(0, 60);
        model.range_hi = model.range_lo + rng.UniformInt(0, 60);
        break;
      case 2: {  // value set
        model.type = rng.UniformInt(0, 1) == 0 ? FunctionType::kPossible
                                               : FunctionType::kApproRegular;
        const int64_t k = rng.UniformInt(1, 4);
        for (int64_t i = 0; i < k; ++i) {
          model.values.push_back(rng.UniformInt(1, 400));
        }
        break;
      }
      case 3:
        model.type = FunctionType::kAlwaysWarm;
        break;
      default:  // unknown: only a hold can pre-load it
        model.type = FunctionType::kUnknown;
        break;
    }

    const int64_t wake = SpesPolicyPeer::NextWake(policy, st, from);
    ASSERT_GE(wake, from);
    // Brute force the dense loop's view: the lattice advances every idle
    // minute, and no minute before the wake-up may pre-load.
    State probe = st;
    const int64_t stop = std::min(wake, from + kHorizon);
    for (int64_t m = from; m < stop; ++m) {
      ASSERT_FALSE(
          SpesPolicyPeer::Preload(policy, &probe, static_cast<int>(m)))
          << "trial " << trial << ": pre-load at " << m << " before wake-up "
          << wake;
    }
    // The wake-up is tight, not merely early: it is a pre-load minute.
    if (wake != SpesPolicyPeer::kNever && wake < from + kHorizon) {
      ASSERT_TRUE(
          SpesPolicyPeer::Preload(policy, &probe, static_cast<int>(wake)))
          << "trial " << trial << ": wake-up " << wake << " pre-loads nothing";
    }
  }
}

}  // namespace
}  // namespace spes
