// Micro-benchmarks (google-benchmark) for SPES's hot paths: WT extraction,
// deterministic categorization, arrival decode, the per-minute provision
// step (event-driven vs the dense reference loop), SPES training (from a
// TrainingWindow's slots vs the dense reference) and the IAT histogram
// update, plus the end-to-end simulation kernel
// (columnar SimStream vs the kept naive reference loop). These back the
// RQ2 overhead discussion — every per-invocation operation must be
// O(1)-ish for the unbillable scheduling window — and pin the simulator's
// own throughput trajectory (BENCH_micro_hotpaths.json).
//
// Scale knobs: SPES_BENCH_FUNCTIONS overrides the fleet sizes of the
// decode/provision/kernel benches (e.g. SPES_BENCH_FUNCTIONS=1000000 for
// the Azure-scale single-thread run); SPES_BENCH_DAYS (default 3) sets the
// horizon — the last day is simulated, the rest trains.
// SPES_BENCH_RARE_PCT (default 0) forces that percentage of the fleet onto
// the rarely-invoked archetypes: the default mix is calibrated at laptop
// scale where ~a third of the fleet fires every minute, which extrapolated
// to 1M functions would be an unrealistic ~475M invocations/day — the
// Azure-scale runs pair SPES_BENCH_FUNCTIONS=1000000 with
// SPES_BENCH_RARE_PCT=90 to match the real trace's tail-heavy population.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/env.h"
#include "core/categorizer.h"
#include "core/series_features.h"
#include "core/spes_policy.h"
#include "policies/fixed_keepalive.h"
#include "policies/iat_histogram.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "tests/reference_kernel.h"
#include "sim/stream.h"
#include "tests/reference_spes_policy.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "trace/trace_source.h"
#include "trace/training_window.h"

#include <filesystem>
#include <string>

namespace spes {
namespace {

std::vector<uint32_t> PeriodicCounts(int n, int period) {
  std::vector<uint32_t> counts(static_cast<size_t>(n), 0);
  for (int t = 0; t < n; t += period) counts[static_cast<size_t>(t)] = 1;
  return counts;
}

/// One generated fleet per size, shared across benches (generation at
/// 1M functions is minutes of work; pay it once).
const GeneratedTrace& SharedFleet(int64_t num_functions) {
  static std::map<int64_t, std::unique_ptr<GeneratedTrace>> cache;
  std::unique_ptr<GeneratedTrace>& slot = cache[num_functions];
  if (slot == nullptr) {
    GeneratorConfig config;
    config.num_functions = static_cast<int>(num_functions);
    config.days = static_cast<int>(GetEnvInt("SPES_BENCH_DAYS", 3));
    if (config.days < 2) config.days = 2;
    config.seed = 7;
    config.rare_fraction =
        static_cast<double>(GetEnvInt("SPES_BENCH_RARE_PCT", 0)) / 100.0;
    slot = std::make_unique<GeneratedTrace>(
        std::move(GenerateTrace(config).ValueOrDie()));
  }
  return *slot;
}

int TrainMinutes(const Trace& trace) {
  return trace.num_minutes() - kMinutesPerDay;  // simulate the last day
}

/// Fleet sizes: SPES_BENCH_FUNCTIONS when set, else the default ladder.
void FleetArgs(benchmark::internal::Benchmark* bench) {
  const int64_t env = GetEnvInt("SPES_BENCH_FUNCTIONS", 0);
  if (env > 0) {
    bench->Arg(env);
    return;
  }
  bench->Arg(1000)->Arg(4000);
}

void BM_ExtractSeriesFeatures(benchmark::State& state) {
  const auto counts =
      PeriodicCounts(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractSeriesFeatures(counts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractSeriesFeatures)->Arg(1440)->Arg(20160);

void BM_CategorizeDeterministic(benchmark::State& state) {
  const auto counts =
      PeriodicCounts(static_cast<int>(state.range(0)), 31);
  const SpesConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CategorizeDeterministic(counts, config));
  }
}
BENCHMARK(BM_CategorizeDeterministic)->Arg(1440)->Arg(20160);

void BM_IatHistogramRecordAndQuery(benchmark::State& state) {
  IatHistogram hist(240);
  int iat = 1;
  for (auto _ : state) {
    hist.Record(iat);
    iat = iat % 240 + 1;
    benchmark::DoNotOptimize(hist.PercentileMinute(99.0));
  }
}
BENCHMARK(BM_IatHistogramRecordAndQuery);

// --------------------------------------------------------------------------
// Arrival decode: the naive O(n)-per-minute scan vs the block-transposing
// ArrivalDecoder. Items/sec counts function-minutes, so the two series are
// directly comparable (and comparable with the provision step below).
// --------------------------------------------------------------------------

void BM_ArrivalDecodeNaive(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  const int train = TrainMinutes(fleet.trace);
  const size_t n = fleet.trace.num_functions();
  std::vector<Invocation> arrivals;
  int t = train;
  for (auto _ : state) {
    arrivals.clear();
    for (size_t f = 0; f < n; ++f) {
      const uint32_t c =
          fleet.trace.function(f).counts[static_cast<size_t>(t)];
      if (c > 0) arrivals.push_back({static_cast<uint32_t>(f), c});
    }
    benchmark::DoNotOptimize(arrivals.data());
    t = train + (t + 1 - train) % (fleet.trace.num_minutes() - train);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArrivalDecodeNaive)->Apply(FleetArgs);

void BM_ArrivalDecodeColumnar(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  ArrivalDecoder decoder(fleet.trace);
  // One iteration = one full block of minutes, cycling through distinct
  // blocks so every iteration pays (and amortizes) a real block transpose.
  // Items/sec stays in function-minutes, comparable with the naive scan.
  constexpr int kBlock = ArrivalDecoder::kDefaultBlockMinutes;
  const int num_blocks = fleet.trace.num_minutes() / kBlock;
  int block = 0;
  for (auto _ : state) {
    const int start = block * kBlock;
    uint64_t arrivals = 0;
    for (int t = start; t < start + kBlock; ++t) {
      arrivals += decoder.Decode(t).size();
    }
    benchmark::DoNotOptimize(arrivals);
    block = (block + 1) % num_blocks;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kBlock);
}
BENCHMARK(BM_ArrivalDecodeColumnar)->Apply(FleetArgs);

// --------------------------------------------------------------------------
// Packed-file streaming decode vs the in-memory source. Both go through
// the same ArrivalDecoder block transpose; the streamed variant adds the
// trace_file read + varint/LZ block decode, so the items/sec gap IS the
// out-of-core overhead. check_bench_regression.py gates that gap
// (--max-stream-overhead). Counters record the packed file size and its
// compression ratio vs the dense u32 matrix.
// --------------------------------------------------------------------------

/// Packs the shared fleet once per size; reopened by every iteration set.
const std::string& SharedPackedFleet(int64_t num_functions,
                                     TraceFileStats* stats) {
  static std::map<int64_t, std::pair<std::string, TraceFileStats>> cache;
  std::pair<std::string, TraceFileStats>& slot = cache[num_functions];
  if (slot.first.empty()) {
    slot.first = (std::filesystem::temp_directory_path() /
                  ("spes_bench_" + std::to_string(num_functions) + ".spt"))
                     .string();
    slot.second =
        WriteTraceFile(SharedFleet(num_functions).trace, slot.first)
            .ValueOrDie();
  }
  if (stats != nullptr) *stats = slot.second;
  return slot.first;
}

/// Decodes every minute of one 256-minute block per iteration through
/// `decoder`, cycling blocks; items/sec counts function-minutes, directly
/// comparable between the two sources (and with BM_ArrivalDecodeColumnar).
template <typename MakeDecoder>
void DecodeBlocksLoop(benchmark::State& state, int num_minutes,
                      MakeDecoder make_decoder) {
  ArrivalDecoder decoder = make_decoder();
  constexpr int kBlock = ArrivalDecoder::kDefaultBlockMinutes;
  const int num_blocks = num_minutes / kBlock;
  int block = 0;
  for (auto _ : state) {
    const int start = block * kBlock;
    uint64_t arrivals = 0;
    for (int t = start; t < start + kBlock; ++t) {
      arrivals += decoder.Decode(t).size();
    }
    benchmark::DoNotOptimize(arrivals);
    block = (block + 1) % num_blocks;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kBlock);
}

void BM_InMemoryDecode(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  InMemoryTraceSource source(fleet.trace);
  DecodeBlocksLoop(state, fleet.trace.num_minutes(),
                   [&source] { return ArrivalDecoder(&source); });
}
BENCHMARK(BM_InMemoryDecode)->Apply(FleetArgs);

void BM_TraceFileStreamDecode(benchmark::State& state) {
  TraceFileStats stats;
  const std::string& path = SharedPackedFleet(state.range(0), &stats);
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();
  DecodeBlocksLoop(state, source->num_minutes(),
                   [&source] { return ArrivalDecoder(source.get()); });
  state.counters["file_bytes"] = static_cast<double>(stats.file_bytes);
  state.counters["compression_ratio"] = stats.CompressionRatio();
}
BENCHMARK(BM_TraceFileStreamDecode)->Apply(FleetArgs);

// --------------------------------------------------------------------------
// SPES provision step: the event-driven SpesPolicy vs the dense reference
// loop (tests/reference_spes_policy.h) over the same minutes. Arrivals are
// pre-decoded OUTSIDE the timed region, and each minute is fed as the
// engine feeds it (arrivals loaded first). Minutes run strictly in order:
// when the simulated day runs out, a fresh policy is trained and the
// MemSet cleared, untimed. tools/check_bench_regression.py --min-spes-ratio
// gates the ratio of the two series.
// --------------------------------------------------------------------------

template <typename PolicyT>
void SpesProvisionMinute(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  const int train = TrainMinutes(fleet.trace);
  const size_t n = fleet.trace.num_functions();
  // Pre-decode every simulated minute once, outside the measurement.
  const int sim_minutes = fleet.trace.num_minutes() - train;
  std::vector<std::vector<Invocation>> decoded(
      static_cast<size_t>(sim_minutes));
  {
    ArrivalDecoder decoder(fleet.trace);
    for (int m = 0; m < sim_minutes; ++m) {
      const auto span = decoder.Decode(train + m);
      decoded[static_cast<size_t>(m)].assign(span.begin(), span.end());
    }
  }
  auto policy = std::make_unique<PolicyT>();
  policy->Train(fleet.trace, train);
  MemSet mem(n);
  int m = 0;
  for (auto _ : state) {
    if (m == sim_minutes) {
      state.PauseTiming();
      policy = std::make_unique<PolicyT>();
      policy->Train(fleet.trace, train);
      mem = MemSet(n);
      m = 0;
      state.ResumeTiming();
    }
    const std::vector<Invocation>& arrivals = decoded[static_cast<size_t>(m)];
    for (const Invocation& inv : arrivals) mem.Add(inv.function);
    policy->OnMinute(train + m, arrivals, &mem);
    benchmark::DoNotOptimize(mem.Count());
    ++m;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SpesProvisionMinute(benchmark::State& state) {
  SpesProvisionMinute<SpesPolicy>(state);
}
BENCHMARK(BM_SpesProvisionMinute)->Apply(FleetArgs);

void BM_SpesProvisionMinuteReference(benchmark::State& state) {
  SpesProvisionMinute<ReferenceSpesPolicy>(state);
}
BENCHMARK(BM_SpesProvisionMinuteReference)->Apply(FleetArgs);

// --------------------------------------------------------------------------
// SPES training: SpesPolicy::Train from the slots of a TrainingWindow vs
// the dense reference (tests/reference_spes_policy.h) over the
// materialized Trace, on one sparse fleet (90% rarely-invoked functions,
// the shape of the Azure trace) of 3 days, 2 of them trained. The window
// is built once, outside the measurement, so both series time the
// categorization, the indeterminate assignment and the online-correlation
// setup. Items/sec counts functions trained;
// tools/check_bench_regression.py --min-spes-train-ratio gates the ratio of
// the two series.
// --------------------------------------------------------------------------

const Trace& SparseTrainFleet(int64_t num_functions) {
  static std::map<int64_t, std::unique_ptr<Trace>> cache;
  std::unique_ptr<Trace>& slot = cache[num_functions];
  if (slot == nullptr) {
    GeneratorConfig config;
    config.num_functions = static_cast<int>(num_functions);
    config.days = 3;
    config.seed = 7;
    config.rare_fraction = 0.9;
    slot = std::make_unique<Trace>(
        std::move(GenerateTrace(config).ValueOrDie().trace));
  }
  return *slot;
}

void BM_SpesTrain(benchmark::State& state) {
  const Trace& trace = SparseTrainFleet(state.range(0));
  InMemoryTraceSource source(trace);
  const TrainingWindow window =
      TrainingWindow::Build(source, TrainMinutes(trace)).ValueOrDie();
  for (auto _ : state) {
    SpesPolicy policy;
    policy.Train(window);
    benchmark::DoNotOptimize(policy.CountByType());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpesTrain)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_SpesTrainReference(benchmark::State& state) {
  const Trace& trace = SparseTrainFleet(state.range(0));
  for (auto _ : state) {
    ReferenceSpesPolicy policy;
    policy.Train(trace, TrainMinutes(trace));
    benchmark::DoNotOptimize(policy.CountByType());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpesTrainReference)->Arg(4000)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// End-to-end simulation kernel over the last trace day: the columnar
// SimStream vs the kept naive reference loop driving a pre-refactor-style
// policy. Items/sec counts simulated function-minutes; the
// columnar/reference items-per-second ratio is the PR's ≥10x headline
// number, and tools/check_bench_regression.py gates on BM_SimKernelColumnar.
// --------------------------------------------------------------------------

/// Fixed keep-alive exactly as the pre-columnar engine ran it: an O(n)
/// membership scan every minute instead of walking only the loaded ids.
/// Same semantics as FixedKeepAlivePolicy (identical outcomes), kept here
/// so BM_SimKernelReference measures the full pre-refactor cost profile.
class PreRefactorKeepAlive : public Policy {
 public:
  explicit PreRefactorKeepAlive(int keepalive_minutes)
      : keepalive_minutes_(keepalive_minutes) {}
  std::string name() const override {
    return "Fixed-" + std::to_string(keepalive_minutes_) + "min";
  }
  void Train(const Trace& trace, int) override {
    last_arrival_.assign(trace.num_functions(), -1);
  }
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override {
    for (const Invocation& inv : arrivals) last_arrival_[inv.function] = t;
    const size_t n = last_arrival_.size();
    for (size_t f = 0; f < n; ++f) {
      if (!mem->Contains(f)) continue;
      const int last = last_arrival_[f];
      if (last < 0 || t - last >= keepalive_minutes_) mem->Remove(f);
    }
  }

 private:
  int keepalive_minutes_;
  std::vector<int> last_arrival_;
};

void BM_SimKernelColumnar(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  SimOptions options;
  options.train_minutes = TrainMinutes(fleet.trace);
  for (auto _ : state) {
    FixedKeepAlivePolicy policy(10);
    SimStream stream =
        SimStream::Create(fleet.trace, &policy, options).ValueOrDie();
    const SimulationOutcome outcome = stream.Finish().ValueOrDie();
    benchmark::DoNotOptimize(outcome.metrics.total_invocations);
  }
  const int sim_minutes = fleet.trace.num_minutes() - options.train_minutes;
  state.SetItemsProcessed(state.iterations() * state.range(0) * sim_minutes);
}
BENCHMARK(BM_SimKernelColumnar)
    ->Apply(FleetArgs)
    ->Unit(benchmark::kMillisecond);

void BM_SimKernelReference(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  SimOptions options;
  options.train_minutes = TrainMinutes(fleet.trace);
  for (auto _ : state) {
    PreRefactorKeepAlive policy(10);
    const SimulationOutcome outcome =
        SimulateReference(fleet.trace, &policy, options).ValueOrDie();
    benchmark::DoNotOptimize(outcome.metrics.total_invocations);
  }
  const int sim_minutes = fleet.trace.num_minutes() - options.train_minutes;
  state.SetItemsProcessed(state.iterations() * state.range(0) * sim_minutes);
}
BENCHMARK(BM_SimKernelReference)
    ->Apply(FleetArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spes

BENCHMARK_MAIN();
