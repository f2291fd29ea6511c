// Tests of the sparse training window (trace/training_window.h) and of
// need-driven training in the sessions built on it.
//
// The window must hold exactly the training minutes a dense prefix holds:
// the same slots whichever TraceSource it was decoded from, rows that
// expand to MaterializePrefix()/Trace::Slice() bit for bit, and no more
// than 8 bytes per non-zero cell plus a fixed number of bytes per
// function. Sessions whose policies need no window must decode no
// training minute, and every policy must train to the outcomes it had
// when training read a dense Trace.

#include "trace/training_window.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/policy_registry.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/stream.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "trace/transform.h"

namespace spes {
namespace {

struct Fleet {
  std::string label;
  Trace trace;
};

Trace Generate(const GeneratorConfig& config) {
  return std::move(GenerateTrace(config).ValueOrDie().trace);
}

/// The seed-99 golden fleet, a sparse fleet (90% rare, 10% unseen) and a
/// bursty one (injected bursts over a generated base).
std::vector<Fleet> Fleets() {
  std::vector<Fleet> fleets;
  GeneratorConfig golden;
  golden.num_functions = 150;
  golden.days = 4;
  golden.seed = 99;
  fleets.push_back({"seed99", Generate(golden)});

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
      "inject_burst{at=2000,width=45,amplitude=3,fraction=0.5,seed=2}");
  fleets.push_back(
      {"bursty",
       ApplyTransforms(Generate(base), chain.ValueOrDie()).ValueOrDie()});
  return fleets;
}

/// A train window that ends inside a 256-minute chunk.
int TrainMinutes(const Trace& trace) { return trace.num_minutes() / 2 + 77; }

std::unique_ptr<TraceFileSource> Pack(const Trace& trace, int block_minutes) {
  TraceFileOptions options;
  options.block_minutes = block_minutes;
  TraceFileWriter writer =
      TraceFileWriter::Create(trace.num_minutes(), options).ValueOrDie();
  for (size_t f = 0; f < trace.num_functions(); ++f) {
    writer.Add(trace.function(f).meta, trace.function(f).counts).CheckOK();
  }
  return TraceFileSource::FromBytes(writer.ToBytes().ValueOrDie())
      .ValueOrDie();
}

void ExpectSameSlots(const TrainingWindow& a, const TrainingWindow& b,
                     const std::string& context) {
  ASSERT_EQ(a.num_functions(), b.num_functions()) << context;
  ASSERT_EQ(a.num_cells(), b.num_cells()) << context;
  EXPECT_EQ(a.bytes(), b.bytes()) << context;
  for (size_t f = 0; f < a.num_functions(); ++f) {
    const auto sa = a.slots(f);
    const auto sb = b.slots(f);
    ASSERT_EQ(sa.size(), sb.size()) << context << " function " << f;
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].minute, sb[i].minute) << context << " function " << f;
      EXPECT_EQ(sa[i].count, sb[i].count) << context << " function " << f;
    }
  }
}

TEST(TrainingWindowTest, FileAndInMemorySourcesGiveTheSameWindow) {
  for (const Fleet& fleet : Fleets()) {
    const int train = TrainMinutes(fleet.trace);
    InMemoryTraceSource memory(fleet.trace);
    const TrainingWindow expected =
        TrainingWindow::Build(memory, train).ValueOrDie();
    // File blocks on and off the window's 256-minute chunk grid.
    for (int block_minutes : {256, 100, 1000}) {
      std::unique_ptr<TraceFileSource> file = Pack(fleet.trace, block_minutes);
      const TrainingWindow window =
          TrainingWindow::Build(*file, train).ValueOrDie();
      ExpectSameSlots(window, expected,
                      fleet.label + " blocks of " +
                          std::to_string(block_minutes));
    }
  }
}

TEST(TrainingWindowTest, RowsExpandToTheDensePrefix) {
  for (const Fleet& fleet : Fleets()) {
    const int train = TrainMinutes(fleet.trace);
    std::unique_ptr<TraceFileSource> file = Pack(fleet.trace, 256);
    const TrainingWindow window =
        TrainingWindow::Build(*file, train).ValueOrDie();
    const Trace prefix = file->MaterializePrefix(train).ValueOrDie();
    ASSERT_EQ(window.train_minutes(), train);
    std::vector<uint32_t> row;
    uint64_t cells = 0;
    for (size_t f = 0; f < fleet.trace.num_functions(); ++f) {
      window.ExpandRow(f, 0, train, &row);
      ASSERT_EQ(row, prefix.function(f).counts)
          << fleet.label << " function " << f;
      const auto full = fleet.trace.Slice(f, 0, train);
      ASSERT_EQ(row, std::vector<uint32_t>(full.begin(), full.end()));
      // A sub-range (SPES's validation slice) expands to Slice() too.
      const int begin = train - kMinutesPerDay / 2;
      window.ExpandRow(f, begin, train, &row);
      const auto tail = fleet.trace.Slice(f, begin, train);
      ASSERT_EQ(row, std::vector<uint32_t>(tail.begin(), tail.end()))
          << fleet.label << " function " << f;
      EXPECT_EQ(window.meta(f).name, fleet.trace.function(f).meta.name);
      for (uint32_t c : full) cells += c > 0 ? 1 : 0;
    }
    EXPECT_EQ(window.num_cells(), cells) << fleet.label;

    // Materialize() is MaterializePrefix(), metadata included.
    const Trace materialized = window.Materialize().ValueOrDie();
    ASSERT_EQ(materialized.num_minutes(), train);
    for (size_t f = 0; f < prefix.num_functions(); ++f) {
      EXPECT_EQ(materialized.function(f).counts, prefix.function(f).counts);
      EXPECT_EQ(materialized.function(f).meta.app,
                prefix.function(f).meta.app);
      EXPECT_EQ(materialized.function(f).meta.trigger,
                prefix.function(f).meta.trigger);
    }
    EXPECT_EQ(window.GroupByApp(), fleet.trace.GroupByApp());
    EXPECT_EQ(window.GroupByOwner(), fleet.trace.GroupByOwner());
  }
}

TEST(TrainingWindowTest, HoldsEightBytesPerCellPlusAFixedCostPerFunction) {
  // The window's own arrays, not host RSS: 8 bytes per non-zero cell plus
  // at most kPerFunction bytes per function.
  constexpr uint64_t kPerFunction = 16;
  for (const Fleet& fleet : Fleets()) {
    InMemoryTraceSource source(fleet.trace);
    const TrainingWindow window =
        TrainingWindow::Build(source, TrainMinutes(fleet.trace)).ValueOrDie();
    ASSERT_GT(window.num_cells(), 0u) << fleet.label;
    EXPECT_LE(window.bytes(), 8 * window.num_cells() +
                                  kPerFunction * window.num_functions())
        << fleet.label;
    // A sparse fleet's window is far below the dense prefix's 4 bytes
    // per (function, minute).
    if (fleet.label == "sparse") {
      EXPECT_LT(window.bytes() * 4, 4ull * window.num_functions() *
                                        static_cast<uint64_t>(
                                            window.train_minutes()));
    }
  }
}

TEST(TrainingWindowTest, EdgeWindows) {
  const Trace trace = Fleets()[0].trace;
  InMemoryTraceSource source(trace);
  const TrainingWindow empty = TrainingWindow::Build(source, 0).ValueOrDie();
  EXPECT_TRUE(empty.has_arrivals());
  EXPECT_EQ(empty.num_cells(), 0u);
  EXPECT_TRUE(empty.slots(3).empty());

  const TrainingWindow whole =
      TrainingWindow::Build(source, trace.num_minutes()).ValueOrDie();
  std::vector<uint32_t> row;
  whole.ExpandRow(7, 0, trace.num_minutes(), &row);
  EXPECT_EQ(row, trace.function(7).counts);

  EXPECT_EQ(TrainingWindow::Build(source, trace.num_minutes() + 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TrainingWindow::Build(source, -1).status().code(),
            StatusCode::kInvalidArgument);

  const TrainingWindow shape = TrainingWindow::MetadataOnly(source, 100);
  EXPECT_FALSE(shape.has_arrivals());
  EXPECT_EQ(shape.num_functions(), trace.num_functions());
  EXPECT_EQ(shape.train_minutes(), 100);
  EXPECT_EQ(shape.bytes(), 0u);
}

// ---------------------------------------------------------------------
// Need-driven training in the sessions
// ---------------------------------------------------------------------

/// Forwards to a source and records the windows asked of it.
class CountingSource final : public TraceSource {
 public:
  explicit CountingSource(TraceSource* inner) : inner_(inner) {}

  [[nodiscard]] int num_minutes() const override {
    return inner_->num_minutes();
  }
  [[nodiscard]] size_t num_functions() const override {
    return inner_->num_functions();
  }
  [[nodiscard]] const FunctionMeta& function_meta(size_t f) const override {
    return inner_->function_meta(f);
  }
  Status FillArrivals(int begin, int end,
                      std::vector<std::vector<Invocation>>* buckets) override {
    ++fills_;
    if (begin < first_minute_) first_minute_ = begin;
    return inner_->FillArrivals(begin, end, buckets);
  }
  Result<Trace> MaterializePrefix(int num_minutes) override {
    ++prefixes_;
    return inner_->MaterializePrefix(num_minutes);
  }

  [[nodiscard]] int fills() const { return fills_; }
  [[nodiscard]] int first_minute() const { return first_minute_; }
  [[nodiscard]] int prefixes() const { return prefixes_; }

 private:
  TraceSource* inner_;
  int fills_ = 0;
  int first_minute_ = 1 << 30;
  int prefixes_ = 0;
};

std::unique_ptr<Policy> Create(const std::string& spec) {
  return PolicyRegistry::Global().CreateFromString(spec).ValueOrDie();
}

/// The minute the simulated window's first decoder block starts at: the
/// decoder reads whole 256-minute blocks on a fixed grid, so it is the
/// only reader that may touch minutes below train_minutes.
int FirstDecodedMinute(int train_minutes) {
  return train_minutes - train_minutes % ArrivalDecoder::kDefaultBlockMinutes;
}

TEST(NeedDrivenTrainingTest, WindowlessPoliciesDecodeNoTrainingMinute) {
  const Trace trace = Fleets()[0].trace;
  std::unique_ptr<TraceFileSource> file = Pack(trace, 256);
  // A train window on the decoder's block grid, and one inside a block.
  for (int train : {6 * ArrivalDecoder::kDefaultBlockMinutes,
                    TrainMinutes(trace)}) {
    SimOptions options;
    options.train_minutes = train;
    for (const char* spec : {"fixed_keepalive", "faascache{capacity=40}"}) {
      std::unique_ptr<Policy> policy = Create(spec);
      EXPECT_FALSE(policy->NeedsTrainingWindow()) << spec;
      CountingSource source(file.get());
      SimStream stream =
          SimStream::Create(source, policy.get(), options).ValueOrDie();
      EXPECT_EQ(source.fills(), 0) << spec;
      const SimulationOutcome streamed = stream.Finish().ValueOrDie();
      EXPECT_EQ(source.first_minute(), FirstDecodedMinute(train)) << spec;
      EXPECT_EQ(source.prefixes(), 0) << spec;

      std::unique_ptr<Policy> fresh = Create(spec);
      const SimulationOutcome in_memory =
          Simulate(trace, fresh.get(), options).ValueOrDie();
      EXPECT_EQ(streamed.memory_series, in_memory.memory_series) << spec;
      EXPECT_EQ(streamed.metrics.total_cold_starts,
                in_memory.metrics.total_cold_starts)
          << spec;
    }

    // A cluster of windowless nodes decodes no training minute either.
    CountingSource source(file.get());
    ClusterSpec cluster;
    cluster.nodes = 3;
    cluster.node_capacity = 30;
    ClusterSession session = ClusterSession::Create(
                                 source, cluster, {"fixed_keepalive", {}},
                                 options)
                                 .ValueOrDie();
    EXPECT_EQ(source.fills(), 0);
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_EQ(source.first_minute(), FirstDecodedMinute(train));
    EXPECT_EQ(source.prefixes(), 0);
  }
}

TEST(NeedDrivenTrainingTest, OneLearningLaneDecodesTheWindowOnce) {
  const Trace trace = Fleets()[1].trace;
  std::unique_ptr<TraceFileSource> file = Pack(trace, 256);
  SimOptions options;
  options.train_minutes = TrainMinutes(trace);
  std::unique_ptr<Policy> fixed = Create("fixed_keepalive");
  std::unique_ptr<Policy> spes = Create("spes");
  std::unique_ptr<Policy> defuse = Create("defuse");
  CountingSource source(file.get());
  SimStream stream =
      SimStream::Create(source, {fixed.get(), spes.get(), defuse.get()},
                        options)
          .ValueOrDie();
  EXPECT_EQ(source.first_minute(), 0);
  // One FillArrivals per 256-minute chunk of the window, shared by the
  // lanes that learn from it.
  const int chunks =
      (options.train_minutes + TrainingWindow::kChunkMinutes - 1) /
      TrainingWindow::kChunkMinutes;
  EXPECT_EQ(source.fills(), chunks);
  EXPECT_EQ(source.prefixes(), 0);
  ASSERT_TRUE(stream.FinishAll().ok());
}

/// A decorator written against the dense interface: it overrides only
/// Train(const Trace&, int), as a pre-window wrapper does.
class DenseDecorator final : public Policy {
 public:
  explicit DenseDecorator(std::unique_ptr<Policy> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  using Policy::Train;
  void Train(const Trace& trace, int train_minutes) override {
    dense_minutes_ = trace.num_minutes();
    inner_->Train(trace, train_minutes);
  }
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override {
    inner_->OnMinute(t, arrivals, mem);
  }
  [[nodiscard]] int dense_minutes() const { return dense_minutes_; }

 private:
  std::unique_ptr<Policy> inner_;
  int dense_minutes_ = -1;
};

TEST(NeedDrivenTrainingTest, DenseDecoratorsSeeTheTrainingPrefix) {
  const Trace trace = Fleets()[2].trace;
  std::unique_ptr<TraceFileSource> file = Pack(trace, 256);
  SimOptions options;
  options.train_minutes = TrainMinutes(trace);
  for (const char* spec :
       {"spes", "defuse", "hybrid_histogram{granularity=application}",
        "fixed_keepalive"}) {
    DenseDecorator decorated(Create(spec));
    const SimulationOutcome wrapped =
        SimStream::Create(*file, &decorated, options)
            .ValueOrDie()
            .Finish()
            .ValueOrDie();
    // The default window Train() materialized exactly the training
    // minutes for the decorator.
    EXPECT_EQ(decorated.dense_minutes(), options.train_minutes) << spec;

    std::unique_ptr<Policy> bare = Create(spec);
    const SimulationOutcome direct =
        SimStream::Create(*file, bare.get(), options)
            .ValueOrDie()
            .Finish()
            .ValueOrDie();
    EXPECT_EQ(wrapped.memory_series, direct.memory_series) << spec;
    EXPECT_EQ(wrapped.metrics.total_cold_starts,
              direct.metrics.total_cold_starts)
        << spec;
  }
}

uint64_t SeriesHash(const std::vector<uint32_t>& series) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (uint32_t v : series) {
    h ^= v;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(NeedDrivenTrainingTest, BaselinesTrainToTheirDenseOutcomes) {
  // Outcomes recorded when hybrid_histogram and Defuse trained by scanning
  // a dense Trace (O(units x minutes)); training from the window's slots
  // must reproduce them exactly: cold starts, wasted and loaded
  // instance-minutes, and an FNV-1a hash of the memory series.
  struct Pin {
    size_t fleet;
    const char* spec;
    uint64_t cold, wasted, loaded, series;
  };
  const Pin pins[] = {
      {0, "hybrid_histogram", 737, 68812, 195476, 9782187887636798273ull},
      {0, "hybrid_histogram{granularity=application}", 334, 186997, 313661,
       16453766594577731562ull},
      {0, "defuse", 465, 92432, 219096, 6798147307436236789ull},
      {1, "hybrid_histogram", 829, 32319, 81837, 8408596309678780406ull},
      {1, "hybrid_histogram{granularity=application}", 293, 373000, 422518,
       15833180407366332473ull},
      {1, "defuse", 699, 32333, 81851, 16667783470180156228ull},
      {2, "hybrid_histogram", 652, 134740, 262083, 7801791099703650452ull},
      {2, "hybrid_histogram{granularity=application}", 205, 255415, 382758,
       9013539850904780171ull},
      {2, "defuse", 357, 153964, 281307, 11904526889197338580ull},
  };
  const std::vector<Fleet> fleets = Fleets();
  for (const Pin& pin : pins) {
    const Trace& trace = fleets[pin.fleet].trace;
    SimOptions options;
    options.train_minutes = TrainMinutes(trace);
    std::unique_ptr<Policy> policy = Create(pin.spec);
    const SimulationOutcome outcome =
        Simulate(trace, policy.get(), options).ValueOrDie();
    const std::string context =
        fleets[pin.fleet].label + " " + std::string(pin.spec);
    EXPECT_EQ(outcome.metrics.total_cold_starts, pin.cold) << context;
    EXPECT_EQ(outcome.metrics.wasted_memory_minutes, pin.wasted) << context;
    EXPECT_EQ(outcome.metrics.loaded_instance_minutes, pin.loaded) << context;
    EXPECT_EQ(SeriesHash(outcome.memory_series), pin.series) << context;
  }
}

}  // namespace
}  // namespace spes
