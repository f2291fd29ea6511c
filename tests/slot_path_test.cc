// Property tests for SPES's slot-form training path: the WT/AT/AN features,
// the Table I categorization, the forgetting retries, the lagged COR and
// the link precision read a function's sparse arrival slots, and each must
// equal its dense counterpart on the expanded row, bit for bit. Thousands
// of seeded random rows cover sparse, periodic, dense, bursty and
// near-always-warm shapes, rows whose early days differ from the rest (so
// forgetting has something to recover), the empty and all-active rows,
// slots at the first and the last minute, and every forgetting offset.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/categorizer.h"
#include "core/correlation.h"
#include "core/series_features.h"
#include "tests/reference_spes_policy.h"
#include "trace/trace.h"

namespace spes {
namespace {

constexpr int kRows = 3000;

std::vector<ArrivalSlot> SlotsOf(std::span<const uint32_t> row) {
  std::vector<ArrivalSlot> slots;
  for (size_t t = 0; t < row.size(); ++t) {
    if (row[t] > 0) slots.push_back({static_cast<int32_t>(t), row[t]});
  }
  return slots;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Fills minutes [begin, end) of `row` with one random shape.
void FillShape(Rng& rng, int begin, int end, std::vector<uint32_t>* row) {
  auto count = [&] {
    // Now and then a count near the uint32 limit, to check the sums.
    return rng.Bernoulli(0.01) ? 4'000'000'000u
                               : static_cast<uint32_t>(rng.UniformInt(1, 5));
  };
  auto at = [&](int t) -> uint32_t& { return (*row)[static_cast<size_t>(t)]; };
  switch (rng.UniformInt(0, 6)) {
    case 0:  // idle
      break;
    case 1: {  // sparse random
      const double p = rng.UniformDouble(0.0005, 0.05);
      for (int t = begin; t < end; ++t) {
        if (rng.Bernoulli(p)) at(t) = count();
      }
      break;
    }
    case 2: {  // periodic, possibly jittered
      const int period = static_cast<int>(rng.UniformInt(2, 400));
      const int jitter = static_cast<int>(rng.UniformInt(0, 2));
      for (int t = begin + static_cast<int>(rng.UniformInt(0, period - 1));
           t < end; t += period) {
        const int u = t + static_cast<int>(rng.UniformInt(-jitter, jitter));
        if (u >= begin && u < end) at(u) = count();
      }
      break;
    }
    case 3: {  // dense
      const double p = rng.UniformDouble(0.5, 1.0);
      for (int t = begin; t < end; ++t) {
        if (rng.Bernoulli(p)) at(t) = count();
      }
      break;
    }
    case 4: {  // bursts of successive minutes
      int t = begin + static_cast<int>(rng.UniformInt(0, 300));
      while (t < end) {
        const int len = static_cast<int>(rng.UniformInt(1, 12));
        for (int u = t; u < t + len && u < end; ++u) {
          at(u) = static_cast<uint32_t>(rng.UniformInt(1, 20));
        }
        t += len + static_cast<int>(rng.UniformInt(1, 300));
      }
      break;
    }
    case 5: {  // near always-warm: a few idle minutes
      for (int t = begin; t < end; ++t) at(t) = count();
      const int holes = static_cast<int>(rng.UniformInt(0, 4));
      for (int h = 0; h < holes && end > begin; ++h) {
        at(static_cast<int>(rng.UniformInt(begin, end - 1))) = 0;
      }
      break;
    }
    default: {  // all active
      for (int t = begin; t < end; ++t) at(t) = count();
      break;
    }
  }
}

/// A random row: one shape, and half the time a different shape over a
/// whole-day prefix, which forgetting can drop.
std::vector<uint32_t> RandomRow(Rng& rng) {
  // The window lengths the diff tests train on, a few tiny rows, and
  // lengths that are not whole days.
  static constexpr std::array<int, 9> kLengths = {0,    1,    2,    1440, 2880,
                                                  3000, 4320, 5760, 7200};
  const int pick = static_cast<int>(rng.UniformInt(0, kLengths.size() + 1));
  int length = static_cast<int>(rng.UniformInt(1441, 7200));
  if (pick < static_cast<int>(kLengths.size())) {
    length = kLengths[static_cast<size_t>(pick)];
  } else if (pick == static_cast<int>(kLengths.size())) {
    length = static_cast<int>(rng.UniformInt(3, 200));
  }
  std::vector<uint32_t> row(static_cast<size_t>(length), 0);
  const int days = length / kMinutesPerDay;
  const int prefix =
      days >= 2 && rng.Bernoulli(0.5)
          ? static_cast<int>(rng.UniformInt(1, days - 1)) * kMinutesPerDay
          : 0;
  FillShape(rng, 0, prefix, &row);
  FillShape(rng, prefix, length, &row);
  return row;
}

void ExpectSameFeatures(const SeriesFeatures& got,
                        const SeriesFeatures& want,
                        const std::string& context) {
  EXPECT_EQ(got.wts, want.wts) << context;
  EXPECT_EQ(got.ats, want.ats) << context;
  EXPECT_EQ(got.ans, want.ans) << context;
  EXPECT_EQ(got.active_slots, want.active_slots) << context;
  EXPECT_EQ(got.total_invocations, want.total_invocations) << context;
  EXPECT_EQ(got.first_invoked, want.first_invoked) << context;
  EXPECT_EQ(got.last_invoked, want.last_invoked) << context;
}

void ExpectSameModel(const PredictiveModel& got, const PredictiveModel& want,
                     const std::string& context) {
  EXPECT_EQ(got.type, want.type) << context;
  EXPECT_EQ(got.values, want.values) << context;
  EXPECT_EQ(got.range_lo, want.range_lo) << context;
  EXPECT_EQ(got.range_hi, want.range_hi) << context;
  EXPECT_EQ(got.continuous, want.continuous) << context;
  EXPECT_EQ(Bits(got.offline_wt_stddev), Bits(want.offline_wt_stddev))
      << context;
  EXPECT_EQ(got.forgotten_prefix_minutes, want.forgotten_prefix_minutes)
      << context;
}

/// Features of `row` from minute `begin`, both ways.
void ExpectFeaturesMatch(const std::vector<uint32_t>& row, int begin,
                         const std::string& context) {
  const std::vector<ArrivalSlot> slots = SlotsOf(row);
  ExpectSameFeatures(
      SlotSeriesFeatures(slots, begin),
      ExtractSeriesFeatures(std::span<const uint32_t>(row).subspan(
          static_cast<size_t>(begin))),
      context + " begin=" + std::to_string(begin));
}

TEST(SlotPathTest, FeaturesOfEdgeRowsMatchDense) {
  ExpectFeaturesMatch({}, 0, "empty");
  std::vector<uint32_t> row(2880, 0);
  ExpectFeaturesMatch(row, 0, "idle");
  row[0] = 3;
  ExpectFeaturesMatch(row, 0, "single slot at 0");
  ExpectFeaturesMatch(row, 1, "single slot before begin");
  row[0] = 0;
  row[2879] = 1;
  ExpectFeaturesMatch(row, 0, "single slot at the last minute");
  ExpectFeaturesMatch(row, 1440, "single slot at the last minute");
  row[0] = 2;
  ExpectFeaturesMatch(row, 0, "slots at 0 and the last minute");
  ExpectFeaturesMatch(row, 2879, "begin at the last minute");
  ExpectFeaturesMatch(row, 2880, "begin at the end");
  const std::vector<uint32_t> all(2880, 4'000'000'000u);
  ExpectFeaturesMatch(all, 0, "all active");
  ExpectFeaturesMatch(all, 1440, "all active");
}

TEST(SlotPathTest, FeaturesOfRandomRowsMatchDenseAtEveryForgettingOffset) {
  Rng rng(17);
  for (int i = 0; i < kRows; ++i) {
    const std::vector<uint32_t> row = RandomRow(rng);
    const int length = static_cast<int>(row.size());
    const std::string context = "row " + std::to_string(i);
    ExpectFeaturesMatch(row, 0, context);
    for (int begin = kMinutesPerDay; begin < length; begin += kMinutesPerDay) {
      ExpectFeaturesMatch(row, begin, context);
    }
    ExpectFeaturesMatch(row, static_cast<int>(rng.UniformInt(0, length)),
                        context);
    if (HasFailure()) return;
  }
}

TEST(SlotPathTest, CategorizationFromSlotsMatchesDense) {
  std::array<int, kNumFunctionTypes> by_type{};
  int forgotten = 0;
  Rng rng(23);
  for (int i = 0; i < kRows; ++i) {
    const std::vector<uint32_t> row = RandomRow(rng);
    const std::vector<ArrivalSlot> slots = SlotsOf(row);
    const int length = static_cast<int>(row.size());
    for (const bool forgetting : {true, false}) {
      SpesConfig config;
      config.enable_forgetting = forgetting;
      const std::string context = "row " + std::to_string(i) +
                                  (forgetting ? " forgetting" : "");
      // What SpesPolicy::Train does with the window's slots.
      PredictiveModel model =
          CategorizeDeterministic(SlotSeriesFeatures(slots), length, config);
      ExpectSameModel(model, CategorizeDeterministic(row, config), context);
      if (model.type == FunctionType::kUnknown && forgetting) {
        PredictiveModel recovered =
            CategorizeAfterForgetting(slots, length, config);
        if (recovered.type != FunctionType::kUnknown) {
          model = recovered;
          ++forgotten;
        }
      }
      const PredictiveModel dense =
          ReferenceCategorizeWithForgetting(row, config);
      ExpectSameModel(model, dense, context);
      ExpectSameModel(CategorizeWithForgetting(row, config), dense, context);
      ++by_type[static_cast<size_t>(model.type)];
    }
    if (HasFailure()) return;
  }
  // The rows reach every deterministic type and the forgetting recovery.
  for (const FunctionType type :
       {FunctionType::kUnknown, FunctionType::kAlwaysWarm,
        FunctionType::kRegular, FunctionType::kApproRegular,
        FunctionType::kDense, FunctionType::kSuccessive}) {
    EXPECT_GT(by_type[static_cast<size_t>(type)], 0)
        << FunctionTypeToString(type);
  }
  EXPECT_GT(forgotten, 20);
}

/// A candidate row for `target`: either independent, or the target moved
/// `shift` minutes earlier with some arrivals dropped and some added.
std::vector<uint32_t> CandidateFor(Rng& rng,
                                   const std::vector<uint32_t>& target) {
  if (rng.Bernoulli(0.3)) {
    std::vector<uint32_t> row(target.size(), 0);
    FillShape(rng, 0, static_cast<int>(row.size()), &row);
    return row;
  }
  const int shift = static_cast<int>(rng.UniformInt(0, 12));
  std::vector<uint32_t> row(target.size(), 0);
  for (size_t t = static_cast<size_t>(shift); t < target.size(); ++t) {
    if (target[t] > 0 && !rng.Bernoulli(0.2)) row[t - shift] = target[t];
  }
  for (size_t t = 0; t < row.size(); ++t) {
    if (rng.Bernoulli(0.002)) row[t] = 1;
  }
  return row;
}

TEST(SlotPathTest, LaggedCorAndPrecisionFromSlotsMatchDense) {
  const SpesConfig defaults;
  int linked = 0;
  Rng rng(29);
  for (int i = 0; i < kRows; ++i) {
    const std::vector<uint32_t> target = RandomRow(rng);
    const std::vector<uint32_t> candidate = CandidateFor(rng, target);
    const std::vector<ArrivalSlot> target_slots = SlotsOf(target);
    const std::vector<ArrivalSlot> candidate_slots = SlotsOf(candidate);
    for (int max_lag = 0; max_lag <= defaults.tcor_max_lag; ++max_lag) {
      const BestLag got =
          BestLaggedCorFromSlots(target_slots, candidate_slots, max_lag);
      const BestLag want = BestLaggedCor(target, candidate, max_lag);
      EXPECT_EQ(got.lag, want.lag) << "row " << i << " max_lag " << max_lag;
      EXPECT_EQ(Bits(got.cor), Bits(want.cor))
          << "row " << i << " max_lag " << max_lag;
      if (max_lag == defaults.tcor_max_lag &&
          got.cor >= defaults.tcor_threshold) {
        ++linked;
      }
    }
    for (int lag = 0; lag <= defaults.tcor_max_lag; ++lag) {
      for (const int theta : {0, 1, 2, 5}) {
        EXPECT_EQ(Bits(LinkPrecision(target_slots, candidate_slots, lag,
                                     theta)),
                  Bits(ReferenceLinkPrecision(target, candidate, lag, theta)))
            << "row " << i << " lag " << lag << " theta " << theta;
      }
    }
    if (HasFailure()) return;
  }
  // Most shifted candidates correlate: the link path is exercised.
  EXPECT_GT(linked, kRows / 4);
}

}  // namespace
}  // namespace spes
