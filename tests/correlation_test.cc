#include "core/correlation.h"

#include <gtest/gtest.h>

#include <vector>

namespace spes {
namespace {

std::vector<uint32_t> Seq(std::initializer_list<uint32_t> xs) { return xs; }

/// The arrival slots of a dense row, as TrainingWindow::slots() holds them.
std::vector<ArrivalSlot> SlotsOf(const std::vector<uint32_t>& counts) {
  std::vector<ArrivalSlot> slots;
  for (size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] > 0) slots.push_back({static_cast<int32_t>(t), counts[t]});
  }
  return slots;
}

TEST(CorTest, IdenticalSeriesHaveCorOne) {
  const auto a = Seq({1, 0, 1, 0, 1});
  EXPECT_DOUBLE_EQ(CoOccurrenceRate(a, a), 1.0);
}

TEST(CorTest, DisjointSeriesHaveCorZero) {
  const auto target = Seq({1, 0, 1, 0});
  const auto candidate = Seq({0, 1, 0, 1});
  EXPECT_DOUBLE_EQ(CoOccurrenceRate(target, candidate), 0.0);
}

TEST(CorTest, PartialOverlap) {
  const auto target = Seq({1, 1, 1, 1});
  const auto candidate = Seq({1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(CoOccurrenceRate(target, candidate), 0.5);
}

TEST(CorTest, NeverInvokedTargetIsZero) {
  const auto target = Seq({0, 0, 0});
  const auto candidate = Seq({1, 1, 1});
  EXPECT_DOUBLE_EQ(CoOccurrenceRate(target, candidate), 0.0);
}

TEST(CorTest, AsymmetricDefinition) {
  // COR is normalized by the *target's* invocations, so it is asymmetric.
  const auto busy = Seq({1, 1, 1, 1});
  const auto rare = Seq({1, 0, 0, 0});
  EXPECT_DOUBLE_EQ(CoOccurrenceRate(rare, busy), 1.0);
  EXPECT_DOUBLE_EQ(CoOccurrenceRate(busy, rare), 0.25);
}

TEST(LaggedCorTest, ExactLagDetected) {
  // Candidate fires at t, target at t+3.
  std::vector<uint32_t> candidate(50, 0), target(50, 0);
  for (int t = 0; t < 40; t += 10) {
    candidate[static_cast<size_t>(t)] = 1;
    target[static_cast<size_t>(t + 3)] = 1;
  }
  EXPECT_DOUBLE_EQ(LaggedCoOccurrenceRate(target, candidate, 3), 1.0);
  EXPECT_DOUBLE_EQ(LaggedCoOccurrenceRate(target, candidate, 0), 0.0);
}

TEST(LaggedCorTest, NegativeLagTreatedAsZero) {
  const auto a = Seq({1, 1});
  EXPECT_DOUBLE_EQ(LaggedCoOccurrenceRate(a, a, -5),
                   LaggedCoOccurrenceRate(a, a, 0));
}

TEST(BestLaggedCorTest, FindsBestLag) {
  std::vector<uint32_t> candidate(100, 0), target(100, 0);
  for (int t = 0; t < 90; t += 9) {
    candidate[static_cast<size_t>(t)] = 1;
    target[static_cast<size_t>(t + 4)] = 1;
  }
  const BestLag best = BestLaggedCor(target, candidate, 10);
  EXPECT_EQ(best.lag, 4);
  EXPECT_DOUBLE_EQ(best.cor, 1.0);
}

TEST(BestLaggedCorTest, SlotsVariantMatchesSeriesVariant) {
  std::vector<uint32_t> candidate(200, 0), target(200, 0);
  for (int t = 5; t < 200; t += 17) {
    candidate[static_cast<size_t>(t - 5)] = 2;
    if (t % 2 == 0) target[static_cast<size_t>(t)] = 1;
  }
  const BestLag a = BestLaggedCor(target, candidate, 10);
  const BestLag b =
      BestLaggedCorFromSlots(SlotsOf(target), SlotsOf(candidate), 10);
  EXPECT_EQ(a.lag, b.lag);
  EXPECT_DOUBLE_EQ(a.cor, b.cor);
}

TEST(BestLaggedCorTest, EmptyTargetSlots) {
  const auto candidate = Seq({1, 1, 1});
  const BestLag best = BestLaggedCorFromSlots({}, SlotsOf(candidate), 10);
  EXPECT_DOUBLE_EQ(best.cor, 0.0);
}

class LagSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LagSweepTest, RecoversInjectedLag) {
  const int lag = GetParam();
  std::vector<uint32_t> candidate(300, 0), target(300, 0);
  for (int t = 0; t + lag < 300; t += 23) {
    candidate[static_cast<size_t>(t)] = 1;
    target[static_cast<size_t>(t + lag)] = 1;
  }
  const BestLag best =
      BestLaggedCorFromSlots(SlotsOf(target), SlotsOf(candidate), 10);
  EXPECT_EQ(best.lag, lag);
  EXPECT_DOUBLE_EQ(best.cor, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LagSweepTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 10));

}  // namespace
}  // namespace spes
