#include "core/correlation.h"

#include <algorithm>

namespace spes {

double CoOccurrenceRate(std::span<const uint32_t> target,
                        std::span<const uint32_t> candidate) {
  return LaggedCoOccurrenceRate(target, candidate, 0);
}

double LaggedCoOccurrenceRate(std::span<const uint32_t> target,
                              std::span<const uint32_t> candidate, int lag) {
  if (lag < 0) lag = 0;
  int64_t invoked = 0, co = 0;
  const size_t n = std::min(target.size(), candidate.size());
  for (size_t t = 0; t < n; ++t) {
    if (target[t] == 0) continue;
    ++invoked;
    if (t >= static_cast<size_t>(lag) && candidate[t - lag] > 0) ++co;
  }
  if (invoked == 0) return 0.0;
  return static_cast<double>(co) / static_cast<double>(invoked);
}

BestLag BestLaggedCor(std::span<const uint32_t> target,
                      std::span<const uint32_t> candidate, int max_lag) {
  BestLag best;
  for (int lag = 0; lag <= max_lag; ++lag) {
    const double cor = LaggedCoOccurrenceRate(target, candidate, lag);
    if (cor > best.cor) {
      best.cor = cor;
      best.lag = lag;
    }
  }
  return best;
}

BestLag BestLaggedCorFromSlots(std::span<const ArrivalSlot> target,
                               std::span<const ArrivalSlot> candidate,
                               int max_lag) {
  BestLag best;
  if (target.empty() || max_lag < 0) return best;
  // co[lag] = target slots t with a candidate slot at t - lag. The window
  // [t - max_lag, t] of candidate slots only moves forward with t.
  std::vector<int64_t> co(static_cast<size_t>(max_lag) + 1, 0);
  size_t first = 0;
  for (const ArrivalSlot& t : target) {
    while (first < candidate.size() &&
           candidate[first].minute < t.minute - max_lag) {
      ++first;
    }
    for (size_t c = first;
         c < candidate.size() && candidate[c].minute <= t.minute; ++c) {
      ++co[static_cast<size_t>(t.minute - candidate[c].minute)];
    }
  }
  const double denom = static_cast<double>(target.size());
  for (int lag = 0; lag <= max_lag; ++lag) {
    const double cor =
        static_cast<double>(co[static_cast<size_t>(lag)]) / denom;
    if (cor > best.cor) {
      best.cor = cor;
      best.lag = lag;
    }
  }
  return best;
}

double LinkPrecision(std::span<const ArrivalSlot> target,
                     std::span<const ArrivalSlot> candidate, int lag,
                     int theta) {
  if (candidate.empty()) return 0.0;
  const int64_t lo = std::max(0, lag - theta);
  const int64_t hi = static_cast<int64_t>(lag) + theta;
  int64_t followed = 0;
  // The first target slot at or past s + lo only moves forward with s.
  size_t next = 0;
  for (const ArrivalSlot& s : candidate) {
    while (next < target.size() && target[next].minute < s.minute + lo) {
      ++next;
    }
    if (next < target.size() && target[next].minute <= s.minute + hi) {
      ++followed;
    }
  }
  return static_cast<double>(followed) /
         static_cast<double>(candidate.size());
}

}  // namespace spes
