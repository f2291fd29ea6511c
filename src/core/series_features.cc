#include "core/series_features.h"

#include <algorithm>

namespace spes {

SeriesFeatures ExtractSeriesFeatures(std::span<const uint32_t> counts) {
  SeriesFeatures out;
  int64_t idle_run = 0;
  int64_t active_run = 0;
  int64_t active_sum = 0;
  bool seen_invocation = false;

  for (size_t t = 0; t < counts.size(); ++t) {
    const uint32_t c = counts[t];
    if (c > 0) {
      if (seen_invocation && idle_run > 0) {
        // An idle run terminated by this arrival is a completed WT.
        out.wts.push_back(idle_run);
      }
      idle_run = 0;
      ++active_run;
      active_sum += c;
      ++out.active_slots;
      out.total_invocations += c;
      if (out.first_invoked < 0) out.first_invoked = static_cast<int64_t>(t);
      out.last_invoked = static_cast<int64_t>(t);
      seen_invocation = true;
    } else {
      if (active_run > 0) {
        out.ats.push_back(active_run);
        out.ans.push_back(active_sum);
        active_run = 0;
        active_sum = 0;
      }
      if (seen_invocation) ++idle_run;
    }
  }
  if (active_run > 0) {
    out.ats.push_back(active_run);
    out.ans.push_back(active_sum);
  }
  return out;
}

SeriesFeatures SlotSeriesFeatures(std::span<const ArrivalSlot> slots,
                                  int begin) {
  SeriesFeatures out;
  auto it = std::lower_bound(
      slots.begin(), slots.end(), begin,
      [](const ArrivalSlot& slot, int minute) { return slot.minute < minute; });
  int64_t previous = -1;
  int64_t active_run = 0;
  int64_t active_sum = 0;
  for (; it != slots.end(); ++it) {
    const int64_t t = it->minute - begin;
    if (previous >= 0 && t > previous + 1) {
      // A gap closes the active run and is itself a completed WT.
      out.ats.push_back(active_run);
      out.ans.push_back(active_sum);
      out.wts.push_back(t - previous - 1);
      active_run = 0;
      active_sum = 0;
    }
    ++active_run;
    active_sum += it->count;
    ++out.active_slots;
    out.total_invocations += it->count;
    if (out.first_invoked < 0) out.first_invoked = t;
    out.last_invoked = t;
    previous = t;
  }
  if (active_run > 0) {
    out.ats.push_back(active_run);
    out.ans.push_back(active_sum);
  }
  return out;
}

std::vector<int> InvokedSlots(std::span<const uint32_t> counts) {
  std::vector<int> slots;
  for (size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] > 0) slots.push_back(static_cast<int>(t));
  }
  return slots;
}

}  // namespace spes
