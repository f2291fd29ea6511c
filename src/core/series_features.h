// Waiting-time / active-time / active-number extraction (§IV definitions).
//
// Given a per-slot invocation-count sequence, SPES derives
//   WT — lengths of idle runs strictly between two invoked slots,
//   AT — lengths of maximal invoked runs,
//   AN — total invocations within each active run.
// The paper's worked example: (28,0,12,1,0,0,0,7) yields WT=(1,3),
// AT=(1,2,1), AN=(28,13,7). Leading idle slots (before the first
// invocation) and the trailing idle run (not yet terminated by an arrival)
// are NOT waiting times.
//
// The features read either a dense count row or a function's sparse
// arrival slots (trace/training_window.h). The slot form costs what the
// function's invoked minutes cost, not the window length: training walks
// every function of a mostly idle fleet, so it reads the slots.

#ifndef SPES_CORE_SERIES_FEATURES_H_
#define SPES_CORE_SERIES_FEATURES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "trace/training_window.h"

namespace spes {

/// \brief WT/AT/AN triple of an invocation-count sequence.
struct SeriesFeatures {
  std::vector<int64_t> wts;  ///< waiting times (idle-run lengths)
  std::vector<int64_t> ats;  ///< active times (invoked-run lengths)
  std::vector<int64_t> ans;  ///< active numbers (arrivals per active run)

  /// Slots with at least one arrival.
  int64_t active_slots = 0;
  /// Total arrivals over the sequence.
  uint64_t total_invocations = 0;
  /// Index of the first invoked slot, -1 when never invoked.
  int64_t first_invoked = -1;
  /// Index of the last invoked slot, -1 when never invoked.
  int64_t last_invoked = -1;
};

/// \brief Extracts WT/AT/AN and summary counters from `counts`.
SeriesFeatures ExtractSeriesFeatures(std::span<const uint32_t> counts);

/// \brief ExtractSeriesFeatures() of the dense row `slots` expand to,
/// restricted to minutes [begin, ...) and rebased so `begin` is index 0 (the
/// suffix a forgetting retry sees). Reads only the slots at or past
/// `begin`: O(log |slots| + slots read). `slots` must be in ascending
/// minute order with counts >= 1, as TrainingWindow::slots() gives them.
SeriesFeatures SlotSeriesFeatures(std::span<const ArrivalSlot> slots,
                                  int begin = 0);

/// \brief Slot indices with at least one arrival (ascending).
std::vector<int> InvokedSlots(std::span<const uint32_t> counts);

}  // namespace spes

#endif  // SPES_CORE_SERIES_FEATURES_H_
