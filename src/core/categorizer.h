// Deterministic function categorization (§IV-A) with the "forgetting"
// adaptive strategy (§IV-B1), producing per-function predictive models.
//
// Categorization follows Table I's priority: always-warm, then regular
// (with slacking), appro-regular, dense, successive. A function matching an
// earlier type never reaches a later one. Functions matching none are
// handed to the indeterminate assignment (validation.h).

#ifndef SPES_CORE_CATEGORIZER_H_
#define SPES_CORE_CATEGORIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/series_features.h"
#include "core/types.h"

namespace spes {

/// \brief Per-function predictive model: the type plus the values used to
/// predict the next invocation (§IV-D).
struct PredictiveModel {
  FunctionType type = FunctionType::kUnknown;

  /// Discrete predictive WT values:
  ///   regular       -> { median(WT) }
  ///   appro-regular -> first n WT modes
  ///   possible      -> WT values occurring more than once
  std::vector<int64_t> values;

  /// Continuous predictive interval (dense: range of the first k WT modes;
  /// possible with a narrow value range). Valid when `continuous` is true.
  int64_t range_lo = 0;
  int64_t range_hi = 0;
  bool continuous = false;

  /// Dispersion of the offline WTs (the adjusting strategy's drift gate).
  double offline_wt_stddev = 0.0;

  /// Minutes of history the model was fit on after forgetting trimmed the
  /// prefix (0 = full window used).
  int forgotten_prefix_minutes = 0;
};

/// \brief Tests the Table I "regular" rule (before slacking) on a WT set.
bool WtsLookRegular(const std::vector<int64_t>& wts, const SpesConfig& config);

/// \brief Full regular test: raw WTs, then boundary-trimmed, then merged.
///
/// On success, *regular_wts receives the WT sequence variant that passed
/// (used to fit the median predictive value).
bool PassesRegularWithSlacking(const std::vector<int64_t>& wts,
                               const SpesConfig& config,
                               std::vector<int64_t>* regular_wts);

/// \brief Deterministic categorization of one function from its features
/// over a window of `window_minutes` (the always-warm idle bound reads the
/// window length). Returns a model with type kUnknown when no deterministic
/// type matches.
PredictiveModel CategorizeDeterministic(const SeriesFeatures& features,
                                        int64_t window_minutes,
                                        const SpesConfig& config);

/// \brief CategorizeDeterministic() of a dense count sequence.
PredictiveModel CategorizeDeterministic(std::span<const uint32_t> counts,
                                        const SpesConfig& config);

/// \brief The forgetting retries alone (§IV-B1): categorizes the suffixes
/// of a `window_minutes` window that drop whole days from the front, one
/// more day at a time down to half the window, and returns the first
/// (most-history) success with forgotten_prefix_minutes set; kUnknown when
/// no suffix categorizes. Reads only `slots` (ascending minutes within the
/// window). The caller gates on config.enable_forgetting.
PredictiveModel CategorizeAfterForgetting(std::span<const ArrivalSlot> slots,
                                          int window_minutes,
                                          const SpesConfig& config);

/// \brief Deterministic categorization of a dense count sequence with
/// forgetting: the whole window first, then (when enable_forgetting) the
/// CategorizeAfterForgetting() suffixes.
PredictiveModel CategorizeWithForgetting(std::span<const uint32_t> counts,
                                         const SpesConfig& config);

/// \brief Fits the "possible" predictive values (repeated WTs) if any;
/// returns a kUnknown model when the WT multiset has no repeats.
PredictiveModel FitPossibleModel(const std::vector<int64_t>& wts,
                                 const SpesConfig& config);

}  // namespace spes

#endif  // SPES_CORE_CATEGORIZER_H_
