#include "core/categorizer.h"

#include <algorithm>

#include "common/stats.h"
#include "core/slacking.h"
#include "trace/trace.h"

namespace spes {

bool WtsLookRegular(const std::vector<int64_t>& wts,
                    const SpesConfig& config) {
  if (wts.empty()) return false;
  const double band =
      Percentile(wts, 95.0) - Percentile(wts, 5.0);
  if (band <= config.regular_percentile_band) return true;
  return CoefficientOfVariation(wts) <= config.regular_cv_max;
}

bool PassesRegularWithSlacking(const std::vector<int64_t>& wts,
                               const SpesConfig& config,
                               std::vector<int64_t>* regular_wts) {
  if (static_cast<int>(wts.size()) < config.min_wts_for_regular) return false;
  if (WtsLookRegular(wts, config)) {
    if (regular_wts != nullptr) *regular_wts = wts;
    return true;
  }
  // Slack 1: the boundary WTs of an observation window are unreliable.
  const std::vector<int64_t> trimmed = TrimBoundaryWts(wts);
  if (static_cast<int>(trimmed.size()) >= config.min_wts_for_regular &&
      WtsLookRegular(trimmed, config)) {
    if (regular_wts != nullptr) *regular_wts = trimmed;
    return true;
  }
  // Slack 2: merge fragmented gaps back into mode-sized WTs.
  const std::vector<int64_t> merged = MergeAdjacentSmallWts(wts);
  if (static_cast<int>(merged.size()) >= config.min_wts_for_regular &&
      merged.size() < wts.size() && WtsLookRegular(merged, config)) {
    if (regular_wts != nullptr) *regular_wts = merged;
    return true;
  }
  // Slack 3: both together — a horizon-truncated boundary fragment can
  // survive merging (nothing to complete it), so trim the merged sequence.
  const std::vector<int64_t> merged_trimmed = TrimBoundaryWts(merged);
  if (static_cast<int>(merged_trimmed.size()) >= config.min_wts_for_regular &&
      merged.size() < wts.size() && WtsLookRegular(merged_trimmed, config)) {
    if (regular_wts != nullptr) *regular_wts = merged_trimmed;
    return true;
  }
  return false;
}

namespace {

/// Table I row 1: invoked at every slot, or total idle time at most
/// a thousandth of the observing window.
bool IsAlwaysWarm(const SeriesFeatures& features, int64_t window,
                  const SpesConfig& config) {
  if (features.total_invocations == 0 || window <= 0) return false;
  const int64_t idle = window - features.active_slots;
  return idle * config.always_warm_idle_divisor <= window;
}

bool IsApproRegular(const std::vector<int64_t>& wts, const SpesConfig& config,
                    std::vector<int64_t>* mode_values) {
  if (static_cast<int>(wts.size()) < config.min_wts_for_regular) return false;
  const std::vector<ModeEntry> modes = TopModes(wts, config.appro_num_modes);
  // Quasi-periodicity implies a *period*: when the dominant gap is within
  // the dense constant, the function is frequent-irregular traffic, which
  // the dense type (next in priority) captures with a cheaper strategy.
  if (static_cast<double>(modes.front().value) <= config.dense_p90_max) {
    return false;
  }
  // A "frequently appearing value" must appear more than once: singleton
  // WTs carry no quasi-periodic evidence.
  int64_t covered = 0;
  for (const ModeEntry& m : modes) {
    if (m.count >= 2) covered += m.count;
  }
  if (static_cast<double>(covered) <
      config.appro_coverage * static_cast<double>(wts.size())) {
    return false;
  }
  if (mode_values != nullptr) {
    mode_values->clear();
    for (const ModeEntry& m : modes) {
      if (m.count >= 2) mode_values->push_back(m.value);
    }
  }
  return true;
}

bool IsDense(const std::vector<int64_t>& wts, const SpesConfig& config) {
  if (wts.empty()) return false;
  return Percentile(wts, 90.0) <= config.dense_p90_max;
}

bool IsSuccessive(const SeriesFeatures& features, const SpesConfig& config) {
  if (static_cast<int>(features.ats.size()) < config.successive_min_waves) {
    return false;
  }
  const int64_t min_at =
      *std::min_element(features.ats.begin(), features.ats.end());
  const int64_t min_an =
      *std::min_element(features.ans.begin(), features.ans.end());
  return min_at >= config.successive_gamma1 &&
         min_an >= config.successive_gamma2;
}

}  // namespace

PredictiveModel FitPossibleModel(const std::vector<int64_t>& wts,
                                 const SpesConfig& config) {
  PredictiveModel model;
  const std::vector<ModeEntry> repeated = RepeatedValues(wts);
  if (repeated.empty()) return model;  // kUnknown
  model.type = FunctionType::kPossible;
  for (const ModeEntry& m : repeated) {
    if (static_cast<int>(model.values.size()) >= config.possible_max_values) {
      break;
    }
    model.values.push_back(m.value);
  }
  // §IV-D: a narrow value range is treated as a continuous interval.
  const auto [lo_it, hi_it] =
      std::minmax_element(model.values.begin(), model.values.end());
  if (*hi_it - *lo_it <= config.possible_range_discrete_threshold &&
      model.values.size() > 1) {
    model.continuous = true;
    model.range_lo = *lo_it;
    model.range_hi = *hi_it;
  }
  model.offline_wt_stddev = StdDev(wts);
  return model;
}

PredictiveModel CategorizeDeterministic(const SeriesFeatures& features,
                                        int64_t window_minutes,
                                        const SpesConfig& config) {
  PredictiveModel model;
  if (features.total_invocations == 0) return model;  // kUnknown

  model.offline_wt_stddev = StdDev(features.wts);

  // Priority 1: always warm (no predictive values needed).
  if (IsAlwaysWarm(features, window_minutes, config)) {
    model.type = FunctionType::kAlwaysWarm;
    return model;
  }

  // Priority 2: regular (raw -> trimmed -> merged).
  std::vector<int64_t> regular_wts;
  if (PassesRegularWithSlacking(features.wts, config, &regular_wts)) {
    model.type = FunctionType::kRegular;
    model.values = {static_cast<int64_t>(Median(regular_wts) + 0.5)};
    model.offline_wt_stddev = StdDev(regular_wts);
    return model;
  }

  // Priority 3: appro-regular (top-n modes dominate the WT sequence).
  std::vector<int64_t> mode_values;
  if (IsApproRegular(features.wts, config, &mode_values)) {
    model.type = FunctionType::kApproRegular;
    model.values = std::move(mode_values);
    return model;
  }

  // Priority 4: dense (P90 of WTs below the small constant).
  if (IsDense(features.wts, config)) {
    model.type = FunctionType::kDense;
    const std::vector<ModeEntry> modes =
        TopModes(features.wts, config.dense_num_modes);
    int64_t lo = modes.front().value, hi = modes.front().value;
    for (const ModeEntry& m : modes) {
      lo = std::min(lo, m.value);
      hi = std::max(hi, m.value);
    }
    model.continuous = true;
    model.range_lo = lo;
    model.range_hi = hi;
    return model;
  }

  // Priority 5: successive (strong temporal locality).
  if (IsSuccessive(features, config)) {
    model.type = FunctionType::kSuccessive;
    return model;
  }

  return model;  // kUnknown: caller tries indeterminate assignment
}

PredictiveModel CategorizeDeterministic(std::span<const uint32_t> counts,
                                        const SpesConfig& config) {
  return CategorizeDeterministic(ExtractSeriesFeatures(counts),
                                 static_cast<int64_t>(counts.size()), config);
}

PredictiveModel CategorizeAfterForgetting(std::span<const ArrivalSlot> slots,
                                          int window_minutes,
                                          const SpesConfig& config) {
  // Drop whole days from the front, one at a time, down to half the window
  // (§IV-B1): recent behaviour outranks stale behaviour.
  const int days = window_minutes / kMinutesPerDay;
  for (int drop = 1; drop <= days / 2; ++drop) {
    const int offset = drop * kMinutesPerDay;
    if (offset >= window_minutes) break;
    PredictiveModel model = CategorizeDeterministic(
        SlotSeriesFeatures(slots, offset), window_minutes - offset, config);
    if (model.type != FunctionType::kUnknown) {
      model.forgotten_prefix_minutes = offset;
      return model;
    }
  }
  return PredictiveModel{};
}

PredictiveModel CategorizeWithForgetting(std::span<const uint32_t> counts,
                                         const SpesConfig& config) {
  PredictiveModel model = CategorizeDeterministic(counts, config);
  if (model.type != FunctionType::kUnknown || !config.enable_forgetting) {
    return model;
  }
  std::vector<ArrivalSlot> slots;
  for (size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] > 0) slots.push_back({static_cast<int32_t>(t), counts[t]});
  }
  PredictiveModel recovered = CategorizeAfterForgetting(
      slots, static_cast<int>(counts.size()), config);
  return recovered.type != FunctionType::kUnknown ? recovered : model;
}

}  // namespace spes
