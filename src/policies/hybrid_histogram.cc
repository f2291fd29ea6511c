#include "policies/hybrid_histogram.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "core/policy_registry.h"

namespace spes {

void RegisterHybridHistogramPolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "hybrid_histogram";
  entry.summary =
      "Shahrad et al. hybrid histogram keep-alive/pre-warm (Azure Functions' "
      "adaptive policy)";
  const HybridOptions defaults;
  entry.params = {
      {"granularity", ParamType::kString, ParamValue("function"),
       "scheduling unit: 'function' (HF) or 'application' (HA)"},
      {"range_minutes", ParamType::kInt,
       ParamValue(defaults.histogram_range_minutes),
       "IAT histogram span in minutes (>= 1)"},
      {"head_percentile", ParamType::kDouble,
       ParamValue(defaults.head_percentile), "pre-warm point percentile"},
      {"tail_percentile", ParamType::kDouble,
       ParamValue(defaults.tail_percentile), "keep-alive horizon percentile"},
      {"margin_fraction", ParamType::kDouble,
       ParamValue(defaults.margin_fraction),
       "safety margin widening [head, tail]"},
      {"min_samples", ParamType::kInt, ParamValue(defaults.min_samples),
       "representativeness floor (samples)"},
      {"max_oob_fraction", ParamType::kDouble,
       ParamValue(defaults.max_oob_fraction),
       "representativeness ceiling (out-of-bounds share)"},
      {"fallback_keepalive_minutes", ParamType::kInt,
       ParamValue(defaults.fallback_keepalive_minutes),
       "fixed keep-alive for non-representative units"},
  };
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    const std::string& granularity = params.GetString("granularity");
    HybridGranularity unit;
    if (granularity == "function") {
      unit = HybridGranularity::kFunction;
    } else if (granularity == "application") {
      unit = HybridGranularity::kApplication;
    } else {
      return Status::InvalidArgument(
          "hybrid_histogram parameter 'granularity' must be 'function' or "
          "'application', got '" +
          granularity + "'");
    }
    HybridOptions options;
    SPES_ASSIGN_OR_RETURN(
        const int64_t range,
        IntParamInRange(params, "hybrid_histogram", "range_minutes", 1));
    options.histogram_range_minutes = static_cast<int>(range);
    SPES_ASSIGN_OR_RETURN(
        options.head_percentile,
        DoubleParamInRange(params, "hybrid_histogram", "head_percentile",
                           0.0, 100.0));
    SPES_ASSIGN_OR_RETURN(
        options.tail_percentile,
        DoubleParamInRange(params, "hybrid_histogram", "tail_percentile",
                           0.0, 100.0));
    SPES_ASSIGN_OR_RETURN(
        options.margin_fraction,
        DoubleParamInRange(params, "hybrid_histogram", "margin_fraction",
                           0.0, 1.0));
    SPES_ASSIGN_OR_RETURN(
        const int64_t samples,
        IntParamInRange(params, "hybrid_histogram", "min_samples", 0));
    options.min_samples = static_cast<int>(samples);
    SPES_ASSIGN_OR_RETURN(
        options.max_oob_fraction,
        DoubleParamInRange(params, "hybrid_histogram", "max_oob_fraction",
                           0.0, 1.0));
    SPES_ASSIGN_OR_RETURN(
        const int64_t fallback,
        IntParamInRange(params, "hybrid_histogram",
                        "fallback_keepalive_minutes", 1));
    options.fallback_keepalive_minutes = static_cast<int>(fallback);
    return std::unique_ptr<Policy>(
        std::make_unique<HybridHistogramPolicy>(unit, options));
  };
  registry.Register(std::move(entry)).CheckOK();
}

HybridHistogramPolicy::HybridHistogramPolicy(HybridGranularity granularity,
                                             HybridOptions options)
    : granularity_(granularity), options_(options) {}

std::string HybridHistogramPolicy::name() const {
  return granularity_ == HybridGranularity::kApplication
             ? "Hybrid-Application"
             : "Hybrid-Function";
}

void HybridHistogramPolicy::RefreshWindow(UnitState* unit) const {
  unit->use_histogram = unit->histogram.Representative(
      options_.min_samples, options_.max_oob_fraction);
  if (!unit->use_histogram) {
    unit->prewarm_after = 0;  // stay loaded from the arrival on
    unit->unload_after = options_.fallback_keepalive_minutes;
    return;
  }
  const int head = unit->histogram.PercentileMinute(options_.head_percentile);
  const int tail = unit->histogram.PercentileMinute(options_.tail_percentile);
  // 10% margin: pre-warm earlier, keep alive longer.
  int prewarm = static_cast<int>(
      std::floor(head * (1.0 - options_.margin_fraction)));
  int unload = static_cast<int>(
      std::ceil(tail * (1.0 + options_.margin_fraction)));
  if (prewarm < 0) prewarm = 0;
  if (unload <= prewarm) unload = prewarm + 1;
  // A head at/below one minute means the unit re-fires immediately: keep it
  // loaded from the arrival instead of evict-then-reload.
  if (prewarm <= 1) prewarm = 0;
  unit->prewarm_after = prewarm;
  unit->unload_after = unload;
}

void HybridHistogramPolicy::Train(const TrainingWindow& window) {
  const size_t n = window.num_functions();
  unit_of_function_.assign(n, 0);
  functions_of_unit_.clear();
  units_.clear();

  if (granularity_ == HybridGranularity::kFunction) {
    functions_of_unit_.resize(n);
    units_.reserve(n);
    for (size_t f = 0; f < n; ++f) {
      unit_of_function_[f] = static_cast<uint32_t>(f);
      functions_of_unit_[f] = {static_cast<uint32_t>(f)};
      units_.emplace_back(options_.histogram_range_minutes);
    }
  } else {
    std::unordered_map<std::string, uint32_t> app_unit;
    for (size_t f = 0; f < n; ++f) {
      const std::string& app = window.meta(f).app;
      auto [it, inserted] =
          app_unit.emplace(app, static_cast<uint32_t>(units_.size()));
      if (inserted) {
        units_.emplace_back(options_.histogram_range_minutes);
        functions_of_unit_.emplace_back();
      }
      unit_of_function_[f] = it->second;
      functions_of_unit_[it->second].push_back(static_cast<uint32_t>(f));
    }
  }
  unit_arrived_.assign(units_.size(), 0);

  // Offline pass: a unit's IATs are the gaps between the distinct
  // minutes at which any of its functions arrived.
  std::vector<int32_t> minutes;
  for (size_t u = 0; u < units_.size(); ++u) {
    minutes.clear();
    for (uint32_t f : functions_of_unit_[u]) {
      for (const ArrivalSlot& slot : window.slots(f)) {
        minutes.push_back(slot.minute);
      }
    }
    if (functions_of_unit_[u].size() > 1) {
      std::sort(minutes.begin(), minutes.end());
      minutes.erase(std::unique(minutes.begin(), minutes.end()),
                    minutes.end());
    }
    for (size_t i = 1; i < minutes.size(); ++i) {
      units_[u].histogram.Record(minutes[i] - minutes[i - 1]);
    }
  }
  for (UnitState& unit : units_) RefreshWindow(&unit);
}

void HybridHistogramPolicy::ApplyUnitSchedule(int t, size_t unit_index,
                                              MemSet* mem) {
  UnitState& unit = units_[unit_index];
  if (unit.last_arrival < 0) {
    // Never seen: evict anything resident (nothing should be).
    for (uint32_t f : functions_of_unit_[unit_index]) mem->Remove(f);
    return;
  }
  const int since = t - unit.last_arrival;
  const bool resident =
      since >= unit.prewarm_after && since < unit.unload_after;
  for (uint32_t f : functions_of_unit_[unit_index]) {
    if (resident) {
      mem->Add(f);
    } else {
      mem->Remove(f);
    }
  }
}

void HybridHistogramPolicy::OnMinute(int t,
                                     const std::vector<Invocation>& arrivals,
                                     MemSet* mem) {
  std::fill(unit_arrived_.begin(), unit_arrived_.end(), 0);
  for (const Invocation& inv : arrivals) {
    unit_arrived_[unit_of_function_[inv.function]] = 1;
  }
  for (size_t u = 0; u < units_.size(); ++u) {
    UnitState& unit = units_[u];
    if (unit_arrived_[u]) {
      // Online histogram update + window refresh on every arrival.
      if (unit.last_arrival >= 0) {
        unit.histogram.Record(t - unit.last_arrival);
      }
      unit.last_arrival = t;
      RefreshWindow(&unit);
    }
    ApplyUnitSchedule(t, u, mem);
  }
}

int64_t HybridHistogramPolicy::CountFallbackUnits() const {
  return std::count_if(units_.begin(), units_.end(),
                       [](const UnitState& u) { return !u.use_histogram; });
}

}  // namespace spes
