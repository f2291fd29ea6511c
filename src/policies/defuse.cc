#include "policies/defuse.h"

#include <algorithm>
#include <memory>

#include "core/policy_registry.h"

namespace spes {

void RegisterDefusePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "defuse";
  entry.summary =
      "Defuse: dependency-guided pre-warming over hybrid-histogram "
      "keep-alive";
  const DefuseOptions defaults;
  entry.params = {
      {"dependency_window", ParamType::kInt,
       ParamValue(defaults.dependency_window),
       "max minutes between predecessor and dependent"},
      {"min_confidence", ParamType::kDouble,
       ParamValue(defaults.min_confidence),
       "min P(B within window | A) for a strong dependency"},
      {"min_support", ParamType::kInt, ParamValue(defaults.min_support),
       "min predecessor arrivals before confidence is trusted"},
      {"prewarm_hold_minutes", ParamType::kInt,
       ParamValue(defaults.prewarm_hold_minutes),
       "minutes a dependency pre-warm keeps the target loaded"},
      {"fallback_keepalive_minutes", ParamType::kInt,
       ParamValue(defaults.fallback_keepalive_minutes),
       "fixed keep-alive for sparse-history functions"},
  };
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    DefuseOptions options;
    SPES_ASSIGN_OR_RETURN(
        const int64_t window,
        IntParamInRange(params, "defuse", "dependency_window", 1));
    options.dependency_window = static_cast<int>(window);
    SPES_ASSIGN_OR_RETURN(
        options.min_confidence,
        DoubleParamInRange(params, "defuse", "min_confidence", 0.0, 1.0));
    SPES_ASSIGN_OR_RETURN(const int64_t support,
                          IntParamInRange(params, "defuse", "min_support", 0));
    options.min_support = static_cast<int>(support);
    SPES_ASSIGN_OR_RETURN(
        const int64_t hold,
        IntParamInRange(params, "defuse", "prewarm_hold_minutes", 0));
    options.prewarm_hold_minutes = static_cast<int>(hold);
    SPES_ASSIGN_OR_RETURN(
        const int64_t fallback,
        IntParamInRange(params, "defuse", "fallback_keepalive_minutes", 1));
    options.fallback_keepalive_minutes = static_cast<int>(fallback);
    return std::unique_ptr<Policy>(std::make_unique<DefusePolicy>(options));
  };
  registry.Register(std::move(entry)).CheckOK();
}

namespace {

HybridOptions KeepAliveOptions(const DefuseOptions& options) {
  HybridOptions hybrid;
  hybrid.fallback_keepalive_minutes = options.fallback_keepalive_minutes;
  return hybrid;
}

}  // namespace

DefusePolicy::DefusePolicy(DefuseOptions options)
    : options_(options),
      keepalive_(HybridGranularity::kFunction, KeepAliveOptions(options)) {}

std::string DefusePolicy::name() const { return "Defuse"; }

void DefusePolicy::Train(const TrainingWindow& window) {
  const size_t n = window.num_functions();
  keepalive_.Train(window);
  prewarm_hold_until_.assign(n, -1);
  successors_.assign(n, {});

  // Strong-dependency mining over same-app pairs; a function's arrival
  // minutes are its window slots.
  for (const auto& [app, members] : window.GroupByApp()) {
    if (members.size() < 2) continue;
    for (size_t a : members) {
      const std::span<const ArrivalSlot> a_times = window.slots(a);
      if (static_cast<int>(a_times.size()) < options_.min_support) continue;
      for (size_t b : members) {
        if (a == b) continue;
        const std::span<const ArrivalSlot> b_times = window.slots(b);
        if (b_times.empty()) continue;
        // Count A-arrivals followed by a B-arrival within the window.
        int followed = 0;
        size_t j = 0;
        for (const ArrivalSlot& ta : a_times) {
          while (j < b_times.size() && b_times[j].minute <= ta.minute) ++j;
          if (j < b_times.size() &&
              b_times[j].minute - ta.minute <= options_.dependency_window) {
            ++followed;
          }
        }
        const double confidence =
            static_cast<double>(followed) /
            static_cast<double>(a_times.size());
        if (confidence >= options_.min_confidence) {
          successors_[a].push_back(static_cast<uint32_t>(b));
        }
      }
    }
  }
}

void DefusePolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                            MemSet* mem) {
  // Histogram keep-alive / pre-warm windows first...
  keepalive_.OnMinute(t, arrivals, mem);

  // ...then dependency pre-warms override evictions for held targets.
  for (const Invocation& inv : arrivals) {
    for (uint32_t succ : successors_[inv.function]) {
      prewarm_hold_until_[succ] = std::max(
          prewarm_hold_until_[succ], t + options_.prewarm_hold_minutes);
    }
  }
  for (size_t f = 0; f < prewarm_hold_until_.size(); ++f) {
    if (prewarm_hold_until_[f] >= t) mem->Add(f);
  }
}

int64_t DefusePolicy::CountFallbackFunctions() const {
  return keepalive_.CountFallbackUnits();
}

}  // namespace spes
