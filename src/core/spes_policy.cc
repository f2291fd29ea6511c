#include "core/spes_policy.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "common/binary_io.h"
#include "common/stats.h"
#include "core/policy_registry.h"
#include "core/validation.h"

namespace spes {

void RegisterSpesPolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "spes";
  entry.summary =
      "SPES: differentiated rule-based provisioning by invocation-pattern "
      "category";
  const SpesConfig defaults;
  // The spec surface exposes the provision/ablation knobs the paper sweeps
  // (Figs. 13-15); the Table I definitional constants stay code-level.
  entry.params = {
      {"theta_prewarm", ParamType::kInt, ParamValue(defaults.theta_prewarm),
       "pre-load window around a predicted invocation (>= 0)"},
      {"givenup_scaler", ParamType::kInt, ParamValue(defaults.givenup_scaler),
       "multiplier on every theta_givenup (>= 1, the Fig. 13(b) scaler)"},
      {"theta_givenup_default", ParamType::kInt,
       ParamValue(defaults.theta_givenup_default),
       "eviction threshold for most types (idle minutes)"},
      {"theta_givenup_dense", ParamType::kInt,
       ParamValue(defaults.theta_givenup_dense),
       "eviction threshold for dense functions"},
      {"theta_givenup_pulsed", ParamType::kInt,
       ParamValue(defaults.theta_givenup_pulsed),
       "eviction threshold for pulsed functions"},
      {"alpha", ParamType::kDouble, ParamValue(defaults.alpha),
       "rise-rate scaling in the indeterminate assignment"},
      {"enable_correlated", ParamType::kBool,
       ParamValue(defaults.enable_correlated),
       "training-time correlation links (Fig. 14 'w/o Corr' when false)"},
      {"enable_online_corr", ParamType::kBool,
       ParamValue(defaults.enable_online_corr),
       "online correlation for unseen functions"},
      {"enable_forgetting", ParamType::kBool,
       ParamValue(defaults.enable_forgetting),
       "recent-suffix re-categorization of unknowns (Fig. 15)"},
      {"enable_adjusting", ParamType::kBool,
       ParamValue(defaults.enable_adjusting),
       "online drift correction and late categorization (Fig. 15)"},
  };
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    SpesConfig config;
    SPES_ASSIGN_OR_RETURN(
        const int64_t prewarm,
        IntParamInRange(params, "spes", "theta_prewarm", 0));
    config.theta_prewarm = static_cast<int>(prewarm);
    SPES_ASSIGN_OR_RETURN(
        const int64_t scaler,
        IntParamInRange(params, "spes", "givenup_scaler", 1));
    config.givenup_scaler = static_cast<int>(scaler);
    SPES_ASSIGN_OR_RETURN(
        const int64_t givenup_default,
        IntParamInRange(params, "spes", "theta_givenup_default", 0));
    config.theta_givenup_default = static_cast<int>(givenup_default);
    SPES_ASSIGN_OR_RETURN(
        const int64_t givenup_dense,
        IntParamInRange(params, "spes", "theta_givenup_dense", 0));
    config.theta_givenup_dense = static_cast<int>(givenup_dense);
    SPES_ASSIGN_OR_RETURN(
        const int64_t givenup_pulsed,
        IntParamInRange(params, "spes", "theta_givenup_pulsed", 0));
    config.theta_givenup_pulsed = static_cast<int>(givenup_pulsed);
    // Any positive finite scaling is meaningful (the paper uses 0.5).
    SPES_ASSIGN_OR_RETURN(
        config.alpha,
        DoubleParamInRange(params, "spes", "alpha", 1e-9, 1e9));
    config.enable_correlated = params.GetBool("enable_correlated");
    config.enable_online_corr = params.GetBool("enable_online_corr");
    config.enable_forgetting = params.GetBool("enable_forgetting");
    config.enable_adjusting = params.GetBool("enable_adjusting");
    return std::unique_ptr<Policy>(std::make_unique<SpesPolicy>(config));
  };
  registry.Register(std::move(entry)).CheckOK();
}

SpesPolicy::SpesPolicy(SpesConfig config) : config_(config) {}

int SpesPolicy::GivenUpThreshold(FunctionType type) const {
  int base = config_.theta_givenup_default;
  if (type == FunctionType::kDense) base = config_.theta_givenup_dense;
  if (type == FunctionType::kPulsed) base = config_.theta_givenup_pulsed;
  return base * std::max(1, config_.givenup_scaler);
}

bool SpesPolicy::PredictNearInvocation(const FunctionState& state,
                                       int t) const {
  const PredictiveModel& model = state.model;
  if (model.type == FunctionType::kAlwaysWarm) return true;
  if (state.last_arrival < 0) return false;
  const int theta = config_.theta_prewarm;
  if (model.type == FunctionType::kRegular && state.next_predicted >= 0) {
    // Lattice prediction (advanced in OnMinute when an event is dropped).
    return std::llabs(state.next_predicted - static_cast<int64_t>(t)) <=
           theta;
  }
  if (model.continuous) {
    // Dense (and narrow-possible): any time inside last + [lo, hi].
    return t + theta >= state.last_arrival + model.range_lo &&
           t - theta <= state.last_arrival + model.range_hi;
  }
  for (int64_t v : model.values) {
    const int64_t predicted = state.last_arrival + v;
    if (std::llabs(predicted - static_cast<int64_t>(t)) <= theta) return true;
  }
  return false;
}

void SpesPolicy::Train(const TrainingWindow& window) {
  const size_t n = window.num_functions();
  const int train_minutes = window.train_minutes();
  states_.assign(n, FunctionState{});
  links_by_candidate_.assign(n, {});
  online_corr_.clear();
  forgetting_recategorized_ = 0;
  online_recategorized_ = 0;

  const int validation_begin =
      std::max(0, train_minutes - config_.validation_minutes);

  // --- Pass 1: features + deterministic categorization. --------------------
  // Each function's slots expand into one reused dense row, so the series
  // code sees exactly the counts a dense training prefix holds.
  std::vector<std::vector<int64_t>> training_wts(n);
  std::vector<size_t> indeterminate;
  std::vector<uint32_t> row;
  for (size_t f = 0; f < n; ++f) {
    window.ExpandRow(f, 0, train_minutes, &row);
    const std::span<const uint32_t> counts(row);
    const SeriesFeatures features = ExtractSeriesFeatures(counts);
    FunctionState& st = states_[f];
    st.seen_in_training = features.total_invocations > 0;
    if (features.last_invoked >= 0) {
      st.last_arrival = static_cast<int>(features.last_invoked);
      st.current_wt = train_minutes - 1 - st.last_arrival;
    }
    training_wts[f] = features.wts;
    if (!st.seen_in_training) continue;  // unseen: handled by online corr

    st.model = CategorizeDeterministic(counts, config_);
    if (st.model.type == FunctionType::kUnknown && config_.enable_forgetting) {
      PredictiveModel recovered = CategorizeWithForgetting(counts, config_);
      if (recovered.type != FunctionType::kUnknown) {
        st.model = recovered;
        ++forgetting_recategorized_;
      }
    }
    // Near-empty histories (a couple of invoked minutes) carry no signal
    // for the supplementary strategies either: leave them unknown.
    if (st.model.type == FunctionType::kUnknown &&
        features.active_slots >= config_.indeterminate_min_invoked_minutes) {
      indeterminate.push_back(f);
    }
  }

  // --- Pass 2: indeterminate assignment by validation replay. --------------
  // The target's slots come straight from the window; its dense row and
  // each candidate's expand into scratch.
  const auto by_app = window.GroupByApp();
  const auto by_owner = window.GroupByOwner();
  std::vector<uint32_t> target_row;
  std::vector<uint32_t> candidate_row;
  std::vector<std::vector<uint32_t>> link_rows;
  for (size_t f : indeterminate) {
    FunctionState& st = states_[f];
    window.ExpandRow(f, 0, train_minutes, &target_row);
    const std::span<const uint32_t> target_slice(target_row);
    const auto validation = target_slice.subspan(
        static_cast<size_t>(validation_begin));

    // Candidate functions: share the application or owner (§IV-B D2).
    std::vector<CorrelationLink> links;
    if (config_.enable_correlated) {
      std::vector<int> target_slots_vec;
      for (const ArrivalSlot& slot : window.slots(f)) {
        target_slots_vec.push_back(slot.minute);
      }
      if (static_cast<int>(target_slots_vec.size()) >=
          config_.tcor_min_target_arrivals) {
        std::vector<size_t> candidates;
        auto app_it = by_app.find(window.meta(f).app);
        if (app_it != by_app.end()) {
          candidates.insert(candidates.end(), app_it->second.begin(),
                            app_it->second.end());
        }
        auto owner_it = by_owner.find(window.meta(f).owner);
        if (owner_it != by_owner.end()) {
          candidates.insert(candidates.end(), owner_it->second.begin(),
                            owner_it->second.end());
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        for (size_t c : candidates) {
          if (c == f || !states_[c].seen_in_training) continue;
          window.ExpandRow(c, 0, train_minutes, &candidate_row);
          const std::span<const uint32_t> candidate_slice(candidate_row);
          const BestLag best = BestLaggedCorFromSlots(
              target_slots_vec, candidate_slice, config_.tcor_max_lag);
          if (best.cor < config_.tcor_threshold) continue;
          // Precision check: how often does a candidate firing actually
          // precede a target invocation? (Guards against hyperactive
          // candidates that would pre-warm the target non-stop.)
          int64_t cand_fires = 0, followed = 0;
          for (size_t s = 0; s < candidate_slice.size(); ++s) {
            if (candidate_slice[s] == 0) continue;
            ++cand_fires;
            const size_t lo = s + static_cast<size_t>(std::max(
                                      0, best.lag - config_.theta_prewarm));
            const size_t hi =
                s + static_cast<size_t>(best.lag + config_.theta_prewarm);
            for (size_t u = lo; u <= hi && u < target_slice.size(); ++u) {
              if (target_slice[u] > 0) {
                ++followed;
                break;
              }
            }
          }
          const double precision =
              cand_fires == 0 ? 0.0
                              : static_cast<double>(followed) /
                                    static_cast<double>(cand_fires);
          if (precision < config_.tcor_min_precision) continue;
          links.push_back({static_cast<uint32_t>(f),
                           static_cast<uint32_t>(c), best.lag, best.cor});
        }
      }
    }

    // D1: pulsed replay.
    const StrategyCost pulsed = ReplayPulsed(
        validation,
        config_.theta_givenup_pulsed * std::max(1, config_.givenup_scaler));
    // D2: correlated replay over the validation slices of linked functions.
    if (link_rows.size() < links.size()) link_rows.resize(links.size());
    std::vector<std::span<const uint32_t>> cand_validation;
    std::vector<int> lags;
    for (size_t k = 0; k < links.size(); ++k) {
      window.ExpandRow(links[k].candidate, validation_begin, train_minutes,
                       &link_rows[k]);
      cand_validation.emplace_back(link_rows[k]);
      lags.push_back(links[k].lag);
    }
    const StrategyCost correlated =
        ReplayCorrelated(validation, cand_validation, lags,
                         config_.corr_prewarm_hold, config_.theta_prewarm);
    // D3: possible replay from repeated training WTs.
    const PredictiveModel possible_model =
        FitPossibleModel(training_wts[f], config_);
    const StrategyCost possible =
        ReplayPossible(validation, possible_model, config_);

    const AssignmentDecision decision =
        ChooseAssignment(pulsed, correlated, possible, config_.alpha);
    switch (decision.type) {
      case FunctionType::kPulsed:
        st.model = PredictiveModel{};
        st.model.type = FunctionType::kPulsed;
        st.model.offline_wt_stddev = StdDev(training_wts[f]);
        break;
      case FunctionType::kCorrelated:
        st.model = PredictiveModel{};
        st.model.type = FunctionType::kCorrelated;
        for (const CorrelationLink& link : links) {
          links_by_candidate_[link.candidate].push_back(link);
        }
        break;
      case FunctionType::kPossible:
        st.model = possible_model;
        break;
      default:
        break;  // stays kUnknown: cold starts tolerated
    }
  }

  // Seed lattice predictions so regular functions are covered from the
  // first simulated minute.
  for (FunctionState& st : states_) {
    if (st.model.type == FunctionType::kRegular && !st.model.values.empty() &&
        st.model.values[0] > 0 && st.last_arrival >= 0) {
      st.next_predicted = st.last_arrival + st.model.values[0];
    }
  }

  // --- Pass 3: online-correlation setup for unseen functions (§IV-C2). -----
  if (config_.enable_online_corr) {
    for (size_t f = 0; f < n; ++f) {
      if (states_[f].seen_in_training) {
        continue;
      }
      OnlineCorrState corr;
      corr.target = static_cast<uint32_t>(f);
      const TriggerType trigger = window.meta(f).trigger;
      // Prefer same-app, then same-owner, then any same-trigger function.
      auto consider = [&](size_t c) {
        if (c == f || !states_[c].seen_in_training) return;
        if (window.meta(c).trigger != trigger) return;
        if (static_cast<int>(corr.candidates.size()) >=
            config_.online_corr_max_candidates) {
          return;
        }
        const uint32_t cand = static_cast<uint32_t>(c);
        if (std::find(corr.candidates.begin(), corr.candidates.end(), cand) ==
            corr.candidates.end()) {
          corr.candidates.push_back(cand);
        }
      };
      auto app_it = by_app.find(window.meta(f).app);
      if (app_it != by_app.end()) {
        for (size_t c : app_it->second) consider(c);
      }
      auto owner_it = by_owner.find(window.meta(f).owner);
      if (owner_it != by_owner.end()) {
        for (size_t c : owner_it->second) consider(c);
      }
      for (size_t c = 0;
           c < n && static_cast<int>(corr.candidates.size()) <
                        config_.online_corr_max_candidates;
           ++c) {
        consider(c);
      }
      if (!corr.candidates.empty()) {
        corr.active.assign(corr.candidates.size(), 1);
        corr.co_count.assign(corr.candidates.size(), 0);
        online_corr_.push_back(std::move(corr));
      }
    }
  }
  ResetStepState();
}

void SpesPolicy::MaybeAdjustPredictiveValues(FunctionState* state) {
  if (!config_.enable_adjusting) return;
  PredictiveModel& model = state->model;
  const int samples = static_cast<int>(state->online_wts.size());
  // S1: only act with enough fresh WTs since the last adjustment.
  if (samples < config_.adjust_min_samples ||
      samples - state->adjust_cursor < config_.adjust_min_samples) {
    return;
  }
  state->adjust_cursor = samples;
  const double gate = std::max(model.offline_wt_stddev, 1.0);

  switch (model.type) {
    case FunctionType::kRegular: {
      // S2: replace the median predictive value by the old/new mean when
      // the online median drifts beyond the offline dispersion.
      const double online_median = Median(state->online_wts);
      if (!model.values.empty() &&
          std::abs(online_median - static_cast<double>(model.values[0])) >
              gate) {
        model.values[0] = static_cast<int64_t>(
            (static_cast<double>(model.values[0]) + online_median) / 2.0 +
            0.5);
      }
      return;
    }
    case FunctionType::kApproRegular: {
      // Pair each predictive value with its NEAREST online mode (the rank
      // order of tightly clustered quasi-period modes is unstable between
      // the offline and online windows) and average only on genuine drift.
      const std::vector<ModeEntry> online_modes =
          TopModes(state->online_wts, config_.appro_num_modes);
      if (online_modes.empty()) return;
      for (int64_t& value : model.values) {
        int64_t nearest = online_modes.front().value;
        for (const ModeEntry& m : online_modes) {
          if (std::llabs(m.value - value) < std::llabs(nearest - value)) {
            nearest = m.value;
          }
        }
        if (std::abs(static_cast<double>(nearest) -
                     static_cast<double>(value)) > gate) {
          value = (value + nearest) / 2;
        }
      }
      return;
    }
    case FunctionType::kDense: {
      const std::vector<ModeEntry> online_modes =
          TopModes(state->online_wts, config_.dense_num_modes);
      if (online_modes.empty()) return;
      int64_t lo = online_modes.front().value, hi = lo;
      for (const ModeEntry& m : online_modes) {
        lo = std::min(lo, m.value);
        hi = std::max(hi, m.value);
      }
      const double old_mid =
          static_cast<double>(model.range_lo + model.range_hi) / 2.0;
      const double new_mid = static_cast<double>(lo + hi) / 2.0;
      if (std::abs(new_mid - old_mid) > gate) {
        model.range_lo = (model.range_lo + lo) / 2;
        model.range_hi = (model.range_hi + hi + 1) / 2;
      }
      return;
    }
    case FunctionType::kPossible:
    case FunctionType::kNewlyPossible: {
      // Merge newly repeated online WTs into the predictive set.
      for (const ModeEntry& m : RepeatedValues(state->online_wts)) {
        if (static_cast<int>(model.values.size()) >=
            config_.possible_max_values) {
          break;
        }
        if (std::find(model.values.begin(), model.values.end(), m.value) ==
            model.values.end()) {
          model.values.push_back(m.value);
        }
      }
      return;
    }
    default:
      return;
  }
}

void SpesPolicy::MaybeLateCategorize(FunctionState* state) {
  if (!config_.enable_adjusting) return;
  if (state->model.type != FunctionType::kUnknown) return;
  if (static_cast<int>(state->online_wts.size()) <
      config_.newly_possible_min_wts) {
    return;
  }
  // S3: an unknown/unseen function whose online WTs develop repeated modes
  // becomes "newly possible" and gains predictive values.
  PredictiveModel fitted = FitPossibleModel(state->online_wts, config_);
  if (fitted.type == FunctionType::kPossible) {
    fitted.type = FunctionType::kNewlyPossible;
    state->model = fitted;
    ++online_recategorized_;
  }
}

int64_t SpesPolicy::IdleWt(const FunctionState& state, int64_t step) const {
  if (state.last_arrival < 0) return state.current_wt;  // never advances
  return state.current_wt + (step - state.wt_step);
}

int64_t SpesPolicy::LatticeAt(const FunctionState& state, int64_t t) const {
  const PredictiveModel& model = state.model;
  if (model.type != FunctionType::kRegular || model.values.empty() ||
      model.values[0] <= 0 || state.last_arrival < 0) {
    return state.next_predicted;
  }
  // A prediction that passed without an arrival was a dropped event: keep
  // the phase and predict whole periods later.
  const int64_t period = model.values[0];
  int64_t next = state.next_predicted >= 0 ? state.next_predicted
                                           : state.last_arrival + period;
  const int64_t behind = t - config_.theta_prewarm - next;
  if (behind > 0) next += (behind + period - 1) / period * period;
  return next;
}

bool SpesPolicy::Preload(FunctionState* state, int t) const {
  state->next_predicted = LatticeAt(*state, t);
  return t <= state->corr_hold_until || PredictNearInvocation(*state, t);
}

int64_t SpesPolicy::NextWake(const FunctionState& state, int64_t from) const {
  if (from <= state.corr_hold_until) return from;
  const PredictiveModel& model = state.model;
  if (model.type == FunctionType::kAlwaysWarm) return from;
  if (state.last_arrival < 0) return kNever;
  const int64_t theta = config_.theta_prewarm;
  // First minute >= from inside [lo, hi], kNever once the window passed.
  const auto first_in = [from](int64_t lo, int64_t hi) {
    return hi < from ? kNever : std::max(from, lo);
  };
  const int64_t lattice = LatticeAt(state, from);
  if (model.type == FunctionType::kRegular && lattice >= 0) {
    return first_in(lattice - theta, lattice + theta);
  }
  const int64_t last = state.last_arrival;
  if (model.continuous) {
    return first_in(last + model.range_lo - theta,
                    last + model.range_hi + theta);
  }
  int64_t wake = kNever;
  for (int64_t v : model.values) {
    wake = std::min(wake, first_in(last + v - theta, last + v + theta));
  }
  return wake;
}

void SpesPolicy::EnterWindow(size_t f) {
  flags_[f] |= kInWindow;
  wake_at_[f] = kNever;
  ++wake_generation_[f];  // drops f's heap entry, if any
  window_.push_back(static_cast<uint32_t>(f));
}

void SpesPolicy::Wake(size_t f, int64_t from, int t) {
  if (flags_[f] & kInWindow) return;  // re-tested every minute anyway
  const int64_t wake = NextWake(states_[f], from);
  if (wake <= t) {
    EnterWindow(f);
    return;
  }
  if (wake == wake_at_[f]) return;  // its live entry already says so
  wake_at_[f] = wake;
  const uint32_t generation = ++wake_generation_[f];
  if (wake == kNever) return;
  // Stale entries wait for their minute to be dropped; once they
  // outnumber the fleet, sweep them so the heap stays O(n).
  if (wake_heap_.size() >= 2 * wake_at_.size() + 64) {
    std::erase_if(wake_heap_, [this](const WakeEntry& e) {
      return e.generation != wake_generation_[e.function];
    });
    std::make_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
  }
  wake_heap_.push_back({wake, static_cast<uint32_t>(f), generation});
  std::push_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
}

void SpesPolicy::RebuildSchedule(int t) {
  const size_t n = states_.size();
  flags_.assign(n, 0);
  wake_at_.assign(n, kNever);
  wake_generation_.assign(n, 0);
  window_.clear();
  wake_heap_.clear();
  for (size_t f = 0; f < n; ++f) Wake(f, t, t);
}

void SpesPolicy::IndexOnlineCorrelations() {
  const size_t n = states_.size();
  corr_of_target_.assign(n, -1);
  slots_begin_.assign(n + 1, 0);
  for (size_t e = 0; e < online_corr_.size(); ++e) {
    corr_of_target_[online_corr_[e].target] = static_cast<int32_t>(e);
    for (uint32_t c : online_corr_[e].candidates) ++slots_begin_[c + 1];
  }
  for (size_t c = 0; c < n; ++c) slots_begin_[c + 1] += slots_begin_[c];
  slots_.resize(slots_begin_[n]);
  std::vector<uint32_t> fill(slots_begin_.begin(), slots_begin_.end() - 1);
  for (size_t e = 0; e < online_corr_.size(); ++e) {
    const std::vector<uint32_t>& candidates = online_corr_[e].candidates;
    for (size_t k = 0; k < candidates.size(); ++k) {
      slots_[fill[candidates[k]]++] = {static_cast<uint32_t>(e),
                                       static_cast<uint32_t>(k)};
    }
  }
}

void SpesPolicy::UpdateOnlineCorrEntry(OnlineCorrState* corr, int t,
                                       bool target_fired) {
  if (target_fired) {
    ++corr->target_arrivals;
    corr->grants_since_arrival = 0;
  }
  double max_cor = 0.0;
  for (size_t k = 0; k < corr->candidates.size(); ++k) {
    const FunctionState& cand = states_[corr->candidates[k]];
    const bool cand_recent = cand.last_arrival >= 0 &&
                             t - cand.last_arrival <= config_.tcor_max_lag;
    if (target_fired && cand_recent) ++corr->co_count[k];
    if (corr->target_arrivals > 0) {
      max_cor = std::max(max_cor,
                         static_cast<double>(corr->co_count[k]) /
                             static_cast<double>(corr->target_arrivals));
    }
  }
  // Keep/expel candidates relative to the running maximum (§IV-C2): a
  // candidate far below the best is dropped, and readmitted if its COR
  // climbs back near the maximum.
  if (corr->target_arrivals >= 3) {
    for (size_t k = 0; k < corr->candidates.size(); ++k) {
      const double cor = static_cast<double>(corr->co_count[k]) /
                         static_cast<double>(corr->target_arrivals);
      if (max_cor - cor > config_.online_corr_drop_gap) {
        corr->active[k] = 0;
      } else if (max_cor - cor < config_.online_corr_drop_gap / 3.0) {
        corr->active[k] = 1;
      }
    }
  }
}

void SpesPolicy::UpdateOnlineCorrelations(int t, bool refresh_all,
                                          MemSet* mem) {
  // Counts move only when the target fires; re-deciding keep/expel on
  // unchanged counts changes nothing, so only those entries update (all of
  // them once after a restore, whose blob may predate the decision).
  if (refresh_all) {
    for (OnlineCorrState& corr : online_corr_) {
      UpdateOnlineCorrEntry(&corr, t, (flags_[corr.target] & kInvoked) != 0);
    }
  } else {
    for (uint32_t f : fired_) {
      if (corr_of_target_[f] >= 0) {
        UpdateOnlineCorrEntry(
            &online_corr_[static_cast<size_t>(corr_of_target_[f])], t, true);
      }
    }
  }
  // Pre-warm the target whenever an active candidate fires (the paper's
  // aggressive initial phase; candidates are pruned by COR over time). A
  // second firing candidate of the same entry finds the hold already
  // extended to t + hold and only repeats the Add.
  for (uint32_t c : fired_) {
    for (uint32_t i = slots_begin_[c]; i < slots_begin_[c + 1]; ++i) {
      OnlineCorrState& corr = online_corr_[slots_[i].entry];
      if (!corr.active[slots_[i].slot]) continue;
      mem->Add(corr.target);
      FunctionState& target_state = states_[corr.target];
      const int new_hold = t + config_.corr_prewarm_hold;
      if (new_hold > target_state.corr_hold_until) {
        target_state.corr_hold_until = new_hold;
        ++corr.grants_since_arrival;
        Wake(corr.target, t, t);
      }
    }
  }
}

void SpesPolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                          MemSet* mem) {
  ++steps_;
  last_minute_ = t;
  const bool rebuild = rebuild_pending_;
  if (rebuild) {
    RebuildSchedule(t);
    rebuild_pending_ = false;
  }

  // --- Arrival handling (Algorithm 1 lines 3-12). ---------------------------
  fired_.clear();
  for (const Invocation& inv : arrivals) {
    const size_t f = inv.function;
    if (!(flags_[f] & kInvoked)) {
      flags_[f] |= kInvoked;
      fired_.push_back(static_cast<uint32_t>(f));
    }
    FunctionState& st = states_[f];
    const int64_t completed_wt = IdleWt(st, steps_ - 1);
    if (st.last_arrival >= 0 && completed_wt > 0) {
      st.online_wts.push_back(completed_wt);  // a completed WT (S1)
      MaybeAdjustPredictiveValues(&st);
      MaybeLateCategorize(&st);
    }
    st.last_arrival = t;
    st.current_wt = 0;
    st.wt_step = steps_;
    if (st.model.type == FunctionType::kRegular && !st.model.values.empty() &&
        st.model.values[0] > 0) {
      st.next_predicted = t + st.model.values[0];
    }
    Wake(f, int64_t{t} + 1, t);
    // Correlated pre-warm: this arrival predicts linked targets at t + lag;
    // load them now (lag <= theta_max) and hold through the window.
    for (const CorrelationLink& link : links_by_candidate_[f]) {
      mem->Add(link.target);
      FunctionState& target = states_[link.target];
      const int hold = t + link.lag + config_.theta_prewarm;
      if (hold > target.corr_hold_until) {
        target.corr_hold_until = hold;
        Wake(link.target, t, t);
      }
    }
  }

  // --- Adaptive handling of unseen functions (§IV-C2). ---------------------
  UpdateOnlineCorrelations(t, rebuild, mem);

  // --- Pre-load (Algorithm 1 lines 13-16): functions whose wake-up is due
  // join the window; each window member is re-tested every minute. -------
  while (!wake_heap_.empty() && wake_heap_.front().minute <= t) {
    const WakeEntry due = wake_heap_.front();
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
    wake_heap_.pop_back();
    if (due.generation == wake_generation_[due.function]) {
      EnterWindow(due.function);
    }
  }
  size_t kept = 0;
  for (const uint32_t f : window_) {
    if (!(flags_[f] & kInvoked)) {
      if (!Preload(&states_[f], t)) {
        flags_[f] &= static_cast<uint8_t>(~kInWindow);
        Wake(f, int64_t{t} + 1, t);
        continue;
      }
      mem->Add(f);
      flags_[f] |= kPreloaded;
    }
    window_[kept++] = f;
  }
  window_.resize(kept);

  // --- Give-up (Algorithm 1 lines 17-20) over the loaded set. --------------
  mem->ForEachLoaded([&](size_t f) {
    if (flags_[f] & (kInvoked | kPreloaded)) return;
    const FunctionState& st = states_[f];
    // Pre-warmed by correlation but never invoked: drop once the hold
    // expires.
    if (st.last_arrival < 0 ||
        IdleWt(st, steps_) >= GivenUpThreshold(st.model.type)) {
      mem->Remove(f);
    }
  });

  for (const uint32_t f : fired_) flags_[f] &= kInWindow;
  for (const uint32_t f : window_) flags_[f] &= kInWindow;
}

namespace {

void PutI64Vector(BinaryWriter* w, const std::vector<int64_t>& values) {
  w->PutU64(values.size());
  for (int64_t v : values) w->PutI64(v);
}

Result<std::vector<int64_t>> GetI64Vector(BinaryReader* r) {
  SPES_ASSIGN_OR_RETURN(const uint64_t n, r->Length(8));
  std::vector<int64_t> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SPES_ASSIGN_OR_RETURN(const int64_t v, r->I64());
    values.push_back(v);
  }
  return values;
}

}  // namespace

Result<std::string> SpesPolicy::SaveState() const {
  BinaryWriter w;
  w.PutU64(states_.size());
  for (const FunctionState& st : states_) {
    w.PutU8(static_cast<uint8_t>(st.model.type));
    PutI64Vector(&w, st.model.values);
    w.PutI64(st.model.range_lo);
    w.PutI64(st.model.range_hi);
    w.PutBool(st.model.continuous);
    w.PutDouble(st.model.offline_wt_stddev);
    w.PutI32(st.model.forgotten_prefix_minutes);
    w.PutI32(st.last_arrival);
    w.PutI32(static_cast<int32_t>(IdleWt(st, steps_)));
    w.PutBool(st.seen_in_training);
    w.PutI32(st.corr_hold_until);
    w.PutI64(steps_ > 0 ? LatticeAt(st, last_minute_) : st.next_predicted);
    PutI64Vector(&w, st.online_wts);
    w.PutI32(st.adjust_cursor);
  }
  w.PutU64(links_by_candidate_.size());
  for (const std::vector<CorrelationLink>& links : links_by_candidate_) {
    w.PutU64(links.size());
    for (const CorrelationLink& link : links) {
      w.PutU32(link.target);
      w.PutU32(link.candidate);
      w.PutI32(link.lag);
      w.PutDouble(link.cor);
    }
  }
  w.PutU64(online_corr_.size());
  for (const OnlineCorrState& corr : online_corr_) {
    w.PutU32(corr.target);
    w.PutU64(corr.candidates.size());
    for (uint32_t c : corr.candidates) w.PutU32(c);
    for (uint8_t a : corr.active) w.PutU8(a);
    for (int32_t n : corr.co_count) w.PutI32(n);
    w.PutI32(corr.target_arrivals);
    w.PutI32(corr.grants_since_arrival);
  }
  w.PutI64(forgetting_recategorized_);
  w.PutI64(online_recategorized_);
  return w.Take();
}

Status SpesPolicy::RestoreState(const std::string& blob) {
  // Parse into temporaries and commit only at the end, so a truncated or
  // corrupt blob leaves the policy untouched.
  BinaryReader r(blob);
  // Minimal encoded FunctionState: 71 bytes (all scalars + two empty
  // vectors) — keeps a corrupt count from driving a huge reserve().
  SPES_ASSIGN_OR_RETURN(const uint64_t n, r.Length(71));
  // The blob must describe the fleet this policy was trained on: every
  // OnMinute path indexes the per-function arrays by function id, so a
  // size mismatch (or any out-of-range id below) would be heap OOB.
  if (n != states_.size()) {
    return Status::InvalidArgument(
        "spes state blob describes (=" + std::to_string(n) +
        ") functions but this policy was trained on (=" +
        std::to_string(states_.size()) + ")");
  }
  std::vector<FunctionState> states;
  states.reserve(n);
  for (uint64_t f = 0; f < n; ++f) {
    FunctionState st;
    SPES_ASSIGN_OR_RETURN(const uint8_t type, r.U8());
    if (type >= kNumFunctionTypes) {
      return Status::InvalidArgument(
          "spes state blob holds function type (=" + std::to_string(type) +
          "), valid types are [0, " + std::to_string(kNumFunctionTypes) +
          ")");
    }
    st.model.type = static_cast<FunctionType>(type);
    SPES_ASSIGN_OR_RETURN(st.model.values, GetI64Vector(&r));
    SPES_ASSIGN_OR_RETURN(st.model.range_lo, r.I64());
    SPES_ASSIGN_OR_RETURN(st.model.range_hi, r.I64());
    SPES_ASSIGN_OR_RETURN(st.model.continuous, r.Bool());
    SPES_ASSIGN_OR_RETURN(st.model.offline_wt_stddev, r.Double());
    SPES_ASSIGN_OR_RETURN(st.model.forgotten_prefix_minutes, r.I32());
    SPES_ASSIGN_OR_RETURN(st.last_arrival, r.I32());
    SPES_ASSIGN_OR_RETURN(st.current_wt, r.I32());
    SPES_ASSIGN_OR_RETURN(st.seen_in_training, r.Bool());
    SPES_ASSIGN_OR_RETURN(st.corr_hold_until, r.I32());
    SPES_ASSIGN_OR_RETURN(st.next_predicted, r.I64());
    SPES_ASSIGN_OR_RETURN(st.online_wts, GetI64Vector(&r));
    SPES_ASSIGN_OR_RETURN(st.adjust_cursor, r.I32());
    states.push_back(std::move(st));
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t num_candidates, r.Length(8));
  if (num_candidates != n) {
    return Status::InvalidArgument(
        "spes state blob has (=" + std::to_string(num_candidates) +
        ") link lists for (=" + std::to_string(n) + ") functions");
  }
  std::vector<std::vector<CorrelationLink>> links_by_candidate(num_candidates);
  for (uint64_t c = 0; c < num_candidates; ++c) {
    SPES_ASSIGN_OR_RETURN(const uint64_t num_links, r.Length(20));
    links_by_candidate[c].reserve(num_links);
    for (uint64_t k = 0; k < num_links; ++k) {
      CorrelationLink link;
      SPES_ASSIGN_OR_RETURN(link.target, r.U32());
      SPES_ASSIGN_OR_RETURN(link.candidate, r.U32());
      SPES_ASSIGN_OR_RETURN(link.lag, r.I32());
      SPES_ASSIGN_OR_RETURN(link.cor, r.Double());
      if (link.target >= n || link.candidate >= n) {
        return Status::InvalidArgument(
            "spes state blob holds correlation link with function id (=" +
            std::to_string(std::max(link.target, link.candidate)) +
            ") outside the fleet (=" + std::to_string(n) + " functions)");
      }
      if (link.candidate != c) {
        return Status::InvalidArgument(
            "spes state blob files a link of candidate (=" +
            std::to_string(link.candidate) + ") under candidate (=" +
            std::to_string(c) + ")");
      }
      links_by_candidate[c].push_back(link);
    }
  }
  // Minimal encoded OnlineCorrState: 20 bytes (target + empty candidate
  // list + the two counters).
  SPES_ASSIGN_OR_RETURN(const uint64_t num_corr, r.Length(20));
  std::vector<OnlineCorrState> online_corr;
  online_corr.reserve(num_corr);
  std::vector<uint8_t> corr_seen(n, 0);
  for (uint64_t i = 0; i < num_corr; ++i) {
    OnlineCorrState corr;
    SPES_ASSIGN_OR_RETURN(corr.target, r.U32());
    if (corr.target >= n) {
      return Status::InvalidArgument(
          "spes state blob holds online-correlation target (=" +
          std::to_string(corr.target) + ") outside the fleet (=" +
          std::to_string(n) + " functions)");
    }
    // Training gives each unseen function at most one entry, and the step
    // finds an entry by its target (corr_of_target_).
    if (states[corr.target].seen_in_training) {
      return Status::InvalidArgument(
          "spes state blob tracks online correlation for function (=" +
          std::to_string(corr.target) + "), which was seen in training");
    }
    if (corr_seen[corr.target]) {
      return Status::InvalidArgument(
          "spes state blob tracks online correlation for function (=" +
          std::to_string(corr.target) + ") more than once");
    }
    corr_seen[corr.target] = 1;
    SPES_ASSIGN_OR_RETURN(const uint64_t num_cand, r.Length(9));
    corr.candidates.reserve(num_cand);
    for (uint64_t k = 0; k < num_cand; ++k) {
      SPES_ASSIGN_OR_RETURN(const uint32_t c, r.U32());
      if (c >= n) {
        return Status::InvalidArgument(
            "spes state blob holds online-correlation candidate (=" +
            std::to_string(c) + ") outside the fleet (=" +
            std::to_string(n) + " functions)");
      }
      corr.candidates.push_back(c);
    }
    corr.active.reserve(num_cand);
    for (uint64_t k = 0; k < num_cand; ++k) {
      SPES_ASSIGN_OR_RETURN(const uint8_t a, r.U8());
      corr.active.push_back(a);
    }
    corr.co_count.reserve(num_cand);
    for (uint64_t k = 0; k < num_cand; ++k) {
      SPES_ASSIGN_OR_RETURN(const int32_t v, r.I32());
      corr.co_count.push_back(v);
    }
    SPES_ASSIGN_OR_RETURN(corr.target_arrivals, r.I32());
    SPES_ASSIGN_OR_RETURN(corr.grants_since_arrival, r.I32());
    online_corr.push_back(std::move(corr));
  }
  int64_t forgetting = 0, online = 0;
  SPES_ASSIGN_OR_RETURN(forgetting, r.I64());
  SPES_ASSIGN_OR_RETURN(online, r.I64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("spes state blob has trailing bytes");
  }

  states_ = std::move(states);
  links_by_candidate_ = std::move(links_by_candidate);
  online_corr_ = std::move(online_corr);
  forgetting_recategorized_ = forgetting;
  online_recategorized_ = online;
  ResetStepState();
  return Status::OK();
}

void SpesPolicy::ResetStepState() {
  steps_ = 0;  // states_ is fresh: every wt_step is 0
  last_minute_ = -1;
  rebuild_pending_ = true;
  IndexOnlineCorrelations();
}

std::array<int64_t, kNumFunctionTypes> SpesPolicy::CountByType() const {
  std::array<int64_t, kNumFunctionTypes> counts{};
  for (const FunctionState& st : states_) {
    ++counts[static_cast<size_t>(st.model.type)];
  }
  return counts;
}

}  // namespace spes
