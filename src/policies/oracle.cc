#include "policies/oracle.h"

#include <cassert>
#include <memory>

#include "core/policy_registry.h"

namespace spes {

void RegisterOraclePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "oracle";
  entry.summary =
      "Clairvoyant upper bound: loads exactly one minute ahead of every "
      "invocation";
  entry.factory =
      [](const PolicyParams&) -> Result<std::unique_ptr<Policy>> {
    return std::unique_ptr<Policy>(std::make_unique<OraclePolicy>());
  };
  registry.Register(std::move(entry)).CheckOK();
}

void OraclePolicy::Train(const Trace& trace, int train_minutes) {
  (void)train_minutes;
  trace_ = &trace;
}

void OraclePolicy::Train(const TrainingWindow& window) {
  (void)window;
  trace_ = nullptr;
}

void OraclePolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                            MemSet* mem) {
  (void)arrivals;
  assert(trace_ != nullptr);
  const int next = t + 1;
  const bool has_next = next < trace_->num_minutes();
  for (size_t f = 0; f < trace_->num_functions(); ++f) {
    const bool needed_next =
        has_next &&
        trace_->function(f).counts[static_cast<size_t>(next)] > 0;
    if (needed_next) {
      mem->Add(f);
    } else {
      mem->Remove(f);
    }
  }
}

}  // namespace spes
