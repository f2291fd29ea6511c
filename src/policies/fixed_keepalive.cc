#include "policies/fixed_keepalive.h"

#include <memory>
#include <utility>

#include "common/binary_io.h"
#include "core/policy_registry.h"

namespace spes {

void RegisterFixedKeepAlivePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "fixed_keepalive";
  entry.summary =
      "Industry default: keep each instance warm for a fixed window after "
      "its last use";
  entry.params = {{"minutes", ParamType::kInt, ParamValue(10),
                   "keep-alive window after the last arrival (>= 1)"}};
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    SPES_ASSIGN_OR_RETURN(
        const int64_t minutes,
        IntParamInRange(params, "fixed_keepalive", "minutes", 1));
    return std::unique_ptr<Policy>(
        std::make_unique<FixedKeepAlivePolicy>(static_cast<int>(minutes)));
  };
  registry.Register(std::move(entry)).CheckOK();
}

FixedKeepAlivePolicy::FixedKeepAlivePolicy(int keepalive_minutes)
    : keepalive_minutes_(keepalive_minutes < 1 ? 1 : keepalive_minutes) {}

std::string FixedKeepAlivePolicy::name() const {
  return "Fixed-" + std::to_string(keepalive_minutes_) + "min";
}

void FixedKeepAlivePolicy::Train(const TrainingWindow& window) {
  last_arrival_.assign(window.num_functions(), -1);
}

void FixedKeepAlivePolicy::OnMinute(int t,
                                    const std::vector<Invocation>& arrivals,
                                    MemSet* mem) {
  for (const Invocation& inv : arrivals) last_arrival_[inv.function] = t;
  // Walk only the loaded ids (ascending, like the old full scan); the
  // callback may evict the id it was handed.
  mem->ForEachLoaded([this, t, mem](size_t f) {
    const int last = last_arrival_[f];
    if (last < 0 || t - last >= keepalive_minutes_) mem->Remove(f);
  });
}

Result<std::string> FixedKeepAlivePolicy::SaveState() const {
  BinaryWriter w;
  w.PutI32(keepalive_minutes_);
  w.PutU64(last_arrival_.size());
  for (int last : last_arrival_) w.PutI32(last);
  return w.Take();
}

Status FixedKeepAlivePolicy::RestoreState(const std::string& blob) {
  BinaryReader r(blob);
  SPES_ASSIGN_OR_RETURN(const int32_t minutes, r.I32());
  if (minutes != keepalive_minutes_) {
    return Status::InvalidArgument(
        "checkpoint was taken with keepalive minutes (=" +
        std::to_string(minutes) + ") but this policy has (=" +
        std::to_string(keepalive_minutes_) + ")");
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t n, r.Length(4));
  // The blob must describe the fleet this policy was trained on —
  // OnMinute indexes last_arrival_ by function id, so restoring a
  // different fleet size would read/write out of bounds.
  if (n != last_arrival_.size()) {
    return Status::InvalidArgument(
        "fixed_keepalive state blob describes (=" + std::to_string(n) +
        ") functions but this policy was trained on (=" +
        std::to_string(last_arrival_.size()) + ")");
  }
  std::vector<int> restored;
  restored.reserve(n);
  for (uint64_t f = 0; f < n; ++f) {
    SPES_ASSIGN_OR_RETURN(const int32_t last, r.I32());
    restored.push_back(last);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "fixed_keepalive state blob has trailing bytes");
  }
  last_arrival_ = std::move(restored);
  return Status::OK();
}

}  // namespace spes
