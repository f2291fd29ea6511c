#include "sim/stream.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"

namespace spes {

namespace {

/// Format tag of the serialized checkpoint byte stream. Version 1 is the
/// pre-latency layout; version 2 appends one latency-state blob per lane.
/// Streams without a latency block still serialize as version 1, byte for
/// byte, so existing checkpoint goldens (and old readers) are unaffected.
constexpr char kCheckpointMagic[] = "SPESCKPT";
constexpr uint32_t kCheckpointVersion = 1;
constexpr uint32_t kCheckpointVersionLatency = 2;

/// Shared lane validation of the Create() overloads.
Status ValidateStreamPolicies(const std::vector<Policy*>& policies) {
  if (policies.empty()) {
    return Status::InvalidArgument("a SimStream needs at least one policy");
  }
  for (size_t i = 0; i < policies.size(); ++i) {
    if (policies[i] == nullptr) {
      return Status::InvalidArgument("policy must not be null (lane " +
                                     std::to_string(i) + ")");
    }
    for (size_t j = 0; j < i; ++j) {
      if (policies[j] == policies[i]) {
        return Status::InvalidArgument(
            "lockstep lanes must hold distinct policy instances (lanes " +
            std::to_string(j) + " and " + std::to_string(i) +
            " share one)");
      }
    }
  }
  return Status::OK();
}

}  // namespace

/// The words that name a stream in error messages.
constexpr LaneSession::Names kStreamNames{"SimStream", "stream", "lane"};

SimStream::SimStream(TraceSource* source, std::unique_ptr<TraceSource> owned,
                     const SimOptions& options, int end)
    : LaneSession(kStreamNames, source, std::move(owned), options, end) {}

Result<SimStream> SimStream::Create(const Trace& trace, Policy* policy,
                                    const SimOptions& options) {
  return Create(trace, std::vector<Policy*>{policy}, options);
}

Result<SimStream> SimStream::Create(TraceSource& source, Policy* policy,
                                    const SimOptions& options) {
  return Create(source, std::vector<Policy*>{policy}, options);
}

Result<SimStream> SimStream::Create(const Trace& trace,
                                    std::vector<Policy*> policies,
                                    const SimOptions& options) {
  auto owned = std::make_unique<InMemoryTraceSource>(trace);
  TraceSource* source = owned.get();
  return CreateImpl(source, std::move(owned), &trace, std::move(policies),
                    options);
}

Result<SimStream> SimStream::Create(TraceSource& source,
                                    std::vector<Policy*> policies,
                                    const SimOptions& options) {
  return CreateImpl(&source, nullptr, /*full_trace=*/nullptr,
                    std::move(policies), options);
}

Result<SimStream> SimStream::CreateImpl(TraceSource* source,
                                        std::unique_ptr<TraceSource> owned,
                                        const Trace* full_trace,
                                        std::vector<Policy*> policies,
                                        const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateStreamPolicies(policies));
  SPES_ASSIGN_OR_RETURN(const int end,
                        ResolveWindow(source->num_minutes(), options));
  SimStream stream(source, std::move(owned), options, end);
  stream.lanes_.reserve(policies.size());
  for (Policy* policy : policies) stream.AddLane(policy);
  SPES_RETURN_NOT_OK(stream.FinishCreate(
      policies.size() == 1
          ? policies[0]->name()
          : std::to_string(policies.size()) + " lockstep lanes",
      full_trace));
  return stream;
}

FleetMetrics SimStream::SnapshotMetrics(size_t lane_index) const {
  const Lane& lane = lanes_[lane_index];
  std::vector<FunctionAccount> accounts;
  lane.cols.Materialize(cursor_, lane.mem, &accounts);
  return ComputeFleetMetrics(lane.policy->name(), accounts,
                             lane.memory_series, lane.overhead_seconds);
}

Result<std::vector<SimulationOutcome>> SimStream::FinishAll() {
  return FinishLanes();
}

Result<SimulationOutcome> SimStream::Finish() {
  if (lanes_.size() != 1) {
    return Status::InvalidArgument(
        "Finish() requires a single-lane stream (this one has " +
        std::to_string(lanes_.size()) + " lanes); use FinishAll()");
  }
  SPES_ASSIGN_OR_RETURN(std::vector<SimulationOutcome> outcomes, FinishAll());
  return std::move(outcomes[0]);
}

Result<SimCheckpoint> SimStream::Checkpoint() const {
  SimCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(BeginCheckpoint(&checkpoint));
  checkpoint.lanes.resize(lanes_.size());
  for (size_t k = 0; k < lanes_.size(); ++k) {
    SPES_RETURN_NOT_OK(SaveLane(k, &checkpoint.lanes[k]));
  }
  RecordCheckpoint("save");
  return checkpoint;
}

Status SimStream::Restore(const SimCheckpoint& checkpoint) {
  SPES_RETURN_NOT_OK(CheckCursor(checkpoint, checkpoint.lanes.size()));
  std::vector<const LaneCheckpoint*> lanes;
  for (const LaneCheckpoint& lane : checkpoint.lanes) lanes.push_back(&lane);
  return RestoreLanes(lanes, checkpoint);
}

std::string SerializeCheckpoint(const SimCheckpoint& checkpoint) {
  bool has_latency = false;
  for (const SimCheckpoint::Lane& lane : checkpoint.lanes) {
    if (!lane.latency_state.empty()) has_latency = true;
  }
  BinaryWriter w;
  w.PutBytes(kCheckpointMagic);
  w.PutU32(has_latency ? kCheckpointVersionLatency : kCheckpointVersion);
  PutCheckpointCursor(w, checkpoint);
  w.PutU64(checkpoint.lanes.size());
  for (const SimCheckpoint::Lane& lane : checkpoint.lanes) {
    w.PutBytes(lane.policy_name);
    PutLaneCounters(w, lane);
    PutLaneTotals(w, lane);
    w.PutBytes(lane.policy_state);
    if (has_latency) w.PutBytes(lane.latency_state);
  }
  return w.Take();
}

Result<SimCheckpoint> ParseCheckpoint(const std::string& bytes) {
  BinaryReader r(bytes);
  SPES_ASSIGN_OR_RETURN(
      const uint32_t version,
      ReadCheckpointTag(r, kCheckpointMagic, "checkpoint",
                        kCheckpointVersionLatency));
  SimCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(ReadCheckpointCursor(r, &checkpoint));
  // Minimal encoded lane: 80 bytes (empty name/blob/vector prefixes +
  // totals + overhead) — bounds resize() against corrupt counts.
  SPES_ASSIGN_OR_RETURN(const uint64_t num_lanes, r.Length(80));
  checkpoint.lanes.resize(num_lanes);
  for (SimCheckpoint::Lane& lane : checkpoint.lanes) {
    SPES_ASSIGN_OR_RETURN(lane.policy_name, r.Bytes());
    SPES_RETURN_NOT_OK(ReadLaneCounters(r, &lane));
    SPES_RETURN_NOT_OK(ReadLaneTotals(r, &lane));
    SPES_ASSIGN_OR_RETURN(lane.policy_state, r.Bytes());
    if (version >= kCheckpointVersionLatency) {
      SPES_ASSIGN_OR_RETURN(lane.latency_state, r.Bytes());
    }
  }
  SPES_RETURN_NOT_OK(ExpectCheckpointEnd(r, "checkpoint"));
  return checkpoint;
}

}  // namespace spes
