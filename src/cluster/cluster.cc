#include "cluster/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/binary_io.h"

namespace spes {

namespace {

/// Format tag of the serialized cluster checkpoint byte stream. The
/// format postdates the latency subsystem, so version 1 always carries
/// one latency-state blob per node (empty when the run has no latency
/// block) — no conditional layout like the SimStream checkpoint needs.
constexpr char kClusterCheckpointMagic[] = "SPESCLCK";
constexpr uint32_t kClusterCheckpointVersion = 1;

void PutI32s(BinaryWriter& w, const std::vector<int32_t>& values) {
  w.PutU64(values.size());
  for (int32_t v : values) w.PutI32(v);
}

Status ReadI32s(BinaryReader& r, std::vector<int32_t>* values) {
  SPES_ASSIGN_OR_RETURN(const uint64_t count, r.Length(4));
  values->resize(count);
  for (int32_t& v : *values) {
    SPES_ASSIGN_OR_RETURN(v, r.I32());
  }
  return Status::OK();
}

/// Typed accessor over a parsed node-event spec: `name` must be a declared
/// int parameter of the event kind; errors mirror the registry wording.
/// The ceiling keeps every accepted value representable as an `int`, so
/// the NodeEvent fields never truncate.
Result<int64_t> EventIntParam(const NamedSpec& spec, const std::string& name,
                              bool required, int64_t min_value) {
  constexpr int64_t kMaxValue = 2147483647;
  auto it = spec.params.find(name);
  if (it == spec.params.end()) {
    if (!required) return int64_t{-1};
    return Status::InvalidArgument("node event '" + spec.name +
                                   "' is missing required parameter '" +
                                   name + "'");
  }
  if (it->second.type() != ParamType::kInt) {
    return Status::InvalidArgument(
        "node event '" + spec.name + "' parameter '" + name +
        "' expects int, got " + ParamTypeToString(it->second.type()) + " (=" +
        FormatParamValue(it->second) + ")");
  }
  const int64_t value = it->second.AsInt();
  if (value < min_value || value > kMaxValue) {
    return Status::InvalidArgument(
        "node event '" + spec.name + "' parameter '" + name + "' (=" +
        std::to_string(value) + ") must be in [" +
        std::to_string(min_value) + ", " + std::to_string(kMaxValue) + "]");
  }
  return value;
}

}  // namespace

const char* NodeEventKindToString(NodeEvent::Kind kind) {
  switch (kind) {
    case NodeEvent::Kind::kAdd:
      return "add";
    case NodeEvent::Kind::kDrain:
      return "drain";
    case NodeEvent::Kind::kFail:
      return "fail";
  }
  return "unknown";
}

Result<NodeEvent> ParseNodeEvent(const std::string& text) {
  SPES_ASSIGN_OR_RETURN(const NamedSpec spec,
                        ParseNamedSpec(text, "node event"));
  NodeEvent event;
  if (spec.name == "add") {
    event.kind = NodeEvent::Kind::kAdd;
  } else if (spec.name == "drain") {
    event.kind = NodeEvent::Kind::kDrain;
  } else if (spec.name == "fail") {
    event.kind = NodeEvent::Kind::kFail;
  } else {
    return Status::InvalidArgument("unknown node event '" + spec.name +
                                   "'; expected add, drain or fail");
  }
  const bool is_add = event.kind == NodeEvent::Kind::kAdd;
  for (const auto& [key, value] : spec.params) {
    (void)value;
    const bool known =
        key == "at" || (is_add ? key == "capacity" : key == "node");
    if (!known) {
      return Status::InvalidArgument("node event '" + spec.name +
                                     "' does not accept parameter '" + key +
                                     "'");
    }
  }
  SPES_ASSIGN_OR_RETURN(const int64_t at,
                        EventIntParam(spec, "at", /*required=*/true, 0));
  event.minute = static_cast<int>(at);
  if (is_add) {
    SPES_ASSIGN_OR_RETURN(
        const int64_t capacity,
        EventIntParam(spec, "capacity", /*required=*/false, 0));
    event.capacity = static_cast<int>(capacity);
  } else {
    SPES_ASSIGN_OR_RETURN(const int64_t node,
                          EventIntParam(spec, "node", /*required=*/true, 0));
    event.node = static_cast<int>(node);
  }
  return event;
}

std::string FormatNodeEvent(const NodeEvent& event) {
  NamedSpec spec;
  spec.name = NodeEventKindToString(event.kind);
  spec.params.emplace("at", ParamValue(event.minute));
  if (event.kind == NodeEvent::Kind::kAdd) {
    if (event.capacity >= 0) {
      spec.params.emplace("capacity", ParamValue(event.capacity));
    }
  } else {
    spec.params.emplace("node", ParamValue(event.node));
  }
  return FormatNamedSpec(spec);
}

Result<std::vector<NodeEvent>> ParseNodeEventTimeline(
    const std::string& text) {
  std::vector<NodeEvent> events;
  // A fully blank string is the empty timeline; an empty segment between
  // bars ("a||b", "|a") is a syntax error.
  if (text.find_first_not_of(" \t") == std::string::npos) return events;
  size_t start = 0;
  while (true) {
    const size_t bar = text.find('|', start);
    const size_t item_end = bar == std::string::npos ? text.size() : bar;
    const std::string item = text.substr(start, item_end - start);
    if (item.find_first_not_of(" \t") == std::string::npos) {
      return Status::InvalidArgument("node event timeline '" + text +
                                     "' has an empty entry");
    }
    SPES_ASSIGN_OR_RETURN(NodeEvent event, ParseNodeEvent(item));
    events.push_back(event);
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return events;
}

std::string FormatNodeEventTimeline(const std::vector<NodeEvent>& events) {
  std::string text;
  for (const NodeEvent& event : events) {
    if (!text.empty()) text += " | ";
    text += FormatNodeEvent(event);
  }
  return text;
}

Status ValidateClusterSpec(const ClusterSpec& spec) {
  if (spec.nodes < 1) {
    return Status::InvalidArgument("ClusterSpec.nodes (=" +
                                   std::to_string(spec.nodes) +
                                   ") must be >= 1");
  }
  if (spec.node_capacity < 0) {
    return Status::InvalidArgument(
        "ClusterSpec.node_capacity (=" + std::to_string(spec.node_capacity) +
        ") must be >= 0 (0 = uncapped)");
  }
  if (spec.router.name.empty()) {
    return Status::InvalidArgument("ClusterSpec.router.name must not be "
                                   "empty");
  }
  // Replay the timeline over the evolving node set: every drain/fail must
  // target a node that exists and is still alive when the event fires,
  // and at least one routable node must remain at every point.
  int total = spec.nodes;
  int routable = spec.nodes;
  // 0 = routable, 1 = draining, 2 = failed.
  std::vector<int> state(static_cast<size_t>(spec.nodes), 0);
  int previous_minute = 0;
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const NodeEvent& event = spec.events[i];
    const std::string where = "ClusterSpec.events[" + std::to_string(i) +
                              "] (" + FormatNodeEvent(event) + ")";
    if (event.minute < 0) {
      return Status::InvalidArgument(where + ": minute must be >= 0");
    }
    if (i > 0 && event.minute < previous_minute) {
      return Status::InvalidArgument(
          where + ": events must be sorted by minute (previous event is at "
                  "minute " +
          std::to_string(previous_minute) + ")");
    }
    previous_minute = event.minute;
    switch (event.kind) {
      case NodeEvent::Kind::kAdd:
        if (event.capacity < -1) {
          return Status::InvalidArgument(
              where + ": capacity must be >= 0, or -1 for the cluster "
                      "default");
        }
        state.push_back(0);
        ++total;
        ++routable;
        break;
      case NodeEvent::Kind::kDrain:
      case NodeEvent::Kind::kFail: {
        if (event.node < 0 || event.node >= total) {
          return Status::InvalidArgument(
              where + ": node is out of range (the cluster has " +
              std::to_string(total) + " nodes at that point)");
        }
        int& s = state[static_cast<size_t>(event.node)];
        if (s == 2) {
          return Status::InvalidArgument(where +
                                         ": node has already failed");
        }
        if (event.kind == NodeEvent::Kind::kDrain) {
          if (s == 1) {
            return Status::InvalidArgument(where +
                                           ": node is already draining");
          }
          s = 1;
          --routable;
        } else {
          if (s == 0) --routable;
          s = 2;
        }
        if (routable < 1) {
          return Status::InvalidArgument(
              where + ": the cluster would be left with no routable node");
        }
        break;
      }
    }
  }
  return Status::OK();
}

/// The words that name a cluster session in error messages.
constexpr LaneSession::Names kClusterNames{"ClusterSession", "session",
                                           "node"};

ClusterSession::ClusterSession(TraceSource* source,
                               std::unique_ptr<TraceSource> owned,
                               const SimOptions& options, int end)
    : LaneSession(kClusterNames, source, std::move(owned), options, end),
      assignment_(source->num_functions(), -1) {}

Result<ClusterSession> ClusterSession::CreateImpl(
    TraceSource* source, std::unique_ptr<TraceSource> owned,
    const Trace* full_trace, const ClusterSpec& cluster,
    const PolicySpec& policy, const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateClusterSpec(cluster));
  SPES_ASSIGN_OR_RETURN(const int end,
                        ResolveWindow(source->num_minutes(), options));

  SPES_ASSIGN_OR_RETURN(std::unique_ptr<Router> router,
                        RouterRegistry::Global().Create(cluster.router));

  ClusterSession session(source, std::move(owned), options, end);
  session.router_ = std::move(router);
  session.events_ = cluster.events;

  // One trained policy per node id — including nodes that only join via
  // an add event, so a joining node is ready the minute it appears.
  const size_t n = source->num_functions();
  size_t total_nodes = static_cast<size_t>(cluster.nodes);
  for (const NodeEvent& event : cluster.events) {
    if (event.kind == NodeEvent::Kind::kAdd) ++total_nodes;
  }
  session.nodes_.reserve(total_nodes);
  session.lanes_.reserve(total_nodes);
  size_t add_index = 0;
  for (size_t k = 0; k < total_nodes; ++k) {
    Node node;
    if (k < static_cast<size_t>(cluster.nodes)) {
      node.state = NodeState::kRoutable;
      node.capacity = cluster.node_capacity;
    } else {
      node.state = NodeState::kPending;
      // Pending ids map to add events in timeline order.
      while (session.events_[add_index].kind != NodeEvent::Kind::kAdd) {
        ++add_index;
      }
      const int capacity = session.events_[add_index].capacity;
      node.capacity = capacity >= 0 ? capacity : cluster.node_capacity;
      ++add_index;
    }
    SPES_ASSIGN_OR_RETURN(node.policy, PolicyRegistry::Global().Create(policy));
    session.AddLane(node.policy.get());
    node.last_used.assign(n, -1);
    session.nodes_.push_back(std::move(node));
  }
  SPES_RETURN_NOT_OK(session.FinishCreate(
      std::to_string(total_nodes) + "-node cluster", full_trace));
  return session;
}

Result<ClusterSession> ClusterSession::Create(const Trace& trace,
                                              const ClusterSpec& cluster,
                                              const PolicySpec& policy,
                                              const SimOptions& options) {
  auto owned = std::make_unique<InMemoryTraceSource>(trace);
  TraceSource* source = owned.get();
  return CreateImpl(source, std::move(owned), &trace, cluster, policy,
                    options);
}

Result<ClusterSession> ClusterSession::Create(TraceSource& source,
                                              const ClusterSpec& cluster,
                                              const PolicySpec& policy,
                                              const SimOptions& options) {
  return CreateImpl(&source, nullptr, /*full_trace=*/nullptr, cluster, policy,
                    options);
}

void ClusterSession::ApplyEvents(int t) {
  while (event_index_ < events_.size() &&
         events_[event_index_].minute <= t) {
    const NodeEvent& event = events_[event_index_++];
    switch (event.kind) {
      case NodeEvent::Kind::kAdd: {
        // Pending nodes activate in id order (ids were assigned in
        // timeline order at Create).
        for (Node& node : nodes_) {
          if (node.state == NodeState::kPending) {
            node.state = NodeState::kRoutable;
            break;
          }
        }
        break;
      }
      case NodeEvent::Kind::kDrain:
        nodes_[static_cast<size_t>(event.node)].state = NodeState::kDraining;
        break;
      case NodeEvent::Kind::kFail: {
        const size_t k = static_cast<size_t>(event.node);
        nodes_[k].state = NodeState::kFailed;
        // The instances are lost. Closing their residency intervals at
        // this minute keeps the minutes they were loaded in the accounts.
        Lane& lane = lanes_[k];
        lane.mem = MemSet(source_->num_functions());
        lane.cols.AccrueResidency(t, lane.mem);
        break;
      }
    }
  }
}

void ClusterSession::EnforceCapacity(size_t k, int t) {
  Node& node = nodes_[k];
  MemSet& mem = lanes_[k].mem;
  if (node.capacity <= 0) return;
  const size_t capacity = static_cast<size_t>(node.capacity);
  if (mem.Count() <= capacity) return;

  // Idle instances (not executing this minute, unless pinning is off) in
  // LRU order by last arrival on this node; ties evict the lowest id.
  std::vector<std::pair<int32_t, uint32_t>>& candidates =
      node.evict_candidates;
  candidates.clear();
  const bool pin = options_.pin_executing_functions;
  mem.ForEachLoaded([&node, pin, t, &candidates](size_t f) {
    if (pin && node.last_used[f] == t) return;
    candidates.emplace_back(node.last_used[f], static_cast<uint32_t>(f));
  });
  size_t excess = mem.Count() - capacity;
  if (candidates.size() > excess) {
    std::partial_sort(candidates.begin(), candidates.begin() + excess,
                      candidates.end());
    candidates.resize(excess);
  } else {
    // Everything evictable goes; executing instances may keep the node
    // above capacity for this minute (executions occupy memory).
    std::sort(candidates.begin(), candidates.end());
  }
  for (const auto& [used, f] : candidates) {
    (void)used;
    mem.Remove(f);
    ++node.pressure_evictions;
  }
}

Status ClusterSession::RouteMinute(int t) {
  ApplyEvents(t);

  // Routing views: live load at the start of the minute, bumped as
  // arrivals are routed so intra-minute bursts spread.
  views_.clear();
  views_.reserve(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& node = nodes_[k];
    node.arrivals.clear();
    NodeView view;
    view.node = static_cast<int>(k);
    view.routable = node.state == NodeState::kRoutable;
    view.capacity = node.capacity;
    view.projected_load = NodeLive(node) ? lanes_[k].mem.Count() : 0;
    views_.push_back(view);
  }

  for (const Invocation& inv : arrivals_) {
    const uint32_t f = inv.function;
    const int32_t prev = assignment_[f];
    int target = -1;
    if (prev >= 0) {
      const size_t p = static_cast<size_t>(prev);
      if (nodes_[p].state == NodeState::kDraining && lanes_[p].mem.Contains(f)) {
        // Drain-sticky: the warm instance keeps serving; no new
        // assignment is made on a draining node.
        target = prev;
      }
    }
    if (target < 0) {
      RoutingContext context;
      context.function = f;
      context.function_name = &source_->function_meta(f).name;
      context.previous_node =
          (prev >= 0 &&
           nodes_[static_cast<size_t>(prev)].state == NodeState::kRoutable)
              ? prev
              : -1;
      context.nodes = &views_;
      target = router_->Route(context);
      if (target < 0 || target >= static_cast<int>(nodes_.size()) ||
          !views_[static_cast<size_t>(target)].routable) {
        return Status::Internal(
            "router '" + router_->name() + "' returned node (=" +
            std::to_string(target) + ") which is not routable at minute " +
            std::to_string(t));
      }
      if (prev >= 0 && target != prev) {
        ++reroutes_;
        ++nodes_[static_cast<size_t>(target)].reroutes_in;
      }
      assignment_[f] = static_cast<int32_t>(target);
    }
    const size_t serving = static_cast<size_t>(target);
    if (!lanes_[serving].mem.Contains(f)) ++views_[serving].projected_load;
    nodes_[serving].arrivals.push_back(inv);
  }
  return Status::OK();
}

void ClusterSession::StepLaneAt(size_t k, int t) {
  Node& node = nodes_[k];
  Lane& lane = lanes_[k];
  if (!NodeLive(node)) {
    lane.memory_series.push_back(0);
    if (lane.latency != nullptr) {
      // No arrivals route here (node.arrivals was cleared by routing),
      // but the queue keeps draining: requests admitted before the node
      // died or drained still complete, and waiters still time out on
      // schedule.
      lane.cold_flags.clear();
      lane.latency->OnMinute(t, node.arrivals, lane.cold_flags);
    }
    return;
  }
  // The eviction hook stamps the LRU clock with this minute's arrivals,
  // then sheds idle instances above the node's capacity.
  StepLane(lane, t, node.arrivals, options_.pin_executing_functions,
           [this, k](int minute) {
             for (const Invocation& inv : nodes_[k].arrivals) {
               nodes_[k].last_used[inv.function] = minute;
             }
             EnforceCapacity(k, minute);
           });
}

const std::vector<Invocation>* ClusterSession::ReportedArrivals(
    size_t k) const {
  return NodeLive(nodes_[k]) ? &nodes_[k].arrivals : nullptr;
}

Result<ClusterOutcome> ClusterSession::Finish() {
  SPES_ASSIGN_OR_RETURN(std::vector<SimulationOutcome> sims, FinishLanes());
  const size_t n = source_->num_functions();
  const std::string policy_name = lanes_[0].policy->name();

  ClusterOutcome outcome;
  outcome.reroutes = reroutes_;

  // Fleet-wide aggregate: per-function accounts and the memory series are
  // element-wise sums over nodes; every derived metric comes from the
  // sums, so a single-node cluster reproduces the plain engine exactly.
  std::vector<FunctionAccount> fleet_accounts(n);
  std::vector<uint32_t> fleet_series;
  double fleet_overhead = 0.0;
  // Fleet latency: the exact histogram merge of every node's outcome
  // (fixed bucket geometry makes the merge lossless).
  const bool has_latency = lanes_[0].latency != nullptr;
  LatencyOutcome fleet_latency;

  static constexpr const char* kStateNames[] = {"pending", "routable",
                                                "draining", "failed"};
  outcome.nodes.reserve(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& node = nodes_[k];
    NodeOutcome out;
    out.node = static_cast<int>(k);
    out.final_state = kStateNames[static_cast<size_t>(node.state)];
    out.pressure_evictions = node.pressure_evictions;
    out.reroutes_in = node.reroutes_in;
    fleet_overhead += lanes_[k].overhead_seconds;
    out.sim = std::move(sims[k]);
    for (size_t f = 0; f < n; ++f) {
      const FunctionAccount& acc = out.sim.accounts[f];
      FunctionAccount& agg = fleet_accounts[f];
      agg.invocations += acc.invocations;
      agg.invoked_minutes += acc.invoked_minutes;
      agg.cold_starts += acc.cold_starts;
      agg.loaded_minutes += acc.loaded_minutes;
      agg.wasted_minutes += acc.wasted_minutes;
    }
    const std::vector<uint32_t>& series = out.sim.memory_series;
    if (fleet_series.size() < series.size()) {
      fleet_series.resize(series.size(), 0);
    }
    for (size_t i = 0; i < series.size(); ++i) fleet_series[i] += series[i];
    if (out.sim.latency != nullptr) {
      MergeLatencyOutcome(&fleet_latency, *out.sim.latency);
    }
    out.policy = std::move(node.policy);
    lanes_[k].policy = nullptr;  // the outcome owns it now
    outcome.nodes.push_back(std::move(out));
  }

  outcome.fleet.metrics = ComputeFleetMetrics(policy_name, fleet_accounts,
                                              fleet_series, fleet_overhead);
  outcome.fleet.accounts = std::move(fleet_accounts);
  outcome.fleet.memory_series = std::move(fleet_series);
  if (has_latency) {
    FinalizeLatencyOutcome(&fleet_latency);
    outcome.fleet.latency =
        std::make_shared<const LatencyOutcome>(std::move(fleet_latency));
  }
  return outcome;
}

Result<ClusterCheckpoint> ClusterSession::Checkpoint() const {
  ClusterCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(BeginCheckpoint(&checkpoint));
  checkpoint.reroutes = reroutes_;
  checkpoint.event_index = event_index_;
  checkpoint.assignment = assignment_;
  checkpoint.nodes.resize(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const Node& node = nodes_[k];
    ClusterCheckpoint::Node& out = checkpoint.nodes[k];
    SPES_RETURN_NOT_OK(SaveLane(k, &out));
    out.state = static_cast<uint8_t>(node.state);
    out.capacity = node.capacity;
    out.last_used = node.last_used;
    out.pressure_evictions = node.pressure_evictions;
    out.reroutes_in = node.reroutes_in;
  }
  RecordCheckpoint("save");
  return checkpoint;
}

Status ClusterSession::Restore(const ClusterCheckpoint& checkpoint) {
  SPES_RETURN_NOT_OK(CheckCursor(checkpoint, checkpoint.nodes.size()));
  const size_t n = source_->num_functions();
  if (checkpoint.event_index > events_.size()) {
    return Status::InvalidArgument(
        "checkpoint event_index (=" + std::to_string(checkpoint.event_index) +
        ") exceeds this session's timeline (=" +
        std::to_string(events_.size()) + " events)");
  }
  if (checkpoint.assignment.size() != n) {
    return Status::InvalidArgument(
        "checkpoint assignment is sized for (=" +
        std::to_string(checkpoint.assignment.size()) +
        ") functions, expected (=" + std::to_string(n) + ")");
  }
  for (size_t f = 0; f < n; ++f) {
    const int32_t a = checkpoint.assignment[f];
    if (a < -1 || a >= static_cast<int32_t>(nodes_.size())) {
      return Status::InvalidArgument(
          "checkpoint assignment[" + std::to_string(f) + "] (=" +
          std::to_string(a) + ") is outside [-1, " +
          std::to_string(nodes_.size() - 1) + "]");
    }
  }
  std::vector<const LaneCheckpoint*> lanes;
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterCheckpoint::Node& in = checkpoint.nodes[k];
    const std::string where = "checkpoint node " + std::to_string(k);
    if (in.state > static_cast<uint8_t>(NodeState::kFailed)) {
      return Status::InvalidArgument(where + " state (=" +
                                     std::to_string(in.state) +
                                     ") is not a node lifecycle state");
    }
    if (in.capacity != nodes_[k].capacity) {
      return Status::InvalidArgument(
          where + " capacity (=" + std::to_string(in.capacity) +
          ") does not match this session's cluster spec (=" +
          std::to_string(nodes_[k].capacity) + ")");
    }
    if (in.last_used.size() != n) {
      return Status::InvalidArgument(
          where + " LRU clock is sized for (=" +
          std::to_string(in.last_used.size()) + ") functions, expected (=" +
          std::to_string(n) + ")");
    }
    lanes.push_back(&in);
  }

  SPES_RETURN_NOT_OK(RestoreLanes(lanes, checkpoint));
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterCheckpoint::Node& in = checkpoint.nodes[k];
    Node& node = nodes_[k];
    node.state = static_cast<NodeState>(in.state);
    node.last_used = in.last_used;
    node.pressure_evictions = in.pressure_evictions;
    node.reroutes_in = in.reroutes_in;
  }
  reroutes_ = checkpoint.reroutes;
  event_index_ = static_cast<size_t>(checkpoint.event_index);
  assignment_ = checkpoint.assignment;
  return Status::OK();
}

std::string SerializeClusterCheckpoint(const ClusterCheckpoint& checkpoint) {
  BinaryWriter w;
  w.PutBytes(kClusterCheckpointMagic);
  w.PutU32(kClusterCheckpointVersion);
  PutCheckpointCursor(w, checkpoint);
  w.PutU64(checkpoint.reroutes);
  w.PutU64(checkpoint.event_index);
  PutI32s(w, checkpoint.assignment);
  w.PutU64(checkpoint.nodes.size());
  for (const ClusterCheckpoint::Node& node : checkpoint.nodes) {
    w.PutBytes(node.policy_name);
    w.PutU8(node.state);
    w.PutI32(node.capacity);
    PutLaneCounters(w, node);
    PutI32s(w, node.last_used);
    PutLaneTotals(w, node);
    w.PutU64(node.pressure_evictions);
    w.PutU64(node.reroutes_in);
    w.PutBytes(node.policy_state);
    w.PutBytes(node.latency_state);
  }
  return w.Take();
}

Result<ClusterCheckpoint> ParseClusterCheckpoint(const std::string& bytes) {
  BinaryReader r(bytes);
  SPES_RETURN_NOT_OK(ReadCheckpointTag(r, kClusterCheckpointMagic,
                                       "cluster checkpoint",
                                       kClusterCheckpointVersion)
                         .status());
  ClusterCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(ReadCheckpointCursor(r, &checkpoint));
  SPES_ASSIGN_OR_RETURN(checkpoint.reroutes, r.U64());
  SPES_ASSIGN_OR_RETURN(checkpoint.event_index, r.U64());
  SPES_RETURN_NOT_OK(ReadI32s(r, &checkpoint.assignment));
  // Minimal encoded node: 117 bytes (empty name/blob/vector prefixes +
  // state + capacity + totals + overhead + cluster counters) — bounds
  // resize() against corrupt counts.
  SPES_ASSIGN_OR_RETURN(const uint64_t num_nodes, r.Length(117));
  checkpoint.nodes.resize(num_nodes);
  for (ClusterCheckpoint::Node& node : checkpoint.nodes) {
    SPES_ASSIGN_OR_RETURN(node.policy_name, r.Bytes());
    SPES_ASSIGN_OR_RETURN(node.state, r.U8());
    SPES_ASSIGN_OR_RETURN(node.capacity, r.I32());
    SPES_RETURN_NOT_OK(ReadLaneCounters(r, &node));
    SPES_RETURN_NOT_OK(ReadI32s(r, &node.last_used));
    SPES_RETURN_NOT_OK(ReadLaneTotals(r, &node));
    SPES_ASSIGN_OR_RETURN(node.pressure_evictions, r.U64());
    SPES_ASSIGN_OR_RETURN(node.reroutes_in, r.U64());
    SPES_ASSIGN_OR_RETURN(node.policy_state, r.Bytes());
    SPES_ASSIGN_OR_RETURN(node.latency_state, r.Bytes());
  }
  SPES_RETURN_NOT_OK(ExpectCheckpointEnd(r, "cluster checkpoint"));
  return checkpoint;
}

}  // namespace spes
