#include "cluster/cluster.h"

#include <algorithm>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "common/binary_io.h"
#include "obs/clock.h"
#include "obs/recorder.h"

namespace spes {

namespace {

/// Format tag of the serialized cluster checkpoint byte stream. The
/// format postdates the latency subsystem, so version 1 always carries
/// one latency-state blob per node (empty when the run has no latency
/// block) — no conditional layout like the SimStream checkpoint needs.
constexpr char kClusterCheckpointMagic[] = "SPESCLCK";
constexpr uint32_t kClusterCheckpointVersion = 1;

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

/// Participants in the per-node phase: SimOptions::step_threads, with 0
/// meaning every hardware thread, capped at one per node.
int ResolveStepThreads(int requested, size_t nodes) {
  size_t threads = static_cast<size_t>(requested);
  if (requested == 0) threads = std::thread::hardware_concurrency();
  threads = std::min(threads, nodes);
  return threads < 1 ? 1 : static_cast<int>(threads);
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

ClusterSession::ClusterSession(TraceSource* source,
                               std::unique_ptr<TraceSource> owned,
                               const SimOptions& options, int end)
    : owned_source_(std::move(owned)),
      source_(source),
      options_(options),
      start_(options.train_minutes),
      end_(end),
      cursor_(options.train_minutes),
      assignment_(source->num_functions(), -1),
      decoder_(source) {}

Result<ClusterSession> ClusterSession::CreateImpl(
    TraceSource* source, std::unique_ptr<TraceSource> owned,
    const Trace* full_trace, const ClusterSpec& cluster,
    const PolicySpec& policy, const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateClusterSpec(cluster));
  SPES_RETURN_NOT_OK(ValidateSimOptions(options));
  const int horizon = source->num_minutes();
  if (options.train_minutes > horizon) {
    return Status::InvalidArgument(
        "SimOptions.train_minutes (=" + std::to_string(options.train_minutes) +
        ") exceeds the trace horizon (=" + std::to_string(horizon) +
        " minutes)");
  }
  const int end = options.end_minute > 0
                      ? std::min(options.end_minute, horizon)
                      : horizon;

  SPES_ASSIGN_OR_RETURN(std::unique_ptr<Router> router,
                        RouterRegistry::Global().Create(cluster.router));

  // Streamed sources only materialize the train prefix — once, shared by
  // every node's policy. The in-memory overload keeps handing policies
  // the real full trace, preserving oracle behaviour bit for bit.
  Trace train_prefix;
  if (full_trace == nullptr) {
    SPES_ASSIGN_OR_RETURN(train_prefix,
                          source->MaterializePrefix(options.train_minutes));
  }
  const Trace& training = full_trace != nullptr ? *full_trace : train_prefix;

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
    if (full_trace == nullptr && node.policy->RequiresFullTrace()) {
      return Status::InvalidArgument(
          "policy '" + node.policy->name() +
          "' requires the full realized trace, but a streamed source only "
          "materializes the train prefix; run it over an in-memory Trace");
    }
    {
      const ScopedSpan span(options.recorder, "train", options.recorder_slot,
                            static_cast<int>(session.nodes_.size()),
                            node.policy->name());
      node.policy->Train(training, options.train_minutes);
    }
    node.mem = MemSet(n);
    node.accounts.assign(n, FunctionAccount{});
    node.last_used.assign(n, -1);
    node.memory_series.reserve(
        static_cast<size_t>(end - options.train_minutes));
    session.nodes_.push_back(std::move(node));
  }
  session.step_threads_ = ResolveStepThreads(options.step_threads, total_nodes);
  if (options.latency.has_value()) {
    const LatencySpec& latency = *options.latency;
    // One shared hash table: the keys depend only on function names and
    // the latency seed, never on placement, so every node samples the
    // same per-request stream a single-fleet run would.
    session.latency_hashes_ = std::make_shared<const std::vector<uint64_t>>(
        ComputeFunctionHashes(*source, latency.seed));
    for (Node& node : session.nodes_) {
      SPES_ASSIGN_OR_RETURN(
          node.latency, CreateLatencyLane(latency, session.latency_hashes_));
    }
  }
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

void ClusterSession::AddObserver(SimObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
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
        Node& node = nodes_[static_cast<size_t>(event.node)];
        node.state = NodeState::kFailed;
        node.mem = MemSet(source_->num_functions());  // instances lost
        break;
      }
    }
  }
}

void ClusterSession::EnforceCapacity(Node* node, int t) const {
  if (node->capacity <= 0) return;
  const size_t capacity = static_cast<size_t>(node->capacity);
  if (node->mem.Count() <= capacity) return;

  // Idle instances (not executing this minute, unless pinning is off) in
  // LRU order by last arrival on this node; ties evict the lowest id.
  std::vector<std::pair<int32_t, uint32_t>>& candidates =
      node->evict_candidates;
  candidates.clear();
  node->mem.ForEachLoaded([this, node, t, &candidates](size_t f) {
    if (options_.pin_executing_functions && node->last_used[f] == t) return;
    candidates.emplace_back(node->last_used[f], static_cast<uint32_t>(f));
  });
  size_t excess = node->mem.Count() - capacity;
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
    node->mem.Remove(f);
    ++node->pressure_evictions;
  }
}

void ClusterSession::EnsureStarted() {
  if (started_) return;
  started_ = true;
  if (options_.recorder != nullptr) {
    simulate_span_ = options_.recorder->BeginSpan(
        "simulate", options_.recorder_slot, 0,
        std::to_string(nodes_.size()) + "-node cluster");
  }
  StreamInfo info;
  info.train_minutes = options_.train_minutes;
  info.start_minute = start_;
  info.end_minute = end_;
  info.num_lanes = nodes_.size();
  info.num_functions = source_->num_functions();
  for (SimObserver* observer : observers_) observer->OnStreamStart(info);
}

Status ClusterSession::StepLocked() {
  const int t = cursor_;

  ApplyEvents(t);

  // Decode this minute's arrivals ONCE; every node shares the decode. The
  // block-transposing decoder makes this O(arrivals) amortized.
  const std::span<const Invocation> decoded = decoder_.Decode(t);
  SPES_RETURN_NOT_OK(decoder_.status());
  arrivals_.assign(decoded.begin(), decoded.end());
  ++minutes_decoded_;

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
    view.projected_load = NodeLive(node) ? node.mem.Count() : 0;
    views_.push_back(view);
  }

  for (const Invocation& inv : arrivals_) {
    const uint32_t f = inv.function;
    const int32_t prev = assignment_[f];
    int target = -1;
    if (prev >= 0) {
      Node& previous = nodes_[static_cast<size_t>(prev)];
      if (previous.state == NodeState::kDraining &&
          previous.mem.Contains(f)) {
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
    Node& serving = nodes_[static_cast<size_t>(target)];
    if (!serving.mem.Contains(f)) {
      ++views_[static_cast<size_t>(target)].projected_load;
    }
    serving.arrivals.push_back(inv);
  }

  // Phase 2: every node's own work. Each task touches only its node, so
  // node k may run on any participant; results never depend on which.
  if (step_threads_ > 1 && pool_ == nullptr) {
    try {
      pool_ = std::make_unique<ForkJoinPool>(step_threads_);
    } catch (const std::system_error&) {
      step_threads_ = 1;  // no threads to be had: stay serial
    }
  }
  if (pool_ != nullptr) {
    pool_->Run(nodes_.size(), [this, t](size_t k) { StepNode(&nodes_[k], t); });
  } else {
    for (Node& node : nodes_) StepNode(&node, t);
  }

  // Phase 3, back on the calling thread and in node order: observers and
  // heartbeats see each live node exactly as the serial loop left it.
  bool stop_requested = false;
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& node = nodes_[k];
    if (!NodeLive(node)) continue;

    if (!observers_.empty()) {
      MinuteView view;
      view.minute = t;
      view.lane = k;
      view.policy = node.policy.get();
      view.arrivals = &node.arrivals;
      view.mem = &node.mem;
      view.accounts = &node.accounts;
      view.memory_series = &node.memory_series;
      view.totals = node.totals;
      if (node.latency != nullptr) view.latency = &node.latency->live();
      for (SimObserver* observer : observers_) {
        if (!observer->OnMinute(view)) stop_requested = true;
      }
    }

    if (options_.recorder != nullptr) {
      // Strided per-node heartbeat on simulated-minute boundaries: the
      // sampled counters are a pure function of sim state, so recorded
      // and unrecorded runs stay bitwise-identical.
      const int stride = options_.recorder->heartbeat_minute_stride();
      if ((t + 1 - start_) % stride == 0 || t + 1 == end_) {
        RunRecorder::Heartbeat heartbeat;
        heartbeat.slot = options_.recorder_slot;
        heartbeat.lane = static_cast<int>(k);
        heartbeat.minute = t;
        heartbeat.invocations = node.totals.invocations;
        heartbeat.cold_starts = node.totals.cold_starts;
        heartbeat.loaded_instance_minutes =
            node.totals.loaded_instance_minutes;
        heartbeat.wasted_memory_minutes = node.totals.wasted_memory_minutes;
        heartbeat.loaded_instances = static_cast<uint32_t>(node.mem.Count());
        if (node.latency != nullptr) {
          heartbeat.queue_depth = node.latency->live().queue_depth;
        }
        options_.recorder->EmitHeartbeat(heartbeat);
      }
    }
  }

  ++cursor_;
  if (stop_requested) stopped_ = true;
  return Status::OK();
}

void ClusterSession::StepNode(Node* node_ptr, int t) const {
  Node& node = *node_ptr;
  if (!NodeLive(node)) {
    node.memory_series.push_back(0);
    if (node.latency != nullptr) {
      // No arrivals route here (node.arrivals was cleared by routing),
      // but the queue keeps draining: requests admitted before the node
      // died or drained still complete, and waiters still time out on
      // schedule.
      node.cold_flags.clear();
      node.latency->OnMinute(t, node.arrivals, node.cold_flags);
    }
    return;
  }

  // 1-2. Cold-start accounting, then execution pins the instance —
  // identical to a SimStream lane over this node's routed arrivals.
  // The latency variant additionally records which arrivals were cold
  // (the flags feed LatencyLane::OnMinute below); the plain variant is
  // the original loop, untouched so disabled runs stay byte-identical.
  if (node.latency == nullptr) {
    for (const Invocation& inv : node.arrivals) {
      FunctionAccount& acc = node.accounts[inv.function];
      acc.invocations += inv.count;
      acc.invoked_minutes += 1;
      node.totals.invocations += inv.count;
      if (!node.mem.Contains(inv.function)) {
        acc.cold_starts += 1;
        node.totals.cold_starts += 1;
      }
      node.mem.Add(inv.function);
      node.last_used[inv.function] = t;
    }
  } else {
    node.cold_flags.assign(node.arrivals.size(), 0);
    for (size_t i = 0; i < node.arrivals.size(); ++i) {
      const Invocation& inv = node.arrivals[i];
      FunctionAccount& acc = node.accounts[inv.function];
      acc.invocations += inv.count;
      acc.invoked_minutes += 1;
      node.totals.invocations += inv.count;
      if (!node.mem.Contains(inv.function)) {
        acc.cold_starts += 1;
        node.totals.cold_starts += 1;
        node.cold_flags[i] = 1;
      }
      node.mem.Add(inv.function);
      node.last_used[inv.function] = t;
    }
  }

  // 3. Policy step (timed for the RQ2 overhead measurement; the
  // monotonic clock lives in obs/clock so the linter can confine it).
  const double start = MonotonicSeconds();
  node.policy->OnMinute(t, node.arrivals, &node.mem);
  node.overhead_seconds += MonotonicSeconds() - start;

  if (options_.pin_executing_functions) {
    for (const Invocation& inv : node.arrivals) node.mem.Add(inv.function);
  }

  // Cluster-only: the node sheds idle instances above its capacity.
  EnforceCapacity(&node, t);

  // 4. Residency accounting. "Idle" is node-local: an instance is
  // wasted on this node unless the function arrived *here* this minute
  // (a warm copy left behind on another node is pure waste). Only the
  // loaded ids are visited — word-at-a-time over the membership bitset.
  node.mem.ForEachLoaded([&node, t](size_t f) {
    FunctionAccount& acc = node.accounts[f];
    acc.loaded_minutes += 1;
    node.totals.loaded_instance_minutes += 1;
    if (node.last_used[f] != t) {
      acc.wasted_minutes += 1;
      node.totals.wasted_memory_minutes += 1;
    }
  });
  node.memory_series.push_back(static_cast<uint32_t>(node.mem.Count()));

  if (node.latency != nullptr) {
    node.latency->OnMinute(t, node.arrivals, node.cold_flags);
  }
}

Status ClusterSession::Step() {
  if (finished_) {
    return Status::OutOfRange("ClusterSession was consumed by Finish()");
  }
  if (stopped_) {
    return Status::Cancelled(
        "ClusterSession was stopped early at minute (=" +
        std::to_string(cursor_) + ")");
  }
  if (cursor_ >= end_) {
    return Status::OutOfRange(
        "ClusterSession is exhausted: cursor (=" + std::to_string(cursor_) +
        ") reached end_minute (=" + std::to_string(end_) + ")");
  }
  EnsureStarted();
  return StepLocked();
}

Status ClusterSession::RunUntil(int minute) {
  if (finished_) {
    return Status::OutOfRange("ClusterSession was consumed by Finish()");
  }
  const int target = std::min(minute, end_);
  while (cursor_ < target && !stopped_) {
    SPES_RETURN_NOT_OK(Step());
  }
  if (stopped_ && cursor_ < target) {
    // Same signal Step() gives: an early stop left the target unreached.
    return Status::Cancelled(
        "ClusterSession was stopped early at minute (=" +
        std::to_string(cursor_) + ") before reaching minute (=" +
        std::to_string(target) + ")");
  }
  return Status::OK();
}

Result<ClusterOutcome> ClusterSession::Finish() {
  if (finished_) {
    return Status::OutOfRange(
        "ClusterSession was already consumed by Finish()");
  }
  EnsureStarted();
  // An early stop still yields the partial-window outcome, so Cancelled
  // is success here — mirroring SimStream::FinishAll().
  const Status run = RunUntil(end_);
  if (!run.ok() && run.code() != StatusCode::kCancelled) return run;
  finished_ = true;
  pool_.reset();  // no more steps: join the workers
  if (options_.recorder != nullptr) {
    options_.recorder->EndSpan(simulate_span_);
    simulate_span_ = 0;
    options_.recorder->DecoderEvent(options_.recorder_slot,
                                    decoder_.blocks_decoded(),
                                    decoder_.invocations_decoded());
  }
  const ScopedSpan finish_span(options_.recorder, "finish",
                               options_.recorder_slot, 0);

  const size_t n = source_->num_functions();
  const std::string policy_name = nodes_[0].policy->name();

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
  const bool has_latency = nodes_[0].latency != nullptr;
  LatencyOutcome fleet_latency;

  outcome.nodes.reserve(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& node = nodes_[k];
    for (size_t f = 0; f < n; ++f) {
      const FunctionAccount& acc = node.accounts[f];
      FunctionAccount& agg = fleet_accounts[f];
      agg.invocations += acc.invocations;
      agg.invoked_minutes += acc.invoked_minutes;
      agg.cold_starts += acc.cold_starts;
      agg.loaded_minutes += acc.loaded_minutes;
      agg.wasted_minutes += acc.wasted_minutes;
    }
    if (fleet_series.size() < node.memory_series.size()) {
      fleet_series.resize(node.memory_series.size(), 0);
    }
    for (size_t i = 0; i < node.memory_series.size(); ++i) {
      fleet_series[i] += node.memory_series[i];
    }
    fleet_overhead += node.overhead_seconds;

    NodeOutcome out;
    out.node = static_cast<int>(k);
    switch (node.state) {
      case NodeState::kPending:
        out.final_state = "pending";
        break;
      case NodeState::kRoutable:
        out.final_state = "routable";
        break;
      case NodeState::kDraining:
        out.final_state = "draining";
        break;
      case NodeState::kFailed:
        out.final_state = "failed";
        break;
    }
    out.pressure_evictions = node.pressure_evictions;
    out.reroutes_in = node.reroutes_in;
    out.sim.metrics =
        ComputeFleetMetrics(policy_name, node.accounts, node.memory_series,
                            node.overhead_seconds);
    out.sim.accounts = std::move(node.accounts);
    out.sim.memory_series = std::move(node.memory_series);
    if (node.latency != nullptr) {
      LatencyOutcome node_latency = node.latency->TakeOutcome();
      MergeLatencyOutcome(&fleet_latency, node_latency);
      out.sim.latency =
          std::make_shared<const LatencyOutcome>(std::move(node_latency));
    }
    out.policy = std::move(node.policy);
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

  for (SimObserver* observer : observers_) {
    for (size_t k = 0; k < outcome.nodes.size(); ++k) {
      observer->OnStreamEnd(k, outcome.nodes[k].sim);
    }
  }
  return outcome;
}

Result<ClusterCheckpoint> ClusterSession::Checkpoint() const {
  if (finished_) {
    return Status::OutOfRange(
        "cannot Checkpoint a session consumed by Finish()");
  }
  for (size_t k = 0; k < nodes_.size(); ++k) {
    if (!nodes_[k].policy->SupportsCheckpoint()) {
      return Status::NotImplemented(
          "policy '" + nodes_[k].policy->name() + "' (node " +
          std::to_string(k) + ") does not support checkpointing");
    }
  }
  ClusterCheckpoint checkpoint;
  checkpoint.cursor = cursor_;
  checkpoint.train_minutes = options_.train_minutes;
  checkpoint.end_minute = end_;
  checkpoint.pin_executing_functions = options_.pin_executing_functions;
  checkpoint.num_functions = source_->num_functions();
  checkpoint.stopped = stopped_;
  checkpoint.reroutes = reroutes_;
  checkpoint.event_index = event_index_;
  checkpoint.assignment = assignment_;
  checkpoint.nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    ClusterCheckpoint::Node out;
    out.policy_name = node.policy->name();
    out.state = static_cast<uint8_t>(node.state);
    out.capacity = node.capacity;
    out.accounts = node.accounts;
    out.memory_series = node.memory_series;
    out.loaded = node.mem.ToBytes();
    out.last_used = node.last_used;
    out.totals = node.totals;
    out.overhead_seconds = node.overhead_seconds;
    out.pressure_evictions = node.pressure_evictions;
    out.reroutes_in = node.reroutes_in;
    SPES_ASSIGN_OR_RETURN(out.policy_state, node.policy->SaveState());
    if (node.latency != nullptr) out.latency_state = node.latency->SaveState();
    checkpoint.nodes.push_back(std::move(out));
  }
  if (options_.recorder != nullptr) {
    options_.recorder->CheckpointEvent("save", options_.recorder_slot,
                                       static_cast<uint64_t>(cursor_));
  }
  return checkpoint;
}

Status ClusterSession::Restore(const ClusterCheckpoint& checkpoint) {
  if (finished_) {
    return Status::OutOfRange(
        "cannot Restore a session consumed by Finish()");
  }
  const size_t n = source_->num_functions();
  if (checkpoint.num_functions != n) {
    return Status::InvalidArgument(
        "checkpoint num_functions (=" +
        std::to_string(checkpoint.num_functions) +
        ") does not match this session's trace (=" + std::to_string(n) + ")");
  }
  if (checkpoint.train_minutes != options_.train_minutes) {
    return Status::InvalidArgument(
        "checkpoint train_minutes (=" +
        std::to_string(checkpoint.train_minutes) +
        ") does not match this session (=" +
        std::to_string(options_.train_minutes) + ")");
  }
  if (checkpoint.end_minute != end_) {
    return Status::InvalidArgument(
        "checkpoint end_minute (=" + std::to_string(checkpoint.end_minute) +
        ") does not match this session (=" + std::to_string(end_) + ")");
  }
  if (checkpoint.pin_executing_functions !=
      options_.pin_executing_functions) {
    return Status::InvalidArgument(
        "checkpoint pin_executing_functions (=" +
        std::string(checkpoint.pin_executing_functions ? "true" : "false") +
        ") does not match this session");
  }
  if (checkpoint.cursor < start_ || checkpoint.cursor > end_) {
    return Status::InvalidArgument(
        "checkpoint cursor (=" + std::to_string(checkpoint.cursor) +
        ") is outside this session's window [" + std::to_string(start_) +
        ", " + std::to_string(end_) + "]");
  }
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
  if (checkpoint.nodes.size() != nodes_.size()) {
    return Status::InvalidArgument(
        "checkpoint has (=" + std::to_string(checkpoint.nodes.size()) +
        ") nodes but this session has (=" + std::to_string(nodes_.size()) +
        ")");
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
  const size_t expected_series =
      static_cast<size_t>(checkpoint.cursor - start_);
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterCheckpoint::Node& in = checkpoint.nodes[k];
    if (in.policy_name != nodes_[k].policy->name()) {
      return Status::InvalidArgument(
          "checkpoint node " + std::to_string(k) + " holds policy '" +
          in.policy_name + "' but this session has '" +
          nodes_[k].policy->name() + "'");
    }
    if (in.state > static_cast<uint8_t>(NodeState::kFailed)) {
      return Status::InvalidArgument(
          "checkpoint node " + std::to_string(k) + " state (=" +
          std::to_string(in.state) + ") is not a node lifecycle state");
    }
    if (in.capacity != nodes_[k].capacity) {
      return Status::InvalidArgument(
          "checkpoint node " + std::to_string(k) + " capacity (=" +
          std::to_string(in.capacity) +
          ") does not match this session's cluster spec (=" +
          std::to_string(nodes_[k].capacity) + ")");
    }
    if (in.accounts.size() != n || in.loaded.size() != n ||
        in.last_used.size() != n) {
      return Status::InvalidArgument(
          "checkpoint node " + std::to_string(k) +
          " is sized for (=" + std::to_string(in.accounts.size()) +
          ") functions, expected (=" + std::to_string(n) + ")");
    }
    // Every node — live, pending or dead — pushes one series entry per
    // simulated minute, so the length pins the cursor for all of them.
    if (in.memory_series.size() != expected_series) {
      return Status::InvalidArgument(
          "checkpoint node " + std::to_string(k) + " memory series has (=" +
          std::to_string(in.memory_series.size()) +
          ") entries but the cursor implies (=" +
          std::to_string(expected_series) + ")");
    }
    // A LatencyLane blob is never empty, so presence of latency state is
    // exactly "the origin session ran with a latency block".
    if (in.latency_state.empty() != (nodes_[k].latency == nullptr)) {
      return Status::InvalidArgument(
          "checkpoint node " + std::to_string(k) +
          (in.latency_state.empty()
               ? " has no latency state but this session has a latency block"
               : " carries latency state but this session has no latency "
                 "block"));
    }
  }

  // Shape checks all passed; hand the policies (and latency lanes) their
  // state, then reinstate the engine-side counters. A failure here leaves
  // the session in an unspecified mix of old and new state — callers must
  // discard the session on a non-OK Restore.
  for (size_t k = 0; k < nodes_.size(); ++k) {
    SPES_RETURN_NOT_OK(
        nodes_[k].policy->RestoreState(checkpoint.nodes[k].policy_state));
    if (nodes_[k].latency != nullptr) {
      SPES_RETURN_NOT_OK(nodes_[k].latency->RestoreState(
          checkpoint.nodes[k].latency_state, expected_series));
    }
  }
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterCheckpoint::Node& in = checkpoint.nodes[k];
    Node& node = nodes_[k];
    node.state = static_cast<NodeState>(in.state);
    node.accounts = in.accounts;
    node.memory_series = in.memory_series;
    MemSet mem(n);
    for (size_t f = 0; f < n; ++f) {
      if (in.loaded[f]) mem.Add(f);
    }
    node.mem = std::move(mem);
    node.last_used = in.last_used;
    node.totals = in.totals;
    node.overhead_seconds = in.overhead_seconds;
    node.pressure_evictions = in.pressure_evictions;
    node.reroutes_in = in.reroutes_in;
  }
  cursor_ = checkpoint.cursor;
  stopped_ = checkpoint.stopped;
  reroutes_ = checkpoint.reroutes;
  if (options_.recorder != nullptr) {
    options_.recorder->CheckpointEvent("restore", options_.recorder_slot,
                                       static_cast<uint64_t>(cursor_));
  }
  event_index_ = static_cast<size_t>(checkpoint.event_index);
  assignment_ = checkpoint.assignment;
  return Status::OK();
}

std::string SerializeClusterCheckpoint(const ClusterCheckpoint& checkpoint) {
  BinaryWriter w;
  w.PutBytes(kClusterCheckpointMagic);
  w.PutU32(kClusterCheckpointVersion);
  w.PutI32(checkpoint.cursor);
  w.PutI32(checkpoint.train_minutes);
  w.PutI32(checkpoint.end_minute);
  w.PutBool(checkpoint.pin_executing_functions);
  w.PutU64(checkpoint.num_functions);
  w.PutBool(checkpoint.stopped);
  w.PutU64(checkpoint.reroutes);
  w.PutU64(checkpoint.event_index);
  w.PutU64(checkpoint.assignment.size());
  for (int32_t a : checkpoint.assignment) w.PutI32(a);
  w.PutU64(checkpoint.nodes.size());
  for (const ClusterCheckpoint::Node& node : checkpoint.nodes) {
    w.PutBytes(node.policy_name);
    w.PutU8(node.state);
    w.PutI32(node.capacity);
    w.PutU64(node.accounts.size());
    for (const FunctionAccount& acc : node.accounts) {
      w.PutU64(acc.invocations);
      w.PutU64(acc.invoked_minutes);
      w.PutU64(acc.cold_starts);
      w.PutU64(acc.loaded_minutes);
      w.PutU64(acc.wasted_minutes);
    }
    w.PutU64(node.memory_series.size());
    for (uint32_t v : node.memory_series) w.PutU32(v);
    w.PutU64(node.loaded.size());
    for (uint8_t v : node.loaded) w.PutU8(v);
    w.PutU64(node.last_used.size());
    for (int32_t v : node.last_used) w.PutI32(v);
    w.PutU64(node.totals.invocations);
    w.PutU64(node.totals.cold_starts);
    w.PutU64(node.totals.loaded_instance_minutes);
    w.PutU64(node.totals.wasted_memory_minutes);
    w.PutDouble(node.overhead_seconds);
    w.PutU64(node.pressure_evictions);
    w.PutU64(node.reroutes_in);
    w.PutBytes(node.policy_state);
    w.PutBytes(node.latency_state);
  }
  return w.Take();
}

Result<ClusterCheckpoint> ParseClusterCheckpoint(const std::string& bytes) {
  BinaryReader r(bytes);
  SPES_ASSIGN_OR_RETURN(const std::string magic, r.Bytes());
  if (magic != kClusterCheckpointMagic) {
    return Status::InvalidArgument(
        "not a SPES cluster checkpoint (bad magic tag)");
  }
  SPES_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version != kClusterCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported cluster checkpoint version (=" +
        std::to_string(version) + "), expected (=" +
        std::to_string(kClusterCheckpointVersion) + ")");
  }
  ClusterCheckpoint checkpoint;
  SPES_ASSIGN_OR_RETURN(checkpoint.cursor, r.I32());
  SPES_ASSIGN_OR_RETURN(checkpoint.train_minutes, r.I32());
  SPES_ASSIGN_OR_RETURN(checkpoint.end_minute, r.I32());
  SPES_ASSIGN_OR_RETURN(checkpoint.pin_executing_functions, r.Bool());
  SPES_ASSIGN_OR_RETURN(checkpoint.num_functions, r.U64());
  SPES_ASSIGN_OR_RETURN(checkpoint.stopped, r.Bool());
  SPES_ASSIGN_OR_RETURN(checkpoint.reroutes, r.U64());
  SPES_ASSIGN_OR_RETURN(checkpoint.event_index, r.U64());
  SPES_ASSIGN_OR_RETURN(const uint64_t num_assignment, r.Length(4));
  checkpoint.assignment.reserve(num_assignment);
  for (uint64_t f = 0; f < num_assignment; ++f) {
    SPES_ASSIGN_OR_RETURN(const int32_t a, r.I32());
    checkpoint.assignment.push_back(a);
  }
  // Minimal encoded node: 117 bytes (empty name/blob/vector prefixes +
  // state + capacity + totals + overhead + cluster counters) — bounds
  // reserve() against corrupt counts.
  SPES_ASSIGN_OR_RETURN(const uint64_t num_nodes, r.Length(117));
  checkpoint.nodes.reserve(num_nodes);
  for (uint64_t k = 0; k < num_nodes; ++k) {
    ClusterCheckpoint::Node node;
    SPES_ASSIGN_OR_RETURN(node.policy_name, r.Bytes());
    SPES_ASSIGN_OR_RETURN(node.state, r.U8());
    SPES_ASSIGN_OR_RETURN(node.capacity, r.I32());
    SPES_ASSIGN_OR_RETURN(const uint64_t num_accounts, r.Length(40));
    node.accounts.reserve(num_accounts);
    for (uint64_t i = 0; i < num_accounts; ++i) {
      FunctionAccount acc;
      SPES_ASSIGN_OR_RETURN(acc.invocations, r.U64());
      SPES_ASSIGN_OR_RETURN(acc.invoked_minutes, r.U64());
      SPES_ASSIGN_OR_RETURN(acc.cold_starts, r.U64());
      SPES_ASSIGN_OR_RETURN(acc.loaded_minutes, r.U64());
      SPES_ASSIGN_OR_RETURN(acc.wasted_minutes, r.U64());
      node.accounts.push_back(acc);
    }
    SPES_ASSIGN_OR_RETURN(const uint64_t num_series, r.Length(4));
    node.memory_series.reserve(num_series);
    for (uint64_t i = 0; i < num_series; ++i) {
      SPES_ASSIGN_OR_RETURN(const uint32_t v, r.U32());
      node.memory_series.push_back(v);
    }
    SPES_ASSIGN_OR_RETURN(const uint64_t num_loaded, r.Length(1));
    node.loaded.reserve(num_loaded);
    for (uint64_t i = 0; i < num_loaded; ++i) {
      SPES_ASSIGN_OR_RETURN(const uint8_t v, r.U8());
      node.loaded.push_back(v);
    }
    SPES_ASSIGN_OR_RETURN(const uint64_t num_last_used, r.Length(4));
    node.last_used.reserve(num_last_used);
    for (uint64_t i = 0; i < num_last_used; ++i) {
      SPES_ASSIGN_OR_RETURN(const int32_t v, r.I32());
      node.last_used.push_back(v);
    }
    SPES_ASSIGN_OR_RETURN(node.totals.invocations, r.U64());
    SPES_ASSIGN_OR_RETURN(node.totals.cold_starts, r.U64());
    SPES_ASSIGN_OR_RETURN(node.totals.loaded_instance_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(node.totals.wasted_memory_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(node.overhead_seconds, r.Double());
    SPES_ASSIGN_OR_RETURN(node.pressure_evictions, r.U64());
    SPES_ASSIGN_OR_RETURN(node.reroutes_in, r.U64());
    SPES_ASSIGN_OR_RETURN(node.policy_state, r.Bytes());
    SPES_ASSIGN_OR_RETURN(node.latency_state, r.Bytes());
    checkpoint.nodes.push_back(std::move(node));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "cluster checkpoint has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return checkpoint;
}

}  // namespace spes
