// Multi-node cluster simulation on top of the SimStream engine semantics.
//
// The single-fleet engine (sim/stream.h) models the paper's §V-A setting:
// one node with uncapped memory holds every instance. A ClusterSpec lifts
// that to what production FaaS platforms actually run: N invoker nodes,
// each with its own memory capacity and its own policy instance, with a
// pluggable Router (cluster/router.h) deciding which node serves each
// arriving function. A ClusterSession realizes the spec over a trace and
// drives one engine lane per node in lockstep over a single shared
// arrival decode per minute — per node, a minute is the same StepLane a
// SimStream lane runs (sim/lane.h: cold-start accounting, execution
// pinning, policy step, residency accounting), so a single-node `hash`
// cluster reproduces the non-cluster engine bit for bit.
//
// Two cluster-only mechanisms sit on top of the lane semantics:
//   * per-node memory pressure: when a node ends its minute above its
//     instance capacity, idle instances are evicted cross-function in
//     LRU order (executing instances are never evicted while pinning is
//     on) and counted as pressure evictions;
//   * a node-event timeline — `add{at=}`, `drain{at=,node=}` and
//     `fail{at=,node=}` — that changes the node set mid-window: failed
//     nodes lose their memory instantly, drained nodes keep serving the
//     functions still warm on them but accept no new assignments, and
//     either kind of departure invalidates sticky assignments so
//     re-routed functions pay cold starts on their new homes.

#ifndef SPES_CLUSTER_CLUSTER_H_
#define SPES_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "common/status.h"
#include "core/policy_registry.h"
#include "sim/accounting.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/lane.h"
#include "sim/memset.h"
#include "sim/observer.h"
#include "sim/policy.h"
#include "trace/trace.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief One node lifecycle change, applied when the cluster cursor
/// reaches `minute` (events scheduled before the simulated window apply
/// at its first minute).
struct NodeEvent {
  enum class Kind {
    kAdd,    ///< a new, empty, routable node joins the cluster
    kDrain,  ///< the node stops accepting new assignments; warm
             ///< functions keep being served there until their instance
             ///< is evicted, then re-route
    kFail,   ///< the node dies: memory cleared instantly, every arrival
             ///< it served re-routes and cold-starts elsewhere
  };

  int minute = 0;
  Kind kind = Kind::kFail;
  /// Target node id for drain/fail; ignored for add (the new node takes
  /// the next free id, in timeline order).
  int node = -1;
  /// Add only: the new node's instance capacity; -1 means the cluster's
  /// default `ClusterSpec.node_capacity`.
  int capacity = -1;
};

/// \brief Stable lowercase name of an event kind ("add", "drain", "fail").
const char* NodeEventKindToString(NodeEvent::Kind kind);

/// \brief Parses one event in the registry spec grammar:
///   `fail{at=2980,node=1}` | `drain{at=2900,node=0}` |
///   `add{at=3000,capacity=40}`
/// `at` is required; `node` is required for drain/fail and rejected for
/// add; `capacity` is accepted only by add. Unknown names and parameters
/// yield InvalidArgument naming the field.
Result<NodeEvent> ParseNodeEvent(const std::string& text);

/// \brief Inverse of ParseNodeEvent: canonical `kind{at=..,...}` form.
std::string FormatNodeEvent(const NodeEvent& event);

/// \brief Parses a '|'-separated event timeline, e.g.
/// `drain{at=2900,node=0} | add{at=3000}`. Whitespace around '|' is
/// ignored; an empty string yields an empty timeline.
Result<std::vector<NodeEvent>> ParseNodeEventTimeline(
    const std::string& text);

/// \brief Inverse of ParseNodeEventTimeline: events joined with " | ".
std::string FormatNodeEventTimeline(const std::vector<NodeEvent>& events);

/// \brief A simulated cluster as data: how many nodes, how much memory
/// each, which router, and what happens to the node set mid-window.
struct ClusterSpec {
  /// Nodes present from the first minute (>= 1).
  int nodes = 1;
  /// Instance capacity per node; 0 means uncapped (the paper's setting).
  int node_capacity = 0;
  /// Routing strategy, built through RouterRegistry::Global().
  RouterSpec router{"hash", {}};
  /// Lifecycle timeline, sorted by minute (ties apply in list order).
  std::vector<NodeEvent> events;
};

/// \brief Structural validation: nodes >= 1, capacity >= 0, a non-empty
/// router name, and a coherent event timeline (sorted minutes, targets
/// that exist and are still alive when their event fires, and at least
/// one routable node at every point). Router/policy registry problems
/// surface later, from ClusterSession::Create. Errors name the offending
/// field or event index.
Status ValidateClusterSpec(const ClusterSpec& spec);

/// \brief One node's share of a cluster run.
struct NodeOutcome {
  int node = 0;
  /// Lifecycle state at the end of the run: "routable", "draining",
  /// "failed", or "pending" for an add event that never fired.
  std::string final_state;
  /// Per-node accounts, memory series and FleetMetrics — the same shape
  /// as a single-fleet run, restricted to what this node served/held.
  SimulationOutcome sim;
  /// Instances evicted because the node exceeded its capacity.
  uint64_t pressure_evictions = 0;
  /// Sticky assignments that moved onto this node from another node
  /// (re-routes; first-ever assignments are not counted).
  uint64_t reroutes_in = 0;
  /// The node's trained policy instance, kept alive for inspection.
  std::unique_ptr<Policy> policy;
};

/// \brief Full outcome of a cluster run: the fleet-wide aggregate (the
/// element-wise sum of the per-node accounts and memory series, with
/// metrics derived from the sums) plus every node's breakdown. When the
/// run had a latency block, `fleet.latency` is the exact histogram merge
/// of every node's latency outcome.
struct ClusterOutcome {
  SimulationOutcome fleet;
  std::vector<NodeOutcome> nodes;  ///< in node-id order, added nodes last
  /// Total sticky assignments that moved between nodes mid-window.
  uint64_t reroutes = 0;
};

/// \brief A resumable snapshot of a ClusterSession: the cursor, the
/// routing state (sticky assignments, consumed events, reroute counters)
/// and, per node, every engine counter plus the policy's and latency
/// lane's serialized state. Produced by ClusterSession::Checkpoint(),
/// consumed by ClusterSession::Restore();
/// SerializeClusterCheckpoint()/ParseClusterCheckpoint() round-trip it
/// through bytes ("SPESCLCK" magic).
struct ClusterCheckpoint : CheckpointCursor {
  /// Routing state at the snapshot.
  uint64_t reroutes = 0;
  uint64_t event_index = 0;  ///< timeline events already applied
  std::vector<int32_t> assignment;  ///< sticky function->node; -1 = none

  /// A node's lane state plus its cluster fields.
  struct Node : LaneCheckpoint {
    /// Lifecycle state: 0 pending, 1 routable, 2 draining, 3 failed.
    uint8_t state = 1;
    int capacity = 0;  ///< structural; validated (not restored)
    std::vector<int32_t> last_used;  ///< LRU clock; -1 = never
    uint64_t pressure_evictions = 0;
    uint64_t reroutes_in = 0;
  };
  std::vector<Node> nodes;
};

/// \brief Byte form of a cluster checkpoint (magic-tagged, little-endian).
std::string SerializeClusterCheckpoint(const ClusterCheckpoint& checkpoint);

/// \brief Parses bytes produced by SerializeClusterCheckpoint(); truncated
/// or corrupt input yields InvalidArgument instead of undefined behaviour.
Result<ClusterCheckpoint> ParseClusterCheckpoint(const std::string& bytes);

/// \brief An open, incrementally drivable cluster simulation. Create()
/// builds one policy instance per node (including nodes that join later)
/// from `policy` through PolicyRegistry::Global(), trains each on the
/// training window, builds the router, and positions the cursor at the
/// first simulated minute. The trace and observers are borrowed and must
/// outlive the session. Not thread-safe: callers still drive each session
/// from one thread. Each node is an engine lane (sim/lane.h): a minute
/// routes the shared decode on the calling thread, then steps the nodes
/// on up to SimOptions::step_threads threads and joins before Step()
/// returns; outcomes, checkpoints and observer calls do not depend on
/// the thread count.
class ClusterSession : public LaneSession {
 public:
  static Result<ClusterSession> Create(const Trace& trace,
                                       const ClusterSpec& cluster,
                                       const PolicySpec& policy,
                                       const SimOptions& options);

  /// \brief Streamed form over any TraceSource (e.g. a packed trace file):
  /// arrivals are pulled in chunked minute windows instead of from a
  /// realized Trace. The training window is decoded ONCE, and only when
  /// the node policy needs it (NeedsTrainingWindow()), and shared by every
  /// node's policy; policies whose RequiresFullTrace() is true are
  /// rejected with InvalidArgument. The source must outlive the session.
  /// Outcomes are bitwise-identical to the in-memory overload.
  static Result<ClusterSession> Create(TraceSource& source,
                                       const ClusterSpec& cluster,
                                       const PolicySpec& policy,
                                       const SimOptions& options);

  // Observers (LaneSession::AddObserver) see one MinuteView per *live*
  // node per minute, with MinuteView::lane equal to the node id;
  // StreamInfo::num_lanes is the total node-id space (initial nodes plus
  // scheduled adds). Returning false stops the session after the current
  // minute, exactly as on a SimStream.

  /// Total node-id space: initial nodes plus scheduled add events.
  [[nodiscard]] size_t num_nodes() const { return nodes_.size(); }

  /// \brief Runs to the end of the window (unless already stopped) and
  /// returns the aggregated + per-node outcome, consuming the session.
  Result<ClusterOutcome> Finish();

  /// \brief Snapshot of the cursor, routing state, per-node counters and
  /// policy/latency state. Every node's policy must support
  /// checkpointing (NotImplemented naming the first node that does not,
  /// otherwise). Fails once the session was consumed by Finish().
  [[nodiscard]] Result<ClusterCheckpoint> Checkpoint() const;

  /// \brief Rewinds/forwards this session to `checkpoint`. The session
  /// must have been created over the same trace, window, cluster spec and
  /// policy as the checkpoint's origin (validated field by field,
  /// InvalidArgument naming the mismatch). A failed restore (a corrupt
  /// policy or latency blob included) leaves the session exactly as it
  /// was.
  Status Restore(const ClusterCheckpoint& checkpoint);

 private:
  enum class NodeState {
    kPending,   ///< scheduled by an add event, not joined yet
    kRoutable,  ///< serving and accepting new assignments
    kDraining,  ///< serving warm functions only
    kFailed,    ///< gone; memory lost
  };

  /// The cluster fields of node k; its engine state is lanes_[k]. A
  /// failed node's latency queue keeps draining — admitted requests
  /// complete even if the node dies later in the window.
  struct Node {
    std::unique_ptr<Policy> policy;  ///< lanes_[k].policy points here
    NodeState state = NodeState::kRoutable;
    int capacity = 0;  ///< 0 = uncapped
    std::vector<int32_t> last_used;  ///< minute f last arrived here; -1 never
    uint64_t pressure_evictions = 0;
    uint64_t reroutes_in = 0;
    /// This minute's arrivals routed here (scratch, rebuilt per minute).
    std::vector<Invocation> arrivals;
    /// Scratch: (last use, id) eviction candidates of EnforceCapacity.
    std::vector<std::pair<int32_t, uint32_t>> evict_candidates;
  };

  ClusterSession(TraceSource* source, std::unique_ptr<TraceSource> owned,
                 const SimOptions& options, int end);

  /// Shared body of the Create() overloads. Every policy trains on the
  /// training window decoded from `source`, except that on the in-memory
  /// path (`full_trace` non-null) a RequiresFullTrace() policy trains on
  /// the full trace; a streamed session (null) rejects such policies.
  static Result<ClusterSession> CreateImpl(TraceSource* source,
                                           std::unique_ptr<TraceSource> owned,
                                           const Trace* full_trace,
                                           const ClusterSpec& cluster,
                                           const PolicySpec& policy,
                                           const SimOptions& options);

  [[nodiscard]] static bool NodeLive(const Node& node) {
    return node.state == NodeState::kRoutable ||
           node.state == NodeState::kDraining;
  }

  /// Applies every event scheduled at or before minute `t`.
  void ApplyEvents(int t);

  /// Phase 1: events, then routing of the shared decode onto the nodes.
  /// Internal on a router that returns an unroutable node.
  Status RouteMinute(int t) override;

  /// Phase 2 for node k: StepLane over its routed arrivals with the
  /// capacity trim as the eviction hook, or the latency drain of a dead
  /// node.
  void StepLaneAt(size_t k, int t) override;

  /// Phase 3 reports live nodes only.
  const std::vector<Invocation>* ReportedArrivals(size_t k) const override;

  /// Evicts idle instances in LRU order until node k fits its capacity.
  void EnforceCapacity(size_t k, int t);

  uint64_t reroutes_ = 0;
  std::unique_ptr<Router> router_;
  std::vector<Node> nodes_;
  std::vector<NodeEvent> events_;  ///< sorted; consumed via event_index_
  size_t event_index_ = 0;
  /// Sticky function->node assignment; -1 = unassigned.
  std::vector<int32_t> assignment_;
  /// Per-minute routing scratch, reused across steps.
  std::vector<NodeView> views_;
};

}  // namespace spes

#endif  // SPES_CLUSTER_CLUSTER_H_
