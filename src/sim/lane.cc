#include "sim/lane.h"

#include <algorithm>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/clock.h"
#include "obs/recorder.h"

namespace spes {

namespace {

/// Participants in phase 2: SimOptions::step_threads, with 0 meaning
/// every hardware thread, capped at one per lane.
int ResolveStepThreads(int requested, size_t lanes) {
  size_t threads = static_cast<size_t>(requested);
  if (requested == 0) threads = std::thread::hardware_concurrency();
  threads = std::min(threads, lanes);
  return threads < 1 ? 1 : static_cast<int>(threads);
}

}  // namespace

void StepLane(Lane& lane, int t, const std::vector<Invocation>& arrivals,
              bool pin, const std::function<void(int)>& evict_hook) {
  LaneColumns& cols = lane.cols;

  // 1. Cold-start accounting; execution loads the instance. The cold
  // flags feed only the latency lane, so they are written only for one.
  const bool flag_cold = lane.latency != nullptr;
  if (flag_cold) lane.cold_flags.assign(arrivals.size(), 0);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Invocation& inv = arrivals[i];
    cols.invocations[inv.function] += inv.count;
    cols.invoked_minutes[inv.function] += 1;
    lane.totals.invocations += inv.count;
    if (!lane.mem.Contains(inv.function)) {
      cols.cold_starts[inv.function] += 1;
      lane.totals.cold_starts += 1;
      if (flag_cold) lane.cold_flags[i] = 1;
    }
    lane.mem.Add(inv.function);
  }

  // 2. Policy step (timed for the RQ2 overhead measurement; the
  // monotonic clock lives in obs/clock so the linter can confine it).
  const double start = MonotonicSeconds();
  lane.policy->OnMinute(t, arrivals, &lane.mem);
  lane.overhead_seconds += MonotonicSeconds() - start;

  // 3-4. Executing instances stay loaded through their minute; then the
  // caller's eviction (a cluster node's capacity trim).
  if (pin) {
    for (const Invocation& inv : arrivals) lane.mem.Add(inv.function);
  }
  if (evict_hook) evict_hook(t);

  // 5. Residency: a word-at-a-time bitset diff opens/closes residency
  // intervals, live totals come from the maintained popcount, and the
  // wasted count follows from the arrivals that are loaded at this
  // sample. "Idle" is lane-local: an instance is wasted unless its
  // function arrived on this lane this minute.
  cols.AccrueResidency(t, lane.mem);
  const uint64_t live = lane.mem.Count();
  lane.totals.loaded_instance_minutes += live;
  uint64_t invoked_loaded_now = 0;
  for (const Invocation& inv : arrivals) {
    if (lane.mem.Contains(inv.function)) {
      cols.invoked_loaded_minutes[inv.function] += 1;
      ++invoked_loaded_now;
    }
  }
  lane.totals.wasted_memory_minutes += live - invoked_loaded_now;
  lane.memory_series.push_back(static_cast<uint32_t>(live));

  // 6. The latency queue.
  if (lane.latency != nullptr) {
    lane.latency->OnMinute(t, arrivals, lane.cold_flags);
  }
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

void PutCheckpointCursor(BinaryWriter& w, const CheckpointCursor& cursor) {
  w.PutI32(cursor.cursor);
  w.PutI32(cursor.train_minutes);
  w.PutI32(cursor.end_minute);
  w.PutBool(cursor.pin_executing_functions);
  w.PutU64(cursor.num_functions);
  w.PutBool(cursor.stopped);
}

Status ReadCheckpointCursor(BinaryReader& r, CheckpointCursor* cursor) {
  SPES_ASSIGN_OR_RETURN(cursor->cursor, r.I32());
  SPES_ASSIGN_OR_RETURN(cursor->train_minutes, r.I32());
  SPES_ASSIGN_OR_RETURN(cursor->end_minute, r.I32());
  SPES_ASSIGN_OR_RETURN(cursor->pin_executing_functions, r.Bool());
  SPES_ASSIGN_OR_RETURN(cursor->num_functions, r.U64());
  SPES_ASSIGN_OR_RETURN(cursor->stopped, r.Bool());
  return Status::OK();
}

void PutLaneCounters(BinaryWriter& w, const LaneCheckpoint& lane) {
  w.PutU64(lane.accounts.size());
  for (const FunctionAccount& acc : lane.accounts) {
    w.PutU64(acc.invocations);
    w.PutU64(acc.invoked_minutes);
    w.PutU64(acc.cold_starts);
    w.PutU64(acc.loaded_minutes);
    w.PutU64(acc.wasted_minutes);
  }
  w.PutU64(lane.memory_series.size());
  for (uint32_t v : lane.memory_series) w.PutU32(v);
  w.PutU64(lane.loaded.size());
  for (uint8_t v : lane.loaded) w.PutU8(v);
}

Status ReadLaneCounters(BinaryReader& r, LaneCheckpoint* lane) {
  SPES_ASSIGN_OR_RETURN(const uint64_t num_accounts, r.Length(40));
  lane->accounts.resize(num_accounts);
  for (FunctionAccount& acc : lane->accounts) {
    SPES_ASSIGN_OR_RETURN(acc.invocations, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.invoked_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.cold_starts, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.loaded_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.wasted_minutes, r.U64());
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t num_series, r.Length(4));
  lane->memory_series.resize(num_series);
  for (uint32_t& v : lane->memory_series) {
    SPES_ASSIGN_OR_RETURN(v, r.U32());
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t num_loaded, r.Length(1));
  lane->loaded.resize(num_loaded);
  for (uint8_t& v : lane->loaded) {
    SPES_ASSIGN_OR_RETURN(v, r.U8());
  }
  return Status::OK();
}

void PutLaneTotals(BinaryWriter& w, const LaneCheckpoint& lane) {
  w.PutU64(lane.totals.invocations);
  w.PutU64(lane.totals.cold_starts);
  w.PutU64(lane.totals.loaded_instance_minutes);
  w.PutU64(lane.totals.wasted_memory_minutes);
  w.PutDouble(lane.overhead_seconds);
}

Status ReadLaneTotals(BinaryReader& r, LaneCheckpoint* lane) {
  SPES_ASSIGN_OR_RETURN(lane->totals.invocations, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.cold_starts, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.loaded_instance_minutes, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.wasted_memory_minutes, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->overhead_seconds, r.Double());
  return Status::OK();
}

Result<uint32_t> ReadCheckpointTag(BinaryReader& r, const char* magic,
                                   const char* what, uint32_t max_version) {
  SPES_ASSIGN_OR_RETURN(const std::string tag, r.Bytes());
  if (tag != magic) {
    return Status::InvalidArgument("not a SPES " + std::string(what) +
                                   " (bad magic tag)");
  }
  SPES_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version < 1 || version > max_version) {
    return Status::InvalidArgument(
        "unsupported " + std::string(what) + " version (=" +
        std::to_string(version) + "), expected 1 to (=" +
        std::to_string(max_version) + ")");
  }
  return version;
}

Status ExpectCheckpointEnd(const BinaryReader& r, const char* what) {
  if (r.AtEnd()) return Status::OK();
  return Status::InvalidArgument(std::string(what) + " has " +
                                 std::to_string(r.remaining()) +
                                 " trailing bytes");
}

// ---------------------------------------------------------------------------
// LaneSession: setup and the cursor
// ---------------------------------------------------------------------------

LaneSession::LaneSession(const Names& names, TraceSource* source,
                         std::unique_ptr<TraceSource> owned,
                         const SimOptions& options, int end)
    : names_(names),
      owned_source_(std::move(owned)),
      source_(source),
      options_(options),
      start_(options.train_minutes),
      end_(end),
      cursor_(options.train_minutes),
      decoder_(source) {}

Result<int> LaneSession::ResolveWindow(int horizon,
                                       const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateSimOptions(options));
  if (options.train_minutes > horizon) {
    return Status::InvalidArgument(
        "SimOptions.train_minutes (=" + std::to_string(options.train_minutes) +
        ") exceeds the trace horizon (=" + std::to_string(horizon) +
        " minutes)");
  }
  // end_minute == 0 means the trace horizon; a larger request clamps to it
  // (a policy cannot be replayed past the recorded trace).
  return options.end_minute > 0 ? std::min(options.end_minute, horizon)
                                : horizon;
}

void LaneSession::AddLane(Policy* policy) {
  const size_t n = source_->num_functions();
  Lane lane;
  lane.policy = policy;
  lane.mem = MemSet(n);
  lane.cols.Reset(n);
  lane.memory_series.reserve(static_cast<size_t>(end_ - start_));
  lanes_.push_back(std::move(lane));
}

Status LaneSession::TrainLanes(const Trace* full_trace) {
  // A policy that reads past the training minutes trains on the full
  // trace; every other lane shares one window, decoded only when some
  // lane learns from it.
  auto wants_full_trace = [full_trace](const Policy& policy) {
    return full_trace != nullptr && policy.RequiresFullTrace();
  };
  bool needs_window = false;
  for (size_t k = 0; k < lanes_.size(); ++k) {
    const Policy& policy = *lanes_[k].policy;
    if (full_trace == nullptr && policy.RequiresFullTrace()) {
      return Status::InvalidArgument(
          "policy '" + policy.name() + "' (" + names_.lane + " " +
          std::to_string(k) +
          ") requires the full realized trace, but a streamed source holds "
          "only the training window; run it over an in-memory Trace");
    }
    needs_window |= !wants_full_trace(policy) && policy.NeedsTrainingWindow();
  }
  TrainingWindow window =
      TrainingWindow::MetadataOnly(*source_, options_.train_minutes);
  if (needs_window) {
    SPES_ASSIGN_OR_RETURN(
        window, TrainingWindow::Build(*source_, options_.train_minutes));
  }
  for (size_t k = 0; k < lanes_.size(); ++k) {
    Policy& policy = *lanes_[k].policy;
    const ScopedSpan span(options_.recorder, "train", options_.recorder_slot,
                          static_cast<int>(k), policy.name());
    if (wants_full_trace(policy)) {
      policy.Train(*full_trace, options_.train_minutes);
    } else {
      policy.Train(window);
    }
  }
  return Status::OK();
}

Status LaneSession::FinishCreate(std::string simulate_label,
                                 const Trace* full_trace) {
  SPES_RETURN_NOT_OK(TrainLanes(full_trace));
  simulate_label_ = std::move(simulate_label);
  step_threads_ = ResolveStepThreads(options_.step_threads, lanes_.size());
  if (!options_.latency.has_value()) return Status::OK();
  const LatencySpec& spec = *options_.latency;
  // One shared hash table: the keys depend only on function names and the
  // latency seed, never on the lane or on placement, so lockstep lanes
  // and cluster nodes sample the per-request stream a single-fleet run
  // would.
  const auto hashes = std::make_shared<const std::vector<uint64_t>>(
      ComputeFunctionHashes(*source_, spec.seed));
  for (Lane& lane : lanes_) {
    SPES_ASSIGN_OR_RETURN(lane.latency, CreateLatencyLane(spec, hashes));
  }
  return Status::OK();
}

void LaneSession::AddObserver(SimObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void LaneSession::EnsureStarted() {
  if (started_) return;
  started_ = true;
  if (options_.recorder != nullptr) {
    simulate_span_ = options_.recorder->BeginSpan(
        "simulate", options_.recorder_slot, 0, simulate_label_);
  }
  StreamInfo info;
  info.train_minutes = options_.train_minutes;
  info.start_minute = start_;
  info.end_minute = end_;
  info.num_lanes = lanes_.size();
  info.num_functions = source_->num_functions();
  for (SimObserver* observer : observers_) observer->OnStreamStart(info);
}

Status LaneSession::Step() {
  const std::string kind = names_.kind;
  if (finished_) return Status::OutOfRange(kind + " was consumed by Finish()");
  if (stopped_) {
    return Status::Cancelled(kind + " was stopped early at minute (=" +
                             std::to_string(cursor_) + ")");
  }
  if (cursor_ >= end_) {
    return Status::OutOfRange(
        kind + " is exhausted: cursor (=" + std::to_string(cursor_) +
        ") reached end_minute (=" + std::to_string(end_) + ")");
  }
  EnsureStarted();
  return StepLocked();
}

Status LaneSession::RunUntil(int minute) {
  const std::string kind = names_.kind;
  if (finished_) return Status::OutOfRange(kind + " was consumed by Finish()");
  const int target = std::min(minute, end_);
  while (cursor_ < target && !stopped_) {
    SPES_RETURN_NOT_OK(Step());
  }
  if (stopped_ && cursor_ < target) {
    // Same signal Step() gives: an early stop left the target unreached.
    return Status::Cancelled(
        kind + " was stopped early at minute (=" + std::to_string(cursor_) +
        ") before reaching minute (=" + std::to_string(target) + ")");
  }
  return Status::OK();
}

Status LaneSession::StepLocked() {
  const int t = cursor_;

  // Phase 1, on the calling thread. Decode this minute's arrivals ONCE;
  // every lane shares the decode. The decoder transposes a whole block of
  // minutes at a time, so this is O(arrivals) amortized; the copy feeds
  // the vector-taking Policy API. A failed decode (corrupt/vanished disk
  // block) or routing failure aborts the step before any lane changes.
  const std::span<const Invocation> decoded = decoder_.Decode(t);
  SPES_RETURN_NOT_OK(decoder_.status());
  arrivals_.assign(decoded.begin(), decoded.end());
  ++minutes_decoded_;
  SPES_RETURN_NOT_OK(RouteMinute(t));

  // Phase 2: every lane's own minute. Each task touches only its lane, so
  // lane k may run on any participant; results never depend on which.
  if (step_threads_ > 1 && pool_ == nullptr) {
    try {
      pool_ = std::make_unique<ForkJoinPool>(step_threads_);
    } catch (const std::system_error&) {
      step_threads_ = 1;  // no threads to be had: stay serial
    }
  }
  if (pool_ != nullptr) {
    pool_->Run(lanes_.size(), [this, t](size_t k) { StepLaneAt(k, t); });
  } else {
    for (size_t k = 0; k < lanes_.size(); ++k) StepLaneAt(k, t);
  }

  // Phase 3, back on the calling thread and in lane order: observers and
  // heartbeats see each lane exactly as a serial loop would leave it.
  bool stop_requested = false;
  for (size_t k = 0; k < lanes_.size(); ++k) {
    const std::vector<Invocation>* arrivals = ReportedArrivals(k);
    if (arrivals != nullptr && !EmitLaneMinute(k, t, *arrivals)) {
      stop_requested = true;
    }
  }

  ++cursor_;
  if (stop_requested) stopped_ = true;
  return Status::OK();
}

void LaneSession::StepLaneAt(size_t k, int t) {
  StepLane(lanes_[k], t, arrivals_, options_.pin_executing_functions);
}

const std::vector<Invocation>* LaneSession::ReportedArrivals(size_t k) const {
  (void)k;
  return &arrivals_;
}

bool LaneSession::EmitLaneMinute(size_t k, int t,
                                 const std::vector<Invocation>& arrivals) {
  Lane& lane = lanes_[k];
  bool keep_going = true;
  if (!observers_.empty()) {
    // Observers see the classic account view; materializing it per
    // minute is the documented cost of attaching one.
    lane.cols.Materialize(t + 1, lane.mem, &lane.scratch_accounts);
    MinuteView view;
    view.minute = t;
    view.lane = k;
    view.policy = lane.policy;
    view.arrivals = &arrivals;
    view.mem = &lane.mem;
    view.accounts = &lane.scratch_accounts;
    view.memory_series = &lane.memory_series;
    view.totals = lane.totals;
    if (lane.latency != nullptr) view.latency = &lane.latency->live();
    for (SimObserver* observer : observers_) {
      if (!observer->OnMinute(view)) keep_going = false;
    }
  }

  if (options_.recorder != nullptr) {
    // Strided heartbeat: sampled on simulated-minute boundaries (plus the
    // final minute), so the recorded counters are a pure function of sim
    // state — wall-clock speed never changes what is sampled.
    const int stride = options_.recorder->heartbeat_minute_stride();
    if ((t + 1 - start_) % stride == 0 || t + 1 == end_) {
      RunRecorder::Heartbeat heartbeat;
      heartbeat.slot = options_.recorder_slot;
      heartbeat.lane = static_cast<int>(k);
      heartbeat.minute = t;
      heartbeat.invocations = lane.totals.invocations;
      heartbeat.cold_starts = lane.totals.cold_starts;
      heartbeat.loaded_instance_minutes = lane.totals.loaded_instance_minutes;
      heartbeat.wasted_memory_minutes = lane.totals.wasted_memory_minutes;
      heartbeat.loaded_instances = static_cast<uint32_t>(lane.mem.Count());
      if (lane.latency != nullptr) {
        heartbeat.queue_depth = lane.latency->live().queue_depth;
      }
      options_.recorder->EmitHeartbeat(heartbeat);
    }
  }
  return keep_going;
}

Result<std::vector<SimulationOutcome>> LaneSession::FinishLanes() {
  if (finished_) {
    return Status::OutOfRange(std::string(names_.kind) +
                              " was already consumed by Finish()");
  }
  // Even a zero-step window (train == horizon, or a session restored at
  // its end) pairs OnStreamStart with OnStreamEnd, so observers always
  // get their sizing hook before any other callback.
  EnsureStarted();
  // An early stop is a documented way to end a session: Finish still
  // delivers the partial-window outcome, so Cancelled is success here.
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
  std::vector<SimulationOutcome> outcomes(lanes_.size());
  for (size_t k = 0; k < lanes_.size(); ++k) {
    Lane& lane = lanes_[k];
    SimulationOutcome& outcome = outcomes[k];
    lane.cols.Materialize(cursor_, lane.mem, &outcome.accounts);
    outcome.metrics = ComputeFleetMetrics(lane.policy->name(),
                                          outcome.accounts, lane.memory_series,
                                          lane.overhead_seconds);
    outcome.memory_series = std::move(lane.memory_series);
    if (lane.latency != nullptr) {
      outcome.latency =
          std::make_shared<const LatencyOutcome>(lane.latency->TakeOutcome());
    }
  }
  for (SimObserver* observer : observers_) {
    for (size_t k = 0; k < outcomes.size(); ++k) {
      observer->OnStreamEnd(k, outcomes[k]);
    }
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// LaneSession: the checkpoint lane path
// ---------------------------------------------------------------------------

Status LaneSession::BeginCheckpoint(CheckpointCursor* out) const {
  if (finished_) {
    return Status::OutOfRange(std::string("cannot Checkpoint a ") +
                              names_.noun + " consumed by Finish()");
  }
  for (size_t k = 0; k < lanes_.size(); ++k) {
    if (!lanes_[k].policy->SupportsCheckpoint()) {
      return Status::NotImplemented(
          "policy '" + lanes_[k].policy->name() + "' (" + names_.lane + " " +
          std::to_string(k) + ") does not support checkpointing");
    }
  }
  out->cursor = cursor_;
  out->train_minutes = options_.train_minutes;
  out->end_minute = end_;
  out->pin_executing_functions = options_.pin_executing_functions;
  out->num_functions = source_->num_functions();
  out->stopped = stopped_;
  return Status::OK();
}

Status LaneSession::SaveLane(size_t k, LaneCheckpoint* out) const {
  const Lane& lane = lanes_[k];
  out->policy_name = lane.policy->name();
  lane.cols.Materialize(cursor_, lane.mem, &out->accounts);
  out->memory_series = lane.memory_series;
  out->loaded = lane.mem.ToBytes();
  out->totals = lane.totals;
  out->overhead_seconds = lane.overhead_seconds;
  SPES_ASSIGN_OR_RETURN(out->policy_state, lane.policy->SaveState());
  if (lane.latency != nullptr) out->latency_state = lane.latency->SaveState();
  return Status::OK();
}

Status LaneSession::CheckCursor(const CheckpointCursor& in,
                                size_t lanes) const {
  const std::string noun = names_.noun;
  if (finished_) {
    return Status::OutOfRange("cannot Restore a " + noun +
                              " consumed by Finish()");
  }
  const size_t n = source_->num_functions();
  if (in.num_functions != n) {
    return Status::InvalidArgument(
        "checkpoint num_functions (=" + std::to_string(in.num_functions) +
        ") does not match this " + noun + "'s trace (=" + std::to_string(n) +
        ")");
  }
  if (in.train_minutes != options_.train_minutes) {
    return Status::InvalidArgument(
        "checkpoint train_minutes (=" + std::to_string(in.train_minutes) +
        ") does not match this " + noun + " (=" +
        std::to_string(options_.train_minutes) + ")");
  }
  if (in.end_minute != end_) {
    return Status::InvalidArgument(
        "checkpoint end_minute (=" + std::to_string(in.end_minute) +
        ") does not match this " + noun + " (=" + std::to_string(end_) + ")");
  }
  if (in.pin_executing_functions != options_.pin_executing_functions) {
    return Status::InvalidArgument(
        "checkpoint pin_executing_functions (=" +
        std::string(in.pin_executing_functions ? "true" : "false") +
        ") does not match this " + noun);
  }
  if (in.cursor < start_ || in.cursor > end_) {
    return Status::InvalidArgument(
        "checkpoint cursor (=" + std::to_string(in.cursor) +
        ") is outside this " + noun + "'s window [" + std::to_string(start_) +
        ", " + std::to_string(end_) + "]");
  }
  if (lanes != lanes_.size()) {
    return Status::InvalidArgument(
        "checkpoint has (=" + std::to_string(lanes) + ") " + names_.lane +
        "s but this " + noun + " has (=" + std::to_string(lanes_.size()) +
        ")");
  }
  return Status::OK();
}

Status LaneSession::CheckLaneShape(size_t k, const LaneCheckpoint& in,
                                   int cursor) const {
  const Lane& lane = lanes_[k];
  const std::string where =
      "checkpoint " + std::string(names_.lane) + " " + std::to_string(k);
  const std::string noun = names_.noun;
  if (in.policy_name != lane.policy->name()) {
    return Status::InvalidArgument(where + " holds policy '" +
                                   in.policy_name + "' but this " + noun +
                                   " has '" + lane.policy->name() + "'");
  }
  const size_t n = source_->num_functions();
  if (in.accounts.size() != n || in.loaded.size() != n) {
    return Status::InvalidArgument(
        where + " is sized for (=" + std::to_string(in.accounts.size()) +
        ") functions, expected (=" + std::to_string(n) + ")");
  }
  // Every lane — for a cluster also a pending or dead node — holds one
  // series entry per simulated minute, so the length pins the cursor.
  const size_t expected_series = static_cast<size_t>(cursor - start_);
  if (in.memory_series.size() != expected_series) {
    return Status::InvalidArgument(
        where + " memory series has (=" +
        std::to_string(in.memory_series.size()) +
        ") entries but the cursor implies (=" +
        std::to_string(expected_series) + ")");
  }
  // A LatencyLane blob is never empty, so presence of latency state is
  // exactly "the origin session ran with a latency block".
  if (in.latency_state.empty() != (lane.latency == nullptr)) {
    return Status::InvalidArgument(
        where + (in.latency_state.empty()
                     ? " has no latency state but this " + noun +
                           " has a latency block"
                     : " carries latency state but this " + noun +
                           " has no latency block"));
  }
  return Status::OK();
}

Status LaneSession::RestoreLanes(const std::vector<const LaneCheckpoint*>& in,
                                 const CheckpointCursor& head) {
  for (size_t k = 0; k < lanes_.size(); ++k) {
    SPES_RETURN_NOT_OK(CheckLaneShape(k, *in[k], head.cursor));
  }
  // Back up every lane's current policy and latency state first, so a
  // blob that fails to install can roll every lane back.
  const size_t minutes_now = static_cast<size_t>(cursor_ - start_);
  const size_t minutes_in = static_cast<size_t>(head.cursor - start_);
  std::vector<std::string> policy_backup(lanes_.size());
  std::vector<std::string> latency_backup(lanes_.size());
  for (size_t k = 0; k < lanes_.size(); ++k) {
    SPES_ASSIGN_OR_RETURN(policy_backup[k], lanes_[k].policy->SaveState());
    if (lanes_[k].latency != nullptr) {
      latency_backup[k] = lanes_[k].latency->SaveState();
    }
  }
  for (size_t k = 0; k < lanes_.size(); ++k) {
    Status status = lanes_[k].policy->RestoreState(in[k]->policy_state);
    if (status.ok() && lanes_[k].latency != nullptr) {
      status = lanes_[k].latency->RestoreState(in[k]->latency_state,
                                               minutes_in);
    }
    if (status.ok()) continue;
    for (size_t j = 0; j <= k; ++j) {
      Status undo = lanes_[j].policy->RestoreState(policy_backup[j]);
      if (undo.ok() && lanes_[j].latency != nullptr) {
        undo = lanes_[j].latency->RestoreState(latency_backup[j], minutes_now);
      }
      if (!undo.ok()) {
        return Status::Internal("could not roll " + std::string(names_.lane) +
                                " " + std::to_string(j) +
                                " back after a failed restore: " +
                                undo.message());
      }
    }
    return status;
  }

  // Every lane took its state: reinstate the engine-side counters.
  const size_t n = source_->num_functions();
  for (size_t k = 0; k < lanes_.size(); ++k) {
    Lane& lane = lanes_[k];
    lane.memory_series = in[k]->memory_series;
    lane.totals = in[k]->totals;
    lane.overhead_seconds = in[k]->overhead_seconds;
    lane.mem = MemSet(n);
    for (size_t f = 0; f < n; ++f) {
      if (in[k]->loaded[f]) lane.mem.Add(f);
    }
    lane.cols.LoadFrom(in[k]->accounts, lane.mem, head.cursor);
  }
  cursor_ = head.cursor;
  stopped_ = head.stopped;
  RecordCheckpoint("restore");
  return Status::OK();
}

void LaneSession::RecordCheckpoint(const char* what) const {
  if (options_.recorder != nullptr) {
    options_.recorder->CheckpointEvent(what, options_.recorder_slot,
                                       static_cast<uint64_t>(cursor_));
  }
}

}  // namespace spes
