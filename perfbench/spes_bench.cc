// spes_bench: the binary behind the end-to-end benchmark (run.py is
// the command users type; it builds this binary and calls it).
//
// Subcommands, each printing one JSON object as its last stdout line:
//
//   pack  --workload=W --scale=full|smoke --seed=N --out=FILE
//       Generates the workload's fleet with GenerateTraceStreamed, packs
//       it with TraceFileWriter and checks the invocation totals against
//       the header.
//   run   --workload=W --scale=full|smoke --trace-file=FILE
//       One untraced end-to-end run: open the .spt, create the session,
//       step it to the end, finish it, check the outputs.
//   trace --workload=W --scale=full|smoke --trace-file=FILE
//       One traced run: every layer is timed from outside, around the
//       public call into it (trace, sim, core+policies, cluster, latency).
//
// Every run is single-threaded.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <malloc.h>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/policy_registry.h"
#include "latency/latency.h"
#include "obs/clock.h"
#include "sim/columnar.h"
#include "sim/stream.h"
#include "trace/generator.h"
#include "trace/trace_file.h"

namespace {

using namespace spes;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr int kDays = 4;
constexpr int kTrainDays = 2;

struct Lane {
  std::string label;  ///< metric prefix, policy.<label>.*
  std::string spec;   ///< policy registry spec
};

struct Workload {
  std::string name;
  int functions = 0;        ///< full scale
  int smoke_functions = 0;  ///< smoke scale
  double rare_fraction = 0.0;
  std::vector<Lane> lanes;  ///< SimStream lanes; empty for a cluster
  // Cluster workloads only.
  int nodes = 0;
  int node_capacity = 0;
  int smoke_node_capacity = 0;
  std::string router;
  std::string node_policy;
  std::string latency;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w(3);
  w[0].name = "spes_sparse";
  w[0].functions = 72000;
  w[0].smoke_functions = 600;
  w[0].rare_fraction = 0.9;
  w[0].lanes = {{"spes", "spes"}};

  w[1].name = "baseline_lockstep";
  w[1].functions = 12000;
  w[1].smoke_functions = 300;
  w[1].rare_fraction = 0.5;
  w[1].lanes = {{"fixed_keepalive", "fixed_keepalive{minutes=10}"},
                {"faascache", "faascache{capacity=4096}"},
                {"hybrid_histogram", "hybrid_histogram"},
                {"defuse", "defuse"}};

  w[2].name = "cluster_latency";
  w[2].functions = 16000;
  w[2].smoke_functions = 400;
  w[2].rare_fraction = 0.0;
  w[2].nodes = 4;
  w[2].node_capacity = 1600;
  w[2].smoke_node_capacity = 24;
  w[2].router = "least_loaded";
  w[2].node_policy = "fixed_keepalive{minutes=10}";
  w[2].latency =
      "lognormal @ queue{concurrency=8,capacity=64,timeout_ms=1000,seed=1}";
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Now() { return MonotonicSeconds(); }

/// A /proc/self/status field in MiB (VmHWM = peak RSS, VmRSS = current).
double ProcStatusMib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return static_cast<double>(
                 std::strtoll(line.c_str() + prefix.size(), nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Ordered key -> JSON literal map, printed as one flat object.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& literal) {
    fields_.emplace_back(key, literal);
  }
  void Print() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

int Fail(const std::string& message) {
  JsonLine line;
  line.Raw("ok", "false");
  line.Str("error", message);
  line.Print();
  return 1;
}

template <typename T>
T Take(Result<T> result, std::string* error) {
  if (!result.ok()) {
    *error = result.status().message();
    return T{};
  }
  return std::move(result).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Output check: accounting identities every lane and node must satisfy.
// ---------------------------------------------------------------------------

/// Checks one lane's (or node's) outcome; returns "" when it holds.
std::string CheckOutcome(const std::string& who, const SimulationOutcome& o) {
  uint64_t cold = 0, invocations = 0, loaded = 0, wasted = 0;
  for (size_t f = 0; f < o.accounts.size(); ++f) {
    const FunctionAccount& a = o.accounts[f];
    if (a.cold_starts > a.invocations || a.cold_starts > a.invoked_minutes) {
      return who + ": function " + std::to_string(f) +
             " has more cold starts than invocations";
    }
    // Executions are pinned, so every invoked minute is a loaded one:
    // wasted = loaded - invoked_loaded = loaded - invoked_minutes.
    if (a.loaded_minutes < a.invoked_minutes ||
        a.wasted_minutes != a.loaded_minutes - a.invoked_minutes) {
      return who + ": function " + std::to_string(f) +
             " breaks wasted = loaded - invoked_loaded";
    }
    cold += a.cold_starts;
    invocations += a.invocations;
    loaded += a.loaded_minutes;
    wasted += a.wasted_minutes;
  }
  uint64_t series = 0;
  for (uint32_t m : o.memory_series) series += m;
  const FleetMetrics& m = o.metrics;
  if (m.total_cold_starts != cold || m.total_invocations != invocations ||
      m.loaded_instance_minutes != loaded ||
      m.wasted_memory_minutes != wasted) {
    return who + ": fleet metrics disagree with the per-function accounts";
  }
  if (series != loaded) {
    return who + ": sum of memory_series (" + std::to_string(series) +
           ") != loaded instance-minutes (" + std::to_string(loaded) + ")";
  }
  if (o.latency != nullptr && o.latency->offered() != invocations) {
    return who + ": latency offered " +
           std::to_string(o.latency->offered()) + " != invocations " +
           std::to_string(invocations);
  }
  return "";
}

/// The cluster fleet must equal the sum of its nodes.
std::string CheckCluster(const ClusterOutcome& c) {
  for (const NodeOutcome& node : c.nodes) {
    const std::string error =
        CheckOutcome("node " + std::to_string(node.node), node.sim);
    if (!error.empty()) return error;
  }
  std::string error = CheckOutcome("fleet", c.fleet);
  if (!error.empty()) return error;
  const size_t n = c.fleet.accounts.size();
  std::vector<FunctionAccount> sum(n);
  std::vector<uint64_t> series(c.fleet.memory_series.size(), 0);
  LatencyOutcome latency;
  for (const NodeOutcome& node : c.nodes) {
    if (node.sim.accounts.size() != n) return "node account count mismatch";
    for (size_t f = 0; f < n; ++f) {
      const FunctionAccount& a = node.sim.accounts[f];
      sum[f].invocations += a.invocations;
      sum[f].invoked_minutes += a.invoked_minutes;
      sum[f].cold_starts += a.cold_starts;
      sum[f].loaded_minutes += a.loaded_minutes;
      sum[f].wasted_minutes += a.wasted_minutes;
    }
    for (size_t i = 0; i < node.sim.memory_series.size() && i < series.size();
         ++i) {
      series[i] += node.sim.memory_series[i];
    }
    if (node.sim.latency != nullptr) {
      MergeLatencyOutcome(&latency, *node.sim.latency);
    }
  }
  for (size_t f = 0; f < n; ++f) {
    const FunctionAccount& a = c.fleet.accounts[f];
    const FunctionAccount& s = sum[f];
    if (a.invocations != s.invocations ||
        a.invoked_minutes != s.invoked_minutes ||
        a.cold_starts != s.cold_starts ||
        a.loaded_minutes != s.loaded_minutes ||
        a.wasted_minutes != s.wasted_minutes) {
      return "fleet account of function " + std::to_string(f) +
             " != sum over nodes";
    }
  }
  for (size_t i = 0; i < series.size(); ++i) {
    if (series[i] != c.fleet.memory_series[i]) {
      return "fleet memory_series != sum over nodes at minute " +
             std::to_string(i);
    }
  }
  if (c.fleet.latency != nullptr &&
      (latency.served != c.fleet.latency->served ||
       latency.timeouts != c.fleet.latency->timeouts ||
       latency.shed != c.fleet.latency->shed)) {
    return "fleet latency counters != sum over nodes";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Timing decorator: forwards Train/OnMinute to the real policy and times
// each call. Used by the traced run only.
// ---------------------------------------------------------------------------

class TimedPolicy final : public Policy {
 public:
  explicit TimedPolicy(std::unique_ptr<Policy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool RequiresFullTrace() const override {
    return inner_->RequiresFullTrace();
  }
  void Train(const Trace& trace, int train_minutes) override {
    const double start = Now();
    inner_->Train(trace, train_minutes);
    train_s_ += Now() - start;
  }
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override {
    const double start = Now();
    inner_->OnMinute(t, arrivals, mem);
    step_s_.push_back(Now() - start);
  }

  double train_s() const { return train_s_; }
  const std::vector<double>& step_s() const { return step_s_; }

 private:
  std::unique_ptr<Policy> inner_;
  double train_s_ = 0.0;
  std::vector<double> step_s_;
};

/// Registry name of the decorator wrapped around a cluster's node policy.
constexpr char kTimedPolicy[] = "perfbench_timed";

/// ClusterSession builds its node policies through the registry, so the
/// traced run registers a decorator around `inner` there and hands the
/// session its name.
Status RegisterTimedPolicy(const PolicySpec& inner) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = kTimedPolicy;
  entry.summary = "timing decorator around the node policy (benchmark only)";
  entry.factory =
      [inner](const PolicyParams&) -> Result<std::unique_ptr<Policy>> {
    SPES_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                          PolicyRegistry::Global().Create(inner));
    return std::unique_ptr<Policy>(
        std::make_unique<TimedPolicy>(std::move(policy)));
  };
  return PolicyRegistry::Global().Register(std::move(entry));
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

struct Options {
  std::string command;
  std::string workload;
  std::string scale = "full";
  uint64_t seed = 1;
  std::string out;
  std::string trace_file;
};

struct Setup {
  const Workload* workload = nullptr;
  bool smoke = false;
  SimOptions sim;
  ClusterSpec cluster;
  PolicySpec node_policy;
};

std::string BuildSetup(const Options& opts, Setup* setup) {
  static const std::vector<Workload> workloads = Workloads();
  for (const Workload& w : workloads) {
    if (w.name == opts.workload) setup->workload = &w;
  }
  if (setup->workload == nullptr) return "unknown workload '" + opts.workload + "'";
  if (opts.scale != "full" && opts.scale != "smoke") {
    return "unknown scale '" + opts.scale + "'";
  }
  setup->smoke = opts.scale == "smoke";
  const Workload& w = *setup->workload;
  setup->sim.train_minutes = kTrainDays * kMinutesPerDay;
  if (w.lanes.empty()) {
    std::string error;
    setup->cluster.nodes = w.nodes;
    setup->cluster.node_capacity =
        setup->smoke ? w.smoke_node_capacity : w.node_capacity;
    setup->cluster.router = Take(ParseRouterSpec(w.router), &error);
    if (!error.empty()) return error;
    setup->node_policy = Take(ParsePolicySpec(w.node_policy), &error);
    if (!error.empty()) return error;
    setup->sim.latency = Take(ParseLatencySpec(w.latency), &error);
    if (!error.empty()) return error;
  }
  return "";
}

/// Everything a run reports; filled by RunSession.
struct RunResult {
  std::string error;
  double open_s = 0.0;
  double create_s = 0.0;
  double loop_s = 0.0;
  double finish_s = 0.0;
  int sim_minutes = 0;
  std::vector<double> step_s;  ///< per Step() call; traced runs only
  std::vector<SimulationOutcome> lanes;
  std::optional<ClusterOutcome> cluster;
  std::vector<TimedPolicy*> timed;  ///< traced lanes or nodes
  std::vector<std::unique_ptr<Policy>> owned;

  [[nodiscard]] double setup_s() const { return open_s + create_s; }
  [[nodiscard]] double total_s() const {
    return open_s + create_s + loop_s + finish_s;
  }
};

template <typename Session>
std::string StepToEnd(Session* session, bool traced, RunResult* r) {
  const double start = Now();
  r->sim_minutes = session->end_minute() - session->cursor();
  if (traced) r->step_s.reserve(static_cast<size_t>(r->sim_minutes));
  while (!session->done()) {
    const double step_start = traced ? Now() : 0.0;
    const Status stepped = session->Step();
    if (traced) r->step_s.push_back(Now() - step_start);
    if (!stepped.ok()) return "step: " + stepped.message();
  }
  r->loop_s = Now() - start;
  return "";
}

/// Opens the .spt and runs the workload end to end. `traced` wraps each
/// lane's or node's policy in a TimedPolicy and times every Step().
RunResult RunSession(const Setup& setup, const std::string& path, bool traced,
                     const SimOptions& sim) {
  RunResult r;
  const Workload& w = *setup.workload;
  double t = Now();
  auto opened = TraceFileSource::Open(path);
  if (!opened.ok()) {
    r.error = "open: " + opened.status().message();
    return r;
  }
  std::unique_ptr<TraceFileSource> source = std::move(opened).ValueOrDie();
  r.open_s = Now() - t;

  t = Now();
  if (w.lanes.empty()) {
    PolicySpec node_policy = setup.node_policy;
    if (traced) node_policy = PolicySpec{kTimedPolicy, {}};
    auto created =
        ClusterSession::Create(*source, setup.cluster, node_policy, sim);
    if (!created.ok()) {
      r.error = "create: " + created.status().message();
      return r;
    }
    ClusterSession session = std::move(created).ValueOrDie();
    r.create_s = Now() - t;
    r.error = StepToEnd(&session, traced, &r);
    if (!r.error.empty()) return r;
    t = Now();
    auto finished = session.Finish();
    if (!finished.ok()) {
      r.error = "finish: " + finished.status().message();
      return r;
    }
    r.cluster = std::move(finished).ValueOrDie();
    r.finish_s = Now() - t;
    for (const NodeOutcome& node : r.cluster->nodes) {
      if (auto* timed = dynamic_cast<TimedPolicy*>(node.policy.get())) {
        r.timed.push_back(timed);
      }
    }
    return r;
  }

  std::vector<Policy*> policies;
  for (const Lane& lane : w.lanes) {
    auto created = PolicyRegistry::Global().CreateFromString(lane.spec);
    if (!created.ok()) {
      r.error = "policy: " + created.status().message();
      return r;
    }
    std::unique_ptr<Policy> policy = std::move(created).ValueOrDie();
    if (traced) {
      auto timed = std::make_unique<TimedPolicy>(std::move(policy));
      r.timed.push_back(timed.get());
      policy = std::move(timed);
    }
    policies.push_back(policy.get());
    r.owned.push_back(std::move(policy));
  }
  auto created = SimStream::Create(*source, policies, sim);
  if (!created.ok()) {
    r.error = "create: " + created.status().message();
    return r;
  }
  SimStream stream = std::move(created).ValueOrDie();
  r.create_s = Now() - t;
  r.error = StepToEnd(&stream, traced, &r);
  if (!r.error.empty()) return r;
  t = Now();
  auto finished = stream.FinishAll();
  if (!finished.ok()) {
    r.error = "finish: " + finished.status().message();
    return r;
  }
  r.lanes = std::move(finished).ValueOrDie();
  r.finish_s = Now() - t;
  return r;
}

/// The simulated (exact) end-to-end figures, plus the output check.
struct Exact {
  uint64_t cold_starts = 0;
  uint64_t wasted_mem_min = 0;
  const LatencyOutcome* latency = nullptr;
  std::string check;
};

Exact Summarize(const RunResult& r) {
  Exact e;
  if (r.cluster.has_value()) {
    e.check = CheckCluster(*r.cluster);
    e.cold_starts = r.cluster->fleet.metrics.total_cold_starts;
    e.wasted_mem_min = r.cluster->fleet.metrics.wasted_memory_minutes;
    e.latency = r.cluster->fleet.latency.get();
    return e;
  }
  for (size_t i = 0; i < r.lanes.size(); ++i) {
    if (e.check.empty()) {
      e.check = CheckOutcome("lane " + std::to_string(i), r.lanes[i]);
    }
    e.cold_starts += r.lanes[i].metrics.total_cold_starts;
    e.wasted_mem_min += r.lanes[i].metrics.wasted_memory_minutes;
  }
  return e;
}

void AddExact(const Exact& e, JsonLine* line) {
  line->Int("cold_starts", e.cold_starts);
  line->Int("wasted_mem_min", e.wasted_mem_min);
  if (e.latency != nullptr) {
    const LatencyOutcome& l = *e.latency;
    line->Num("lat_p99_ms", l.p99_ms);
    line->Num("lat_dropped_frac",
              l.offered() == 0 ? 0.0
                               : static_cast<double>(l.timeouts + l.shed) /
                                     static_cast<double>(l.offered()));
  }
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int Pack(const Options& opts, const Setup& setup) {
  const Workload& w = *setup.workload;
  GeneratorConfig config;
  config.num_functions = setup.smoke ? w.smoke_functions : w.functions;
  config.days = kDays;
  config.seed = opts.seed;
  config.rare_fraction = w.rare_fraction;

  const double start = Now();
  auto created = TraceFileWriter::Create(kDays * kMinutesPerDay);
  if (!created.ok()) return Fail("pack: " + created.status().message());
  TraceFileWriter writer = std::move(created).ValueOrDie();
  uint64_t generated = 0;
  const Status status = GenerateTraceStreamed(
      config, [&](FunctionTrace&& f, const GroundTruth&) -> Status {
        for (uint32_t c : f.counts) generated += c;
        return writer.Add(f.meta, f.counts);
      });
  if (!status.ok()) return Fail("pack: " + status.message());
  auto written = writer.WriteTo(opts.out);
  if (!written.ok()) return Fail("pack: " + written.status().message());
  const TraceFileStats stats = written.ValueOrDie();
  const double pack_s = Now() - start;

  // The header, the function table and the generator must agree.
  auto reopened = TraceFileSource::Open(opts.out);
  if (!reopened.ok()) return Fail("pack: " + reopened.status().message());
  const TraceFileSource& source = *reopened.ValueOrDie();
  uint64_t table = 0;
  for (size_t f = 0; f < source.num_functions(); ++f) {
    table += source.function_total(f);
  }
  if (stats.total_invocations != generated ||
      source.stats().total_invocations != generated || table != generated) {
    return Fail("pack: invocation totals disagree: generated " +
                std::to_string(generated) + ", header " +
                std::to_string(source.stats().total_invocations) +
                ", table " + std::to_string(table));
  }
  JsonLine line;
  line.Raw("ok", "true");
  line.Num("pack_s", pack_s);
  line.Int("functions", stats.num_functions);
  line.Int("invocations", stats.total_invocations);
  line.Num("file_mib", static_cast<double>(stats.file_bytes) / 1048576.0);
  line.Print();
  return 0;
}

int RunOnce(const Options& opts, const Setup& setup) {
  const RunResult r = RunSession(setup, opts.trace_file, false, setup.sim);
  if (!r.error.empty()) return Fail(r.error);
  const Exact e = Summarize(r);
  if (!e.check.empty()) return Fail("check: " + e.check);
  JsonLine line;
  line.Raw("ok", "true");
  line.Num("setup_s", r.setup_s());
  line.Num("total_s", r.total_s());
  line.Num("loop_s", r.loop_s);
  line.Int("sim_minutes", static_cast<uint64_t>(r.sim_minutes));
  line.Num("peak_rss_mib", ProcStatusMib("VmHWM"));
  AddExact(e, &line);
  line.Print();
  return 0;
}

void AddTimings(const std::string& prefix, std::vector<double> seconds,
                double scale, const char* unit, JsonLine* line) {
  line->Num(prefix + "_" + unit + "_p50", Quantile(seconds, 0.5) * scale);
  line->Num(prefix + "_" + unit + "_p99", Quantile(seconds, 0.99) * scale);
}

/// Policy time per simulated minute, summed over lanes (or nodes). Lanes
/// step in lockstep, so call k of every decorator is minute k.
std::vector<double> PerMinute(const std::vector<TimedPolicy*>& timed) {
  std::vector<double> sum;
  for (const TimedPolicy* policy : timed) {
    const std::vector<double>& steps = policy->step_s();
    if (sum.size() < steps.size()) sum.resize(steps.size(), 0.0);
    for (size_t k = 0; k < steps.size(); ++k) sum[k] += steps[k];
  }
  return sum;
}

int TraceOnce(const Options& opts, const Setup& setup) {
  const Workload& w = *setup.workload;
  JsonLine line;
  line.Raw("ok", "true");

  // trace: open, one standalone decode pass over the simulated window,
  // and the dense train prefix.
  double t = Now();
  auto opened = TraceFileSource::Open(opts.trace_file);
  if (!opened.ok()) return Fail("open: " + opened.status().message());
  std::unique_ptr<TraceFileSource> source = std::move(opened).ValueOrDie();
  line.Num("trace.open_s", Now() - t);
  uint64_t window_invocations = 0;
  {
    ArrivalDecoder decoder(source.get());
    t = Now();
    for (int m = setup.sim.train_minutes; m < source->num_minutes(); ++m) {
      for (const Invocation& inv : decoder.Decode(m)) {
        window_invocations += inv.count;
      }
    }
    line.Num("trace.decode_s", Now() - t);
    if (!decoder.status().ok()) {
      return Fail("decode: " + decoder.status().message());
    }
    line.Int("trace.blocks_decoded", decoder.blocks_decoded());
    line.Int("trace.invocations_decoded", decoder.invocations_decoded());
  }
  const double rss_before = ProcStatusMib("VmRSS");
  t = Now();
  double prefix_s = 0.0;
  {
    auto prefix = source->MaterializePrefix(setup.sim.train_minutes);
    if (!prefix.ok()) return Fail("prefix: " + prefix.status().message());
    prefix_s = Now() - t;
    line.Num("trace.prefix_s", prefix_s);
    line.Num("trace.prefix_rss_mib", ProcStatusMib("VmRSS") - rss_before);
  }
  // Hand the prefix's pages back to the kernel, so the session's own
  // prefix build faults in fresh pages exactly as an untraced run's does.
  malloc_trim(0);
  source.reset();

  // The traced end-to-end run.
  if (w.lanes.empty()) {
    const Status registered = RegisterTimedPolicy(setup.node_policy);
    if (!registered.ok()) return Fail("register: " + registered.message());
  }
  const RunResult r = RunSession(setup, opts.trace_file, true, setup.sim);
  if (!r.error.empty()) return Fail(r.error);
  const Exact e = Summarize(r);
  if (!e.check.empty()) return Fail("check: " + e.check);

  // core+policies: each lane's (or node's) Train and OnMinute, timed by
  // its decorator. Per-lane shares tell which lane moved.
  double train_s = 0.0;
  double step_s = 0.0;
  std::map<std::string, std::pair<double, double>> by_lane;
  for (size_t i = 0; i < r.timed.size(); ++i) {
    const TimedPolicy& timed = *r.timed[i];
    double step = 0.0;
    for (double s : timed.step_s()) step += s;
    train_s += timed.train_s();
    step_s += step;
    const std::string& label =
        r.cluster.has_value() ? setup.node_policy.name : w.lanes[i].label;
    by_lane[label].first += timed.train_s();
    by_lane[label].second += step;
  }
  line.Num("policy.train_s", train_s);
  line.Num("policy.step_s", step_s);
  AddTimings("policy.step", PerMinute(r.timed), 1e6, "us", &line);
  for (const auto& [label, times] : by_lane) {
    line.Num("policy." + label + ".setup_pct", 100.0 * times.first / r.setup_s());
    line.Num("policy." + label + ".loop_pct", 100.0 * times.second / r.loop_s);
  }

  // sim: the engine's own step, with the policies' share taken out.
  double steps_s = 0.0;
  for (double s : r.step_s) steps_s += s;
  line.Num("sim.loop_s", r.loop_s);
  AddTimings("sim.step", r.step_s, 1e3, "ms", &line);
  line.Num("sim.self_s", steps_s - step_s);
  line.Int("sim.minutes_decoded", static_cast<uint64_t>(r.sim_minutes));
  line.Int("sim.lanes", r.timed.size());

  uint64_t lane_invocations = 0;
  if (r.cluster.has_value()) {
    lane_invocations = r.cluster->fleet.metrics.total_invocations;
  } else if (!r.lanes.empty()) {
    lane_invocations = r.lanes[0].metrics.total_invocations;
    for (const SimulationOutcome& lane : r.lanes) {
      if (lane.metrics.total_invocations != lane_invocations) {
        return Fail("check: lockstep lanes saw different invocations");
      }
    }
  }
  if (lane_invocations != window_invocations) {
    return Fail("check: engine saw " + std::to_string(lane_invocations) +
                " invocations, the decoder " +
                std::to_string(window_invocations));
  }

  if (r.cluster.has_value()) {
    const ClusterOutcome& c = *r.cluster;
    uint64_t pressure = 0;
    std::vector<double> cold;
    for (const NodeOutcome& node : c.nodes) {
      pressure += node.pressure_evictions;
      cold.push_back(static_cast<double>(node.sim.metrics.total_cold_starts));
    }
    double mean = 0.0, var = 0.0;
    for (double x : cold) mean += x / static_cast<double>(cold.size());
    for (double x : cold) var += (x - mean) * (x - mean) / cold.size();
    line.Int("cluster.pressure_evictions", pressure);
    line.Int("cluster.reroutes", c.reroutes);
    line.Num("cluster.node_cold_cv", mean > 0.0 ? std::sqrt(var) / mean : 0.0);

    // latency: the loop-time difference against the same session without
    // its latency block (cold starts and memory must not change).
    SimOptions plain = setup.sim;
    plain.latency.reset();
    const RunResult p = RunSession(setup, opts.trace_file, false, plain);
    if (!p.error.empty()) return Fail(p.error);
    const Exact pe = Summarize(p);
    if (!pe.check.empty()) return Fail("check: " + pe.check);
    if (pe.cold_starts != e.cold_starts ||
        pe.wasted_mem_min != e.wasted_mem_min) {
      return Fail("check: the latency block changed cold starts or memory");
    }
    const LatencyOutcome& l = *c.fleet.latency;
    line.Num("latency.loop_pct", 100.0 * (r.loop_s - p.loop_s) / r.loop_s);
    line.Int("latency.served", l.served);
    line.Int("latency.timeouts", l.timeouts);
    line.Int("latency.shed", l.shed);
    line.Int("latency.max_queue_depth", l.max_queue_depth);
  }

  // How much of the untimed phases the layer times explain.
  line.Num("setup_accounted_pct",
           100.0 * (r.open_s + prefix_s + train_s) / r.setup_s());
  line.Num("loop_accounted_pct", 100.0 * steps_s / r.loop_s);

  line.Num("setup_s", r.setup_s());
  line.Num("total_s", r.total_s());
  line.Num("loop_s", r.loop_s);
  line.Int("sim_minutes", static_cast<uint64_t>(r.sim_minutes));
  line.Num("peak_rss_mib", ProcStatusMib("VmHWM"));
  AddExact(e, &line);
  line.Print();
  return 0;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s pack|run|trace --workload=W [--scale=full|smoke]"
                 " [--seed=N --out=FILE | --trace-file=FILE]\n",
                 argv[0]);
    return 2;
  }
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", &value)) {
      opts.workload = value;
    } else if (ParseFlag(arg, "scale", &value)) {
      opts.scale = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "out", &value)) {
      opts.out = value;
    } else if (ParseFlag(arg, "trace-file", &value)) {
      opts.trace_file = value;
    } else {
      return Fail("unknown argument: " + arg);
    }
  }
  Setup setup;
  const std::string error = BuildSetup(opts, &setup);
  if (!error.empty()) return Fail(error);
  if (opts.command == "pack") return Pack(opts, setup);
  if (opts.command == "run") return RunOnce(opts, setup);
  if (opts.command == "trace") return TraceOnce(opts, setup);
  return Fail("unknown command: " + opts.command);
}
