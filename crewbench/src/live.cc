// dist-commit and dist-durable-mix: dist control on four in-process
// net::NetNode endpoints (front end + three agents) over Unix sockets,
// wired as bench_net_throughput wires them. One load-generator thread offers
// load: a short closed-loop warm-up, an open-loop phase at a fixed
// absolute rate, then a closed-loop phase with a fixed number of
// instances in flight. The front end's status replies, seen through the
// probe, tell the generator when each instance ends.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/node.h"
#include "net/testbed.h"
#include "net/topology.h"
#include "replay.h"
#include "rt/runtime.h"
#include "runtime/wire.h"

namespace crewbench {
namespace {

namespace fs = std::filesystem;
namespace net = crew::net;
namespace sim = crew::sim;
using crew::InstanceId;
using crew::runtime::WorkflowState;

constexpr int kAgents = 3;
constexpr int kEndpoints = 4;
constexpr int64_t kTickUs = 10;
/// Fresh deployments per untraced run, and set-ups per deployment (all
/// but the last torn down at once); setup_s is the median set-up.
constexpr int kDeployments = 10;
constexpr int kSetupsPerDeployment = 2;
/// Longest wait for the instances of a phase to end; a run that hangs
/// stops at its first stuck deployment, well inside three minutes.
constexpr int64_t kDrainNs = 10'000'000'000;

/// The offered load of one live workload. Every phase is a fixed amount
/// of work for a given --seconds, so runs compare like with like (and
/// memory, which grows with instances run, compares too).
struct Shape {
  bool durable_mix = false;
  /// Open-loop phase: evenly spaced arrivals at this absolute rate, about
  /// half the closed-loop throughput measured on a 4-core host.
  double rate_wf_s = 0;
  /// Closed-loop phase: instances kept in flight.
  int in_flight = 0;
  /// Closed-loop phase size, in instances per second of the budget: the
  /// saturation throughput measured on that host, so the phase lasts
  /// about its share of --seconds there.
  double closed_sizing_wf_s = 0;
  int num_classes = 0;  ///< 0 = the Good/Flaky/Doomed mix
};

Shape ShapeFor(bool durable_mix) {
  Shape shape;
  shape.durable_mix = durable_mix;
  shape.in_flight = 64;
  if (durable_mix) {
    shape.rate_wf_s = 3200;
    shape.closed_sizing_wf_s = 8000;
  } else {
    shape.rate_wf_s = 4000;
    shape.closed_sizing_wf_s = 10000;
    shape.num_classes = 8;
  }
  return shape;
}

/// Median over `chunks` equal consecutive slices of `values` of
/// `stat(slice)`: one slow stretch of a run moves it little.
template <typename Stat>
double MedianOfChunks(const std::vector<double>& values, int chunks,
                      Stat stat) {
  std::vector<double> per_chunk;
  size_t size = values.size() / chunks;
  for (int c = 0; c < chunks && size > 0; ++c) {
    per_chunk.push_back(stat(std::vector<double>(
        values.begin() + c * size, values.begin() + (c + 1) * size)));
  }
  return Median(per_chunk);
}

/// Class of instance `number`, drawn from the seed: one of the eight
/// all-commit classes, or Good/Flaky/Doomed with a third each.
std::string ScheduleSchema(const Shape& shape, uint64_t seed,
                           int64_t number) {
  uint64_t draw = SplitMix64(seed * 0x100000001B3ULL + number);
  if (shape.num_classes > 0) {
    return "Wf" + std::to_string(draw % shape.num_classes);
  }
  static const char* kMix[] = {"Good", "Flaky", "Doomed"};
  return kMix[draw % 3];
}

struct Completion {
  int64_t number = 0;
  WorkflowState state = WorkflowState::kUnknown;
  int64_t at_ns = 0;
  NodeId coordinator = crew::kInvalidNode;
};

/// Terminal replies seen at the front end, handed to the generator thread.
class CompletionSink {
 public:
  void Push(const Completion& completion) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(completion);
    }
    cv_.notify_one();
  }
  /// Waits until something arrived or `deadline_ns` passed; takes all.
  std::vector<Completion> Take(int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    int64_t wait = deadline_ns - NowNs();
    if (items_.empty() && wait > 0) {
      cv_.wait_for(lock, std::chrono::nanoseconds(wait),
                   [this] { return !items_.empty(); });
    }
    std::vector<Completion> out;
    out.swap(items_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> items_;
};

/// One assembled deployment. Members are destroyed after Stop() has
/// joined every runtime and transport thread.
struct Cluster {
  ~Cluster() { Stop(); }
  void Stop() {
    for (auto& node : nodes) node->Shutdown();
  }

  SendLedger ledger;
  std::vector<std::unique_ptr<net::NetNode>> nodes;
  std::vector<std::unique_ptr<Probe>> probes;
  std::vector<std::unique_ptr<net::Testbed>> testbeds;
  net::NetNode* front_node = nullptr;
  net::Testbed* front = nullptr;
};

net::TestbedOptions OptionsFor(const Shape& shape, const std::string& dir) {
  net::TestbedOptions options;
  options.mode = "dist";
  options.num_agents = kAgents;
  options.placement = "hash";
  options.num_classes = shape.num_classes;
  // As bench_net_throughput: no overdue-step probes under load.
  options.pending_timeout = 50000;
  if (shape.durable_mix) options.agdb_dir = dir + "/agdb";
  return options;
}

std::unique_ptr<Cluster> BuildCluster(const Shape& shape,
                                      const std::string& dir, bool trace,
                                      uint64_t seed, CompletionSink* sink) {
  auto cluster = std::make_unique<Cluster>();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  net::TestbedOptions options = OptionsFor(shape, dir);
  if (!options.agdb_dir.empty()) fs::create_directories(options.agdb_dir, ec);
  crew::Result<net::Topology> topology =
      net::Testbed::UnixTopology(options, dir, kEndpoints);
  if (!topology.ok()) {
    std::fprintf(stderr, "topology: %s\n",
                 topology.status().ToString().c_str());
    return nullptr;
  }
  for (const net::Endpoint& endpoint : topology.value().Endpoints()) {
    crew::rt::RuntimeOptions runtime_options;
    runtime_options.seed = seed;
    runtime_options.tick_us = kTickUs;
    cluster->nodes.push_back(std::make_unique<net::NetNode>(
        topology.value(), endpoint, runtime_options));
    crew::Status bound = cluster->nodes.back()->Bind();
    if (!bound.ok()) {
      std::fprintf(stderr, "bind: %s\n", bound.ToString().c_str());
      return nullptr;
    }
  }
  for (auto& node : cluster->nodes) {
    ProbeOptions probe_options;
    probe_options.trace = trace;
    probe_options.tick_ns = kTickUs * 1000;
    probe_options.ledger = &cluster->ledger;
    probe_options.kind = [](NodeId id) {
      return id == crew::kFrontEndNode ? NodeKind::kFrontEnd
                                       : NodeKind::kDistAgent;
    };
    probe_options.watch = [](NodeId id) { return id == crew::kFrontEndNode; };
    probe_options.after = [sink](NodeId, const sim::Message* message) {
      if (message == nullptr ||
          message->type != crew::runtime::wi::kWorkflowStatusReply) {
        return;
      }
      int64_t at = NowNs();
      crew::Result<crew::runtime::WorkflowStatusReplyMsg> reply =
          crew::runtime::WorkflowStatusReplyMsg::Parse(message->payload);
      if (!reply.ok()) return;
      WorkflowState state = reply.value().state;
      if (state != WorkflowState::kCommitted &&
          state != WorkflowState::kAborted) {
        return;
      }
      sink->Push({reply.value().instance.number, state, at, message->from});
    };
    cluster->probes.push_back(
        std::make_unique<Probe>(&node->runtime(), probe_options));
    cluster->testbeds.push_back(std::make_unique<net::Testbed>(
        cluster->probes.back().get(), topology.value(), node->self(),
        options));
    if (cluster->testbeds.back()->Hosts(crew::kFrontEndNode)) {
      cluster->front_node = node.get();
      cluster->front = cluster->testbeds.back().get();
    }
  }
  for (auto& node : cluster->nodes) node->Start();
  for (auto& node : cluster->nodes) {
    if (!node->WaitConnected(std::chrono::seconds(30))) {
      std::fprintf(stderr, "endpoint %s failed to connect\n",
                   node->self().Address().c_str());
      return nullptr;
    }
  }
  return cluster;
}

/// Cluster-wide quiescence: two all-quiet sweeps around an unchanged
/// admission count (as net::Cluster::Quiesce). False on timeout.
bool Quiesce(const Cluster& cluster, int64_t deadline_ns) {
  int64_t last = -1;
  while (NowNs() < deadline_ns) {
    bool quiet = true;
    int64_t admitted = 0;
    for (const auto& node : cluster.nodes) {
      if (!node->LooksQuiet()) quiet = false;
      admitted += node->AdmittedWork();
    }
    if (quiet && admitted == last) return true;
    last = quiet ? admitted : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

enum Phase { kWarmup = 0, kOpen = 1, kClosed = 2 };

struct Inst {
  std::string schema;
  WorkflowState expected = WorkflowState::kUnknown;
  Phase phase = kWarmup;
  int64_t due_ns = 0;   ///< scheduled arrival (open loop) or post time
  int64_t end_ns = 0;   ///< 0 until its terminal reply is seen
  WorkflowState observed = WorkflowState::kUnknown;
  WorkflowState final_state = WorkflowState::kUnknown;
  NodeId coordinator = crew::kInvalidNode;
};

/// Everything one pass (one deployment, three phases) measured.
struct Pass {
  bool ok = true;               ///< the deployment came up and drained
  std::vector<double> setup_s;
  std::vector<Inst> insts;      ///< index = instance number - 1
  int64_t open_cpu_ns = 0;
  int64_t open_count = 0;
  int64_t busy_cpu_ns = 0;      ///< first post to final drain
  double open_achieved_wf_s = 0;
  double closed_wf_s = 0;
  std::vector<double> late_us;  ///< open-loop generator lateness
  sim::Metrics metrics;
  net::SocketTransportStats transport;
  crew::rt::RuntimeStats runtime;
  LayerTotals layers;
  bool have_wal = false;
  WalReplay wal;
  std::vector<std::string> notes;
};

/// Drives one deployment through warm-up, open loop and closed loop.
/// The stopped deployment is moved to `keep` (when given) instead of
/// being destroyed, so the memory it retains stays counted.
Pass RunPass(const Shape& shape, const RunConfig& config, bool trace,
             double seconds, int setups, const std::string& dir,
             std::vector<std::unique_ptr<Cluster>>* keep = nullptr) {
  Pass pass;
  CompletionSink sink;
  std::unique_ptr<Cluster> cluster;
  for (int k = 0; k < setups; ++k) {
    cluster.reset();
    int64_t start = NowNs();
    cluster = BuildCluster(shape, dir, trace, config.seed, &sink);
    if (cluster == nullptr) {
      pass.ok = false;
      return pass;
    }
    pass.setup_s.push_back((NowNs() - start) / 1e9);
  }

  std::vector<Inst>& insts = pass.insts;
  net::Testbed* front = cluster->front;
  crew::rt::Runtime& front_runtime = cluster->front_node->runtime();
  int64_t in_flight = 0;
  auto post = [&](Phase phase, int64_t due_ns) {
    Inst inst;
    inst.schema = ScheduleSchema(shape, config.seed, insts.size() + 1);
    inst.expected = front->ExpectedState(inst.schema);
    inst.phase = phase;
    inst.due_ns = due_ns;
    insts.push_back(inst);
    int64_t number = static_cast<int64_t>(insts.size());
    std::string schema = inst.schema;
    front_runtime.Post(crew::kFrontEndNode, [front, schema, number]() {
      crew::Status started = front->StartInstance(schema, number);
      if (!started.ok()) {
        std::fprintf(stderr, "start %s#%lld: %s\n", schema.c_str(),
                     static_cast<long long>(number),
                     started.ToString().c_str());
      }
    });
    ++in_flight;
  };
  auto absorb = [&](int64_t deadline_ns) {
    for (const Completion& c : sink.Take(deadline_ns)) {
      if (c.number < 1 || c.number > static_cast<int64_t>(insts.size())) {
        continue;
      }
      Inst& inst = insts[c.number - 1];
      if (inst.end_ns != 0) continue;  // a repeated reply
      inst.end_ns = c.at_ns;
      inst.observed = c.state;
      inst.coordinator = c.coordinator;
      --in_flight;
    }
  };
  auto drain = [&]() {
    int64_t deadline = NowNs() + kDrainNs;
    while (in_flight > 0 && NowNs() < deadline) absorb(deadline);
    return in_flight == 0;
  };
  // Keeps `in_flight` instances going until `count` have been posted.
  auto closed_loop = [&](Phase phase, int64_t count) {
    int64_t posted = 0;
    int64_t progress_at = NowNs();
    while (posted < count) {
      while (in_flight < shape.in_flight && posted < count) {
        post(phase, NowNs());
        ++posted;
      }
      int64_t before = in_flight;
      absorb(NowNs() + 100'000'000);
      if (in_flight < before) {
        progress_at = NowNs();
      } else if (NowNs() - progress_at > kDrainNs) {
        return false;
      }
    }
    return true;
  };

  const double budget_s = seconds;
  int64_t busy_cpu = ProcessCpuNs();
  bool drained = closed_loop(
      kWarmup, static_cast<int64_t>(shape.rate_wf_s * budget_s / 10));
  drained = drain() && drained;

  // Open loop: arrivals evenly spaced at the fixed rate.
  const double period_ns = 1e9 / shape.rate_wf_s;
  pass.open_count = static_cast<int64_t>(shape.rate_wf_s * budget_s * 0.45);
  int64_t cpu_start = ProcessCpuNs();
  int64_t t0 = NowNs();
  for (int64_t i = 0; i < pass.open_count; ++i) {
    int64_t due = t0 + static_cast<int64_t>(i * period_ns);
    int64_t now = NowNs();
    if (due > now) {
      absorb(due);
      now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
    }
    pass.late_us.push_back((now - due) / 1e3);
    post(kOpen, due);
  }
  drained = drain() && drained;
  pass.open_cpu_ns = ProcessCpuNs() - cpu_start;
  int64_t last_open_end = t0;
  for (const Inst& inst : insts) {
    if (inst.phase == kOpen) last_open_end = std::max(last_open_end, inst.end_ns);
  }
  pass.open_achieved_wf_s = pass.open_count / ((last_open_end - t0) / 1e9);

  // Closed loop: a fixed number of instances in flight. Throughput is the
  // median over ten slices of the completions, leaving out the first
  // tenth (pipeline fill) and the last `in_flight` (pipeline drain).
  drained = closed_loop(kClosed, static_cast<int64_t>(
                                     shape.closed_sizing_wf_s * budget_s *
                                     0.45)) &&
            drained;
  drained = drain() && drained;
  std::vector<double> ends;
  for (const Inst& inst : insts) {
    if (inst.phase == kClosed && inst.end_ns > 0) {
      ends.push_back(static_cast<double>(inst.end_ns));
    }
  }
  std::sort(ends.begin(), ends.end());
  if (ends.size() > 10u * shape.in_flight) {
    std::vector<double> steady(ends.begin() + ends.size() / 10,
                               ends.end() - shape.in_flight);
    pass.closed_wf_s = MedianOfChunks(
        steady, 10, [](const std::vector<double>& slice) {
          return (slice.size() - 1) / ((slice.back() - slice.front()) / 1e9);
        });
  }

  if (!drained) pass.notes.push_back("instances still open after drain");
  if (!Quiesce(*cluster, NowNs() + kDrainNs)) {
    pass.notes.push_back("cluster did not quiesce");
    drained = false;
  }
  pass.busy_cpu_ns = ProcessCpuNs() - busy_cpu;
  for (auto& node : cluster->nodes) {
    net::SocketTransportStats t = node->transport().Stats();
    pass.transport.frames_sent += t.frames_sent;
    pass.transport.frames_replayed += t.frames_replayed;
    pass.transport.frames_batched += t.frames_batched;
    pass.transport.batches_sent += t.batches_sent;
    pass.transport.bytes_sent += t.bytes_sent;
    pass.transport.write_syscalls += t.write_syscalls;
    pass.transport.reconnects += t.reconnects;
  }
  cluster->Stop();
  for (auto& node : cluster->nodes) {
    crew::rt::RuntimeStats s = node->runtime().Stats();
    pass.runtime.timers_fired += s.timers_fired;
    pass.runtime.mailbox_parks += s.mailbox_parks;
    pass.runtime.max_mailbox_depth =
        std::max(pass.runtime.max_mailbox_depth, s.max_mailbox_depth);
    pass.metrics.MergeFrom(node->runtime().MergedMetrics());
  }
  // Authoritative terminal states, read after every thread has joined.
  for (size_t i = 0; i < insts.size(); ++i) {
    InstanceId id{insts[i].schema, static_cast<int64_t>(i + 1)};
    for (auto& testbed : cluster->testbeds) {
      if (testbed->Authoritative(id)) {
        insts[i].final_state = testbed->Terminal(id);
        break;
      }
    }
  }
  if (trace) {
    for (auto& probe : cluster->probes) pass.layers.Add(*probe);
  }
  if (shape.durable_mix) {
    crew::Result<WalReplay> wal =
        ReplayWal(dir + "/agdb", cluster->testbeds[0]->agent_ids(),
                  dir + "/replay");
    if (wal.ok()) {
      pass.have_wal = true;
      pass.wal = wal.value();
    } else {
      pass.notes.push_back("wal replay: " + wal.status().ToString());
      drained = false;
    }
  }
  pass.ok = drained;
  if (keep != nullptr) keep->push_back(std::move(cluster));
  cluster.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return pass;
}

/// Oracle: every instance ends as designated (Doomed aborts, everything
/// else commits), and the front end saw the same ending.
void Judge(const Pass& pass, WorkloadResult* out) {
  std::vector<std::string> stuck, wrong;
  for (size_t i = 0; i < pass.insts.size(); ++i) {
    const Inst& inst = pass.insts[i];
    std::string id = inst.schema + "#" + std::to_string(i + 1);
    if (inst.final_state != WorkflowState::kCommitted &&
        inst.final_state != WorkflowState::kAborted) {
      stuck.push_back(id);
    } else if (inst.final_state != inst.expected ||
               inst.observed != inst.final_state) {
      wrong.push_back(id);
    }
  }
  out->attempted += static_cast<int64_t>(pass.insts.size());
  out->failed += static_cast<int64_t>(stuck.size() + wrong.size());
  if (!stuck.empty() || !wrong.empty() || !pass.ok) out->correct = false;
  std::string line = std::to_string(pass.insts.size()) + " started, " +
                     std::to_string(stuck.size()) + " stuck, " +
                     std::to_string(wrong.size()) + " wrong outcome";
  for (size_t i = 0; i < stuck.size() && i < 10; ++i) {
    line += (i ? " " : "; first stuck: ") + stuck[i];
  }
  for (size_t i = 0; i < wrong.size() && i < 10; ++i) {
    line += (i ? " " : "; first wrong: ") + wrong[i];
  }
  out->notes.push_back(line);
  for (const std::string& note : pass.notes) out->notes.push_back(note);
}

std::vector<double> OpenSojournUs(const Pass& pass) {
  std::vector<double> out;
  for (const Inst& inst : pass.insts) {
    if (inst.phase == kOpen && inst.end_ns > 0) {
      out.push_back((inst.end_ns - inst.due_ns) / 1e3);
    }
  }
  return out;
}

}  // namespace

WorkloadResult RunLive(const RunConfig& config, bool durable_mix) {
  WorkloadResult result;
  const Shape shape = ShapeFor(durable_mix);
  result.Param("topology", "dist, front end + 3 agents on 4 unix-socket "
                           "endpoints, hash placement");
  result.Param("classes", durable_mix ? "Good/Flaky/Doomed, a third each"
                                      : "8 all-commit 4-step classes");
  result.Param("agdb", durable_mix ? "durable: WAL with fflush per append, "
                                     "no fsync"
                                   : "in-memory");
  result.Param("open_loop_rate_wf_s", std::to_string(shape.rate_wf_s));
  result.Param("closed_loop_in_flight", std::to_string(shape.in_flight));
  result.Param("tick_us", std::to_string(kTickUs));

  if (!config.trace) {
    // Several fresh deployments, each running all three phases; figures
    // are medians over deployments, so one unlucky deployment (thread
    // placement, a noisy neighbour) moves them little. Stopped
    // deployments stay allocated until the end, so peak_rss_mb counts
    // the state every instance of the run left behind, as one
    // long-lived deployment would hold it.
    std::vector<std::unique_ptr<Cluster>> stopped;
    std::vector<double> wf_s, p50, p90, cpu, setup_s, late_us, sojourn,
        achieved;
    int64_t messages = 0, started = 0;
    for (int d = 0; d < kDeployments; ++d) {
      Pass pass = RunPass(shape, config, /*trace=*/false,
                          config.seconds / static_cast<double>(kDeployments),
                          kSetupsPerDeployment,
                          config.work_dir + "/d" + std::to_string(d),
                          &stopped);
      Judge(pass, &result);
      if (!pass.ok) break;
      std::vector<double> own = OpenSojournUs(pass);
      wf_s.push_back(pass.closed_wf_s);
      achieved.push_back(pass.open_achieved_wf_s);
      p50.push_back(Percentile(own, 50));
      p90.push_back(Percentile(own, 90));
      cpu.push_back(pass.open_count ? pass.open_cpu_ns / 1e3 / pass.open_count
                                    : 0);
      setup_s.insert(setup_s.end(), pass.setup_s.begin(), pass.setup_s.end());
      late_us.insert(late_us.end(), pass.late_us.begin(), pass.late_us.end());
      sojourn.insert(sojourn.end(), own.begin(), own.end());
      messages += pass.metrics.TotalMessages();
      started += static_cast<int64_t>(pass.insts.size());
      if (pass.have_wal && d == 0) {
        result.Diag("recovery_ms", pass.wal.recovery_ms, "ms");
      }
    }
    result.Add("throughput_wf_s", Median(wf_s), "wf/s");
    result.Add("sojourn_p50_us", Median(p50), "us");

    result.Add("cpu_us_per_wf", Median(cpu), "us");
    result.Add("msgs_per_wf",
               started > 0 ? static_cast<double>(messages) / started : 0,
               "msgs");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    // p90 and above are printed, not gated: on a shared 4-core host one
    // run in three or four sees CPU steal that moves the tail by far more
    // than any bound.
    result.Diag("sojourn_p90_us", Median(p90), "us");
    result.Diag("sojourn_pooled_p50_us", Percentile(sojourn, 50), "us");
    result.Diag("sojourn_pooled_p90_us", Percentile(sojourn, 90), "us");
    result.Diag("sojourn_p99_us", Percentile(sojourn, 99), "us");
    result.Diag("sojourn_p999_us", Percentile(sojourn, 99.9), "us");
    result.Diag("sojourn_samples", static_cast<double>(sojourn.size()),
                "count");
    result.Diag("open_loop_achieved_wf_s", Median(achieved), "wf/s");
    result.Diag("generator_late_us_p50", Percentile(late_us, 50), "us");
    result.Diag("generator_late_us_p99", Percentile(late_us, 99), "us");
    result.Diag("failed_share",
                started > 0 ? static_cast<double>(result.failed) / started : 0,
                "ratio");
    return result;
  }

  // Traced invocation: an untraced pass, then a traced one, each with
  // half the time; both must end every instance the same way.
  Pass plain = RunPass(shape, config, /*trace=*/false, config.seconds / 2.0,
                       1, config.work_dir + "/u");
  Pass traced = RunPass(shape, config, /*trace=*/true, config.seconds / 2.0,
                        1, config.work_dir + "/t");
  Judge(plain, &result);
  Judge(traced, &result);
  size_t common = std::min(plain.insts.size(), traced.insts.size());
  for (size_t i = 0; i < common; ++i) {
    if (plain.insts[i].final_state != traced.insts[i].final_state) {
      result.correct = false;
      result.notes.push_back("traced run ends instance " +
                             std::to_string(i + 1) + " differently");
      break;
    }
  }
  result.notes.push_back("transparency: " + std::to_string(common) +
                         " instances compared between untraced and traced");

  const Pass& p = traced;
  const double wf = static_cast<double>(p.insts.size());
  const LayerTotals& layers = p.layers;
  CodecReplay codec = ReplayCodec(layers.captured);
  const double msgs_per_wf = p.metrics.TotalMessages() / wf;
  std::map<NodeId, int64_t> per_coordinator;
  for (const Inst& inst : p.insts) {
    if (inst.coordinator != crew::kInvalidNode) ++per_coordinator[inst.coordinator];
  }
  int64_t max_count = 0;
  for (const auto& [node, count] : per_coordinator) {
    max_count = std::max(max_count, count);
  }

  result.Add("sim.central_us_per_wf", 0, "");  // no simulator here
  result.Add("sim.parallel_us_per_wf", 0, "");
  result.Add("sim.dist_us_per_wf", 0, "");
  result.Add("central.handle_us_per_wf", 0, "");
  result.Add("dist.handle_us_per_wf", layers.dist_handle_ns / 1e3 / wf, "");
  result.Add("codec.bytes_per_wf", p.metrics.TotalBytes() / wf, "");
  result.Add("codec.serialize_ns", codec.serialize_ns, "");
  result.Add("codec.parse_ns", codec.parse_ns, "");
  result.Add("codec.us_per_wf",
             (codec.serialize_ns + codec.parse_ns) * msgs_per_wf / 1e3, "");
  AddMessageLayers(CategoryCounts(p.metrics), wf, &result);
  result.Add("load.max_node_l_per_wf",
             p.metrics.MaxNodeLoad() / (100.0 * wf), "");
  result.Add("rt.send_ns",
             layers.sends ? static_cast<double>(layers.send_ns) / layers.sends
                          : 0,
             "");
  result.Add("rt.queue_wait_us_p50", Percentile(layers.queue_wait_us, 50), "");
  result.Add("rt.queue_wait_us_p90", Percentile(layers.queue_wait_us, 90), "");
  result.Add("rt.timers_per_wf", p.runtime.timers_fired / wf, "");
  result.Add("rt.timer_late_us_p50", Percentile(layers.timer_late_us, 50), "");
  result.Add("rt.timer_late_us_p90", Percentile(layers.timer_late_us, 90), "");
  result.Add("rt.mailbox_parks_per_wf", p.runtime.mailbox_parks / wf, "");
  result.Add("rt.max_mailbox_depth",
             static_cast<double>(p.runtime.max_mailbox_depth), "");
  result.Add("net.frames_per_wf", p.transport.frames_sent / wf, "");
  result.Add("net.wire_bytes_per_wf", p.transport.bytes_sent / wf, "");
  result.Add("net.write_syscalls_per_wf", p.transport.write_syscalls / wf, "");
  result.Add("net.frames_per_batch",
             p.transport.batches_sent
                 ? static_cast<double>(p.transport.frames_batched) /
                       p.transport.batches_sent
                 : 0,
             "");
  result.Add("net.frames_replayed",
             static_cast<double>(p.transport.frames_replayed), "");
  result.Add("net.reconnects", static_cast<double>(p.transport.reconnects), "");
  result.Add("placement.imbalance",
             per_coordinator.empty()
                 ? 0
                 : max_count / (wf / static_cast<double>(kAgents)),
             "");
  result.Add("wal.records_per_wf", p.have_wal ? p.wal.records / wf : 0, "");
  result.Add("wal.bytes_per_wf", p.have_wal ? p.wal.bytes / wf : 0, "");
  result.Add("wal.append_ns", p.have_wal ? p.wal.append_ns : 0, "");
  result.Add("wal.replay_us_per_record",
             p.have_wal ? p.wal.replay_us_per_record : 0, "");
  result.Add("wal.recovery_ms", p.have_wal ? p.wal.recovery_ms : 0, "");
  result.Add("other.us_per_wf",
             (p.busy_cpu_ns - layers.handle_ns() - layers.timer_ns) / 1e3 / wf,
             "");
  result.Add("trace.overhead",
             traced.closed_wf_s > 0 ? plain.closed_wf_s / traced.closed_wf_s
                                    : 0,
             "");
  result.Add("driver.late_us_p99", Percentile(plain.late_us, 99), "");
  result.Add("oracle.failed_share",
             result.attempted ? static_cast<double>(result.failed) /
                                    result.attempted
                              : 0,
             "");
  result.Diag("codec.replayed", static_cast<double>(codec.messages), "count");
  result.Diag("codec.mismatches", static_cast<double>(codec.mismatches),
              "count");
  result.Diag("rt.timer_ns_per_wf", layers.timer_ns / wf, "ns");
  result.Diag("traced.closed_wf_s", traced.closed_wf_s, "wf/s");
  result.Diag("untraced.closed_wf_s", plain.closed_wf_s, "wf/s");
  AddHandlerDiagnostics(layers, &result);
  return result;
}

}  // namespace crewbench
