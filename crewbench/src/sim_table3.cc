// sim-table3: the paper's Table 3 workload on the virtual-time
// simulator, central, parallel and dist back to back on one thread.
// The assembly follows workload::RunWorkload (same generator draws, same
// start stagger and disruption delay) but keeps every instance, so the
// oracle can check each one and the probe can see when it ends.
//
// Each round runs in a forked child that streams one summary per
// architecture back over a pipe. Some Table 3 draws make dist crash
// (a use-after-free) or never go quiet; the child's death then costs
// that round, not the run, and is reported as a dist failure.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "central/system.h"
#include "dist/system.h"
#include "parallel/system.h"
#include "replay.h"
#include "runtime/wire.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/params.h"

namespace crewbench {
namespace {

using crew::InstanceId;
using crew::runtime::WorkflowState;
namespace sim = crew::sim;
namespace workload = crew::workload;

/// Instances per class (Table 3 range 10-1000): 1000 per architecture,
/// about two seconds per round of three. At this size the distributed
/// architecture already leaves a deterministic share of instances stuck
/// (it needs ME, RD and step failures together; see the README).
constexpr int kInstancesPerSchema = 50;
/// Set-up-only repetitions before the timed rounds; setup_s is their
/// median.
constexpr int kSetups = 11;
/// Rounds per --seconds: a round of three takes about this long on a
/// 4-core host.
constexpr int kSecondsPerRound = 2;
constexpr int64_t kEventsPerInstanceCap = 2000;
/// A round's child is killed after this long (the event cap normally
/// ends a storming round within seconds).
constexpr int64_t kRoundLimitNs = 30'000'000'000;
/// As in workload/driver.cc.
constexpr sim::Time kStartStagger = 3;
constexpr sim::Time kDisruptionDelay = 8;

enum class Arch { kCentral, kParallel, kDist };
const char* ArchName(Arch arch) {
  switch (arch) {
    case Arch::kCentral: return "central";
    case Arch::kParallel: return "parallel";
    case Arch::kDist: return "distributed";
  }
  return "?";
}

struct Instance {
  InstanceId id;
  bool may_abort = false;  ///< designated for a user abort
  NodeId owner = crew::kInvalidNode;
  int64_t start_ns = 0;
  int64_t end_ns = 0;      ///< 0 until the probe sees it end
  WorkflowState observed = WorkflowState::kUnknown;
  WorkflowState final_state = WorkflowState::kUnknown;
  NodeId coordinator = crew::kInvalidNode;
};

struct ArchRun {
  Arch arch = Arch::kCentral;
  std::vector<Instance> instances;
  sim::Metrics metrics;
  int64_t setup_ns = 0;
  int64_t run_ns = 0;
  int64_t cpu_ns = 0;
  double max_node_load = 0;
  bool quiet = true;   ///< the simulator drained before the event cap
  LayerTotals layers;  ///< traced pass only
};

bool Terminal(WorkflowState state) {
  return state == WorkflowState::kCommitted ||
         state == WorkflowState::kAborted;
}

/// Assembles one architecture and, unless `setup_only`, runs it.
ArchRun RunArch(const workload::Params& params, Arch arch, bool trace,
                bool setup_only = false) {
  ArchRun out;
  out.arch = arch;
  int64_t setup_start = NowNs();

  sim::Simulator simulator(params.seed);
  workload::WorkloadGenerator generator(params, &simulator.rng());
  crew::Result<std::vector<workload::GeneratedSchema>> generated =
      generator.GenerateAll();
  if (!generated.ok()) {
    std::fprintf(stderr, "sim-table3: %s\n",
                 generated.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<workload::GeneratedSchema> schemas =
      std::move(generated).value();
  crew::runtime::CoordinationSpec coordination =
      generator.MakeCoordinationSpec(schemas);
  crew::runtime::ProgramRegistry programs;
  generator.RegisterPrograms(schemas, &programs);
  crew::model::Deployment deployment;

  // Declared before the systems so the systems, which hold its
  // contexts, are destroyed first.
  std::unique_ptr<Probe> probe;
  std::unique_ptr<crew::central::CentralSystem> central_system;
  std::unique_ptr<crew::parallel::ParallelSystem> parallel_system;
  std::unique_ptr<crew::dist::DistributedSystem> dist_system;

  std::vector<Instance>& instances = out.instances;
  std::unordered_map<InstanceId, size_t, crew::InstanceIdHash> index;
  // Central/parallel engines end instances without telling anyone, so
  // after each engine event the benchmark re-checks that engine's open
  // instances once its committed+aborted count has moved.
  std::map<NodeId, std::vector<size_t>> open;
  std::map<NodeId, int64_t> ended;
  auto engine_of = [&](NodeId id) -> crew::central::WorkflowEngine& {
    return arch == Arch::kCentral ? central_system->engine()
                                  : parallel_system->engine(id - 1);
  };
  auto check_engine = [&](NodeId id) {
    crew::central::WorkflowEngine& engine = engine_of(id);
    int64_t now_ended = engine.committed_count() + engine.aborted_count();
    if (now_ended == ended[id]) return;
    ended[id] = now_ended;
    std::vector<size_t>& list = open[id];
    int64_t now = NowNs();
    for (size_t k = 0; k < list.size();) {
      Instance& inst = instances[list[k]];
      WorkflowState state = engine.QueryStatus(inst.id);
      if (Terminal(state)) {
        inst.end_ns = now;
        inst.observed = state;
        inst.coordinator = id;
        list[k] = list.back();
        list.pop_back();
      } else {
        ++k;
      }
    }
  };

  const int engines = arch == Arch::kParallel ? params.num_engines : 1;
  ProbeOptions options;
  options.trace = trace;
  options.capture_per_node = 100;  // 50+ nodes: keep the sample small
  options.kind = [arch, engines](NodeId id) {
    if (arch == Arch::kDist) {
      return id == crew::kFrontEndNode ? NodeKind::kFrontEnd
                                       : NodeKind::kDistAgent;
    }
    return id >= 1 && id <= engines ? NodeKind::kEngine
                                    : NodeKind::kThinAgent;
  };
  options.watch = [arch, engines](NodeId id) {
    if (arch == Arch::kDist) return id == crew::kFrontEndNode;
    return id >= 1 && id <= engines;
  };
  options.after = [&](NodeId id, const sim::Message* message) {
    if (arch != Arch::kDist) {
      check_engine(id);
      return;
    }
    if (message == nullptr ||
        message->type != crew::runtime::wi::kWorkflowStatusReply) {
      return;
    }
    crew::Result<crew::runtime::WorkflowStatusReplyMsg> reply =
        crew::runtime::WorkflowStatusReplyMsg::Parse(message->payload);
    if (!reply.ok() || !Terminal(reply.value().state)) return;
    auto it = index.find(reply.value().instance);
    if (it == index.end() || instances[it->second].end_ns != 0) return;
    Instance& inst = instances[it->second];
    inst.end_ns = NowNs();
    inst.observed = reply.value().state;
    inst.coordinator = message->from;
  };
  probe = std::make_unique<Probe>(&simulator, options);

  crew::central::EngineOptions engine_options;
  engine_options.navigation_load = params.navigation_load;
  crew::dist::AgentOptions agent_options;
  agent_options.navigation_load = params.navigation_load;
  std::vector<NodeId> agent_ids;
  switch (arch) {
    case Arch::kCentral:
      central_system = std::make_unique<crew::central::CentralSystem>(
          probe.get(), &programs, &deployment, &coordination, params.num_agents,
          engine_options);
      agent_ids = central_system->agent_ids();
      break;
    case Arch::kParallel:
      parallel_system = std::make_unique<crew::parallel::ParallelSystem>(
          probe.get(), &programs, &deployment, &coordination, engines,
          params.num_agents, engine_options);
      agent_ids = parallel_system->agent_ids();
      break;
    case Arch::kDist:
      dist_system = std::make_unique<crew::dist::DistributedSystem>(
          probe.get(), &programs, &deployment, &coordination, params.num_agents,
          agent_options);
      agent_ids = dist_system->agent_ids();
      break;
  }
  for (const workload::GeneratedSchema& g : schemas) {
    deployment.AssignRandom(*g.schema, agent_ids, params.eligible_per_step,
                            &simulator.rng());
  }
  for (const workload::GeneratedSchema& g : schemas) {
    switch (arch) {
      case Arch::kCentral:
        central_system->engine().RegisterSchema(g.schema);
        break;
      case Arch::kParallel:
        parallel_system->RegisterSchema(g.schema);
        break;
      case Arch::kDist:
        dist_system->RegisterSchema(g.schema);
        break;
    }
  }
  out.setup_ns = NowNs() - setup_start;
  if (setup_only) return out;

  // Arrivals and disruptions, exactly as workload::RunWorkload schedules
  // them. Instance numbers: per class under central/parallel, global
  // start order under dist (the front end numbers them).
  sim::Time at = 0;
  int64_t started = 0;
  for (size_t c = 0; c < schemas.size(); ++c) {
    const std::string name = schemas[c].schema->schema().name();
    const int klass = static_cast<int>(c);
    for (int64_t n = 1; n <= params.instances_per_schema; ++n) {
      ++started;
      at += kStartStagger;
      bool fail = generator.failing_instances(klass).count(n) > 0;
      bool abort = generator.abort_instances(klass).count(n) > 0;
      bool change = generator.input_change_instances(klass).count(n) > 0;
      Instance inst;
      inst.id = {name, arch == Arch::kDist ? started : n};
      inst.may_abort = abort;
      if (arch == Arch::kParallel) {
        inst.owner = parallel_system->OwnerEngine(inst.id);
      } else if (arch == Arch::kCentral) {
        inst.owner = 1;
      }
      size_t slot = instances.size();
      index[inst.id] = slot;
      instances.push_back(inst);

      simulator.queue().ScheduleAt(at, [&, slot, name, fail]() {
        Instance& me = instances[slot];
        std::map<std::string, crew::Value> inputs{
            {"WF.I1", crew::Value(int64_t{10})}};
        if (fail) inputs["WF.FAIL1"] = crew::Value(true);
        me.start_ns = NowNs();
        if (arch == Arch::kDist) {
          (void)dist_system->front_end().StartWorkflow(name,
                                                       std::move(inputs));
          return;
        }
        open[me.owner].push_back(slot);
        if (arch == Arch::kCentral) {
          (void)central_system->engine().StartWorkflow(name, me.id.number,
                                                       std::move(inputs));
        } else {
          (void)parallel_system->StartWorkflow(name, me.id.number,
                                               std::move(inputs));
        }
        check_engine(me.owner);
      });
      if (!abort && !change) continue;
      simulator.queue().ScheduleAt(at + kDisruptionDelay, [&, slot, abort]() {
        Instance& me = instances[slot];
        std::map<std::string, crew::Value> changed{
            {"WF.I1", crew::Value(int64_t{77})}};
        switch (arch) {
          case Arch::kDist:
            if (abort) {
              (void)dist_system->front_end().RequestAbort(me.id);
            } else {
              (void)dist_system->front_end().RequestChangeInputs(
                  me.id, std::move(changed));
            }
            return;
          case Arch::kCentral:
            if (abort) {
              (void)central_system->engine().AbortWorkflow(me.id);
            } else {
              (void)central_system->engine().ChangeInputs(
                  me.id, std::move(changed));
            }
            break;
          case Arch::kParallel:
            if (abort) {
              (void)parallel_system->AbortWorkflow(me.id);
            } else {
              (void)parallel_system->ChangeInputs(me.id, std::move(changed));
            }
            break;
        }
        check_engine(me.owner);
      });
    }
  }

  int64_t cpu_start = ProcessCpuNs();
  int64_t run_start = NowNs();
  // A healthy run needs a few hundred events per instance; a draw that
  // keeps messaging long past that is cut off and reported.
  const int64_t cap = kEventsPerInstanceCap * static_cast<int64_t>(
                                                 instances.size());
  out.quiet = simulator.Run(cap) < cap;
  out.run_ns = NowNs() - run_start;
  out.cpu_ns = ProcessCpuNs() - cpu_start;

  for (Instance& inst : instances) {
    switch (arch) {
      case Arch::kCentral:
        inst.final_state = central_system->engine().QueryStatus(inst.id);
        break;
      case Arch::kParallel:
        inst.final_state = parallel_system->QueryStatus(inst.id);
        break;
      case Arch::kDist:
        inst.final_state = dist_system->CoordinationStatus(inst.id);
        break;
    }
  }
  out.metrics = simulator.metrics();
  for (NodeId node : out.metrics.LoadedNodes()) {
    out.max_node_load = std::max(
        out.max_node_load, static_cast<double>(out.metrics.LoadAt(node)));
  }
  if (trace) out.layers.Add(*probe);
  return out;
}

/// What the parent learns about one architecture run; computed in the
/// child that ran it.
struct ArchSummary {
  int64_t started = 0;
  int64_t stuck = 0;
  int64_t wrong = 0;       ///< aborted without an abort request
  int64_t unobserved = 0;  ///< terminal, but the probe missed its end
  bool quiet = true;
  std::string first_bad;   ///< first stuck / wrong instance ids
  uint64_t digest = 0;     ///< final states + per-type message counts
  int64_t setup_ns = 0;
  int64_t run_ns = 0;
  int64_t cpu_ns = 0;
  int64_t bytes = 0;
  std::vector<int64_t> messages;  ///< per category
  double max_node_load = 0;
  std::vector<double> sojourn_us;
  std::map<NodeId, int64_t> per_coordinator;
  LayerTotals layers;

  int64_t total_messages() const {
    int64_t n = 0;
    for (int64_t m : messages) n += m;
    return n;
  }
};

std::string FirstIds(const std::vector<InstanceId>& ids, size_t limit) {
  std::string out;
  for (size_t i = 0; i < ids.size() && i < limit; ++i) {
    out += (i ? " " : "") + ids[i].ToString();
  }
  return out;
}

uint64_t Fnv(uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) hash = (hash ^ c) * 0x100000001B3ULL;
  return hash;
}

ArchSummary Summarize(const ArchRun& run) {
  ArchSummary s;
  std::vector<InstanceId> stuck, wrong;
  uint64_t digest = 0xCBF29CE484222325ULL;
  for (const Instance& inst : run.instances) {
    digest = Fnv(digest, std::to_string(static_cast<int>(inst.final_state)));
    if (!Terminal(inst.final_state)) {
      stuck.push_back(inst.id);
    } else if (inst.final_state == WorkflowState::kAborted &&
               !inst.may_abort) {
      wrong.push_back(inst.id);
    } else if (inst.observed != inst.final_state) {
      ++s.unobserved;
    }
    if (inst.end_ns > 0) {
      s.sojourn_us.push_back((inst.end_ns - inst.start_ns) / 1e3);
    }
    if (inst.coordinator != crew::kInvalidNode) {
      ++s.per_coordinator[inst.coordinator];
    }
  }
  for (const auto& [key, count] : run.metrics.by_type()) {
    digest = Fnv(digest, std::to_string(key.first) + key.second + "=" +
                             std::to_string(count));
  }
  s.started = static_cast<int64_t>(run.instances.size());
  s.stuck = static_cast<int64_t>(stuck.size());
  s.wrong = static_cast<int64_t>(wrong.size());
  s.quiet = run.quiet;
  if (!stuck.empty()) s.first_bad += "first stuck: " + FirstIds(stuck, 10);
  if (!wrong.empty()) s.first_bad += " first wrong: " + FirstIds(wrong, 10);
  s.digest = digest;
  s.setup_ns = run.setup_ns;
  s.run_ns = run.run_ns;
  s.cpu_ns = run.cpu_ns;
  s.bytes = run.metrics.TotalBytes();
  s.messages = CategoryCounts(run.metrics);
  s.max_node_load = run.max_node_load;
  s.layers = run.layers;
  return s;
}

// ---- child -> parent encoding: little-endian fields, length-prefixed
// strings. Both ends are this binary, so no versioning.

class Writer {
 public:
  void U64(uint64_t v) { out_.append(reinterpret_cast<const char*>(&v), 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    out_ += s;
  }
  std::string& out() { return out_; }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}
  bool ok() const { return ok_; }
  uint64_t U64() {
    uint64_t v = 0;
    if (pos_ + 8 > in_.size()) {
      ok_ = false;
      return 0;
    }
    std::memcpy(&v, in_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string Str() {
    uint64_t n = U64();
    if (!ok_ || n > in_.size() - pos_) {
      ok_ = false;
      return "";
    }
    std::string s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  bool done() const { return pos_ == in_.size(); }

 private:
  const std::string& in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void Encode(const ArchSummary& s, Writer* w) {
  for (int64_t v : {s.started, s.stuck, s.wrong, s.unobserved,
                    int64_t{s.quiet}, s.setup_ns, s.run_ns, s.cpu_ns,
                    s.bytes}) {
    w->I64(v);
  }
  for (int64_t m : s.messages) w->I64(m);
  w->Str(s.first_bad);
  w->U64(s.digest);
  w->F64(s.max_node_load);
  w->U64(s.sojourn_us.size());
  for (double v : s.sojourn_us) w->F64(v);
  w->U64(s.per_coordinator.size());
  for (const auto& [node, count] : s.per_coordinator) {
    w->I64(node);
    w->I64(count);
  }
  const LayerTotals& l = s.layers;
  for (int64_t v : {l.engine_handle_ns, l.thin_handle_ns, l.dist_handle_ns,
                    l.send_ns, l.sends, l.timer_ns, l.timers}) {
    w->I64(v);
  }
  w->U64(l.by_type.size());
  for (const auto& [type, entry] : l.by_type) {
    w->Str(type);
    w->I64(entry.first);
    w->I64(entry.second);
  }
  w->U64(l.captured.size());
  for (const CapturedPayload& c : l.captured) {
    w->Str(c.type);
    w->Str(c.payload);
  }
}

bool Decode(Reader* r, ArchSummary* s) {
  int64_t* fields[] = {&s->started, &s->stuck,  &s->wrong,
                       &s->unobserved, nullptr, &s->setup_ns,
                       &s->run_ns,  &s->cpu_ns, &s->bytes};
  for (int64_t* field : fields) {
    int64_t v = r->I64();
    if (field != nullptr) {
      *field = v;
    } else {
      s->quiet = v != 0;
    }
  }
  s->messages.resize(sim::kNumMsgCategories);
  for (int64_t& m : s->messages) m = r->I64();
  s->first_bad = r->Str();
  s->digest = r->U64();
  s->max_node_load = r->F64();
  for (uint64_t n = r->U64(); r->ok() && n > 0; --n) {
    s->sojourn_us.push_back(r->F64());
  }
  for (uint64_t n = r->U64(); r->ok() && n > 0; --n) {
    NodeId node = static_cast<NodeId>(r->I64());
    s->per_coordinator[node] = r->I64();
  }
  LayerTotals& l = s->layers;
  for (int64_t* field : {&l.engine_handle_ns, &l.thin_handle_ns,
                         &l.dist_handle_ns, &l.send_ns, &l.sends,
                         &l.timer_ns, &l.timers}) {
    *field = r->I64();
  }
  for (uint64_t n = r->U64(); r->ok() && n > 0; --n) {
    std::string type = r->Str();
    l.by_type[type].first = r->I64();
    l.by_type[type].second = r->I64();
  }
  for (uint64_t n = r->U64(); r->ok() && n > 0; --n) {
    std::string type = r->Str();
    l.captured.push_back({type, r->Str()});
  }
  return r->ok();
}

/// One round: the three architectures back to back, in a child process.
/// `archs` holds a summary per architecture that finished; `failure`
/// says how the child died when it did not get through all three.
struct Round {
  uint64_t seed = 0;
  std::vector<ArchSummary> archs;
  std::string failure;
  bool healthy() const {
    if (archs.size() != 3) return false;
    for (const ArchSummary& a : archs) {
      if (!a.quiet) return false;
    }
    return true;
  }
};

Round RunRound(const workload::Params& params, bool trace) {
  Round round;
  round.seed = params.seed;
  int fds[2];
  if (pipe(fds) != 0) {
    round.failure = "pipe failed";
    return round;
  }
  std::fflush(nullptr);
  pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    round.failure = "fork failed";
    return round;
  }
  if (child == 0) {
    close(fds[0]);
    for (Arch arch : {Arch::kCentral, Arch::kParallel, Arch::kDist}) {
      Writer frame;
      Encode(Summarize(RunArch(params, arch, trace)), &frame);
      Writer out;
      out.Str(frame.out());
      const std::string& bytes = out.out();
      for (size_t done = 0; done < bytes.size();) {
        ssize_t n = write(fds[1], bytes.data() + done, bytes.size() - done);
        if (n <= 0) _exit(3);
        done += static_cast<size_t>(n);
      }
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  int64_t deadline = NowNs() + kRoundLimitNs;
  bool timed_out = false;
  char buf[1 << 16];
  for (;;) {
    int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(std::min<int64_t>(left_ms, 1000))) <=
        0) {
      continue;
    }
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the child is done (or dead)
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);

  Reader reader(bytes);
  while (!reader.done() && round.archs.size() < 3) {
    std::string frame = reader.Str();
    Reader frame_reader(frame);
    ArchSummary summary;
    if (!reader.ok() || !Decode(&frame_reader, &summary)) break;
    round.archs.push_back(std::move(summary));
  }
  if (round.archs.size() < 3) {
    round.failure =
        std::string(ArchName(static_cast<Arch>(round.archs.size()))) +
        (timed_out ? " timed out"
         : WIFSIGNALED(status)
             ? " died of signal " + std::to_string(WTERMSIG(status))
             : " exited with status " + std::to_string(WEXITSTATUS(status)));
  }
  return round;
}

}  // namespace

WorkloadResult RunSimTable3(const RunConfig& config) {
  WorkloadResult result;
  workload::Params params;  // Table 3 defaults
  params.instances_per_schema = kInstancesPerSchema;
  params.seed = config.seed;
  result.Param("s", std::to_string(params.steps_per_workflow));
  result.Param("c", std::to_string(params.num_schemas));
  result.Param("i", std::to_string(params.instances_per_schema));
  result.Param("e", std::to_string(params.num_engines));
  result.Param("z", std::to_string(params.num_agents));
  result.Param("pf", std::to_string(params.p_step_failure));
  result.Param("pi", std::to_string(params.p_input_change));
  result.Param("pa", std::to_string(params.p_abort));
  result.Param("pr", std::to_string(params.p_reexecution));
  result.Param("me/ro/rd", std::to_string(params.mutex_steps) + "/" +
                               std::to_string(params.relative_order_steps) +
                               "/" +
                               std::to_string(params.rollback_dep_steps));

  // Each round draws its own Table 3 instance from (seed, round), so a
  // run's medians average over several draws and depend little on which
  // --seed it was given. The work is fixed: --seconds sets the number of
  // rounds, so counts repeat exactly for a seed.
  const int num_rounds =
      std::max(1, config.seconds / (config.trace ? 2 * kSecondsPerRound
                                                 : kSecondsPerRound));
  auto round_params = [&](int r) {
    workload::Params p = params;
    p.seed = r == 0 ? config.seed : SplitMix64(config.seed * 1009 + r);
    return p;
  };
  result.Param("rounds", std::to_string(num_rounds));
  result.Param("round_seeds", "seed, then SplitMix64(seed * 1009 + round)");

  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    int64_t setup_ns = 0;
    for (Arch arch : {Arch::kCentral, Arch::kParallel, Arch::kDist}) {
      setup_ns +=
          RunArch(round_params(0), arch, false, /*setup_only=*/true).setup_ns;
    }
    setup_s.push_back(setup_ns / 1e9);
  }

  std::vector<Round> rounds;
  for (int r = 0; r < num_rounds; ++r) {
    rounds.push_back(RunRound(round_params(r), /*trace=*/false));
  }

  // Oracle. The recorded dist defects -- instances left stuck, a draw
  // that never goes quiet, a crash -- count as failed instances but do
  // not fail the check; anything else does.
  const int64_t per_arch = static_cast<int64_t>(params.num_schemas) *
                           params.instances_per_schema;
  int64_t attempted = 0, failed = 0;
  for (Arch arch : {Arch::kCentral, Arch::kParallel, Arch::kDist}) {
    const size_t a = static_cast<size_t>(arch);
    int64_t started = 0, stuck = 0, wrong = 0, unobserved = 0, noisy = 0,
            died = 0;
    std::string first;
    for (const Round& round : rounds) {
      if (round.archs.size() <= a) {
        started += per_arch;
        stuck += per_arch;  // never checked: counted as failed
        ++died;
        if (first.empty()) {
          first = "; round seed " + std::to_string(round.seed) + ": " +
                  round.failure;
        }
        continue;
      }
      const ArchSummary& s = round.archs[a];
      started += s.started;
      stuck += s.stuck;
      wrong += s.wrong;
      unobserved += s.unobserved;
      if (!s.quiet) ++noisy;
      if (first.empty() && !s.first_bad.empty()) {
        first = "; round seed " + std::to_string(round.seed) + ", " +
                s.first_bad;
      }
    }
    attempted += started;
    failed += stuck + wrong;
    if ((stuck > 0 && arch != Arch::kDist) || wrong > 0 || unobserved > 0) {
      result.correct = false;
    }
    result.notes.push_back(
        std::string(ArchName(arch)) + ": " + std::to_string(started) +
        " started, " + std::to_string(stuck) + " stuck, " +
        std::to_string(wrong) + " wrong outcome, " +
        std::to_string(unobserved) + " unobserved, " + std::to_string(noisy) +
        " rounds never quiet, " + std::to_string(died) + " rounds died" +
        first);
  }
  if (result.correct && failed > 0) {
    result.notes.push_back(
        "every failure above is a recorded dist defect (stuck instances, a "
        "draw that never goes quiet, a crash); counted in failed, not a "
        "check failure");
  }
  result.attempted = attempted;
  result.failed = failed;

  // End-to-end figures: medians over the healthy untraced rounds, so a
  // round slowed by a noisy neighbour does not move them. A round whose
  // dist run died or never went quiet has no meaningful timing.
  int64_t run_ns = 0, messages = 0, timed_wf = 0;
  std::vector<double> all_sojourn_us;
  std::vector<double> round_wf_s, round_cpu_us, round_p50_us, round_p90_us;
  std::map<Arch, std::vector<double>> arch_us_per_wf;
  for (const Round& round : rounds) {
    if (!round.healthy()) continue;
    int64_t round_ns = 0, round_cpu = 0, round_started = 0, round_ended = 0;
    std::vector<double> sojourn_us;
    for (size_t a = 0; a < round.archs.size(); ++a) {
      const ArchSummary& s = round.archs[a];
      round_ns += s.run_ns;
      round_cpu += s.cpu_ns;
      round_started += s.started;
      round_ended += s.started - s.stuck;
      messages += s.total_messages();
      arch_us_per_wf[static_cast<Arch>(a)].push_back(
          static_cast<double>(s.run_ns) / 1e3 / s.started);
      sojourn_us.insert(sojourn_us.end(), s.sojourn_us.begin(),
                        s.sojourn_us.end());
    }
    run_ns += round_ns;
    timed_wf += round_started;
    round_wf_s.push_back(round_ended / (round_ns / 1e9));
    round_cpu_us.push_back(round_cpu / 1e3 / round_started);
    round_p50_us.push_back(Percentile(sojourn_us, 50));
    round_p90_us.push_back(Percentile(sojourn_us, 90));
    all_sojourn_us.insert(all_sojourn_us.end(), sojourn_us.begin(),
                          sojourn_us.end());
  }
  if (round_wf_s.empty()) {
    result.notes.push_back("no round ran to completion: nothing to time");
    result.correct = false;
    return result;
  }
  const double wf = static_cast<double>(attempted);
  result.Diag("timed_rounds", static_cast<double>(round_wf_s.size()),
              "count");
  result.Diag("sojourn_p90_us", Median(round_p90_us), "us");
  result.Diag("sojourn_p99_us", Percentile(all_sojourn_us, 99), "us");
  result.Diag("sojourn_p999_us", Percentile(all_sojourn_us, 99.9), "us");
  result.Diag("sojourn_samples", static_cast<double>(all_sojourn_us.size()),
              "count");
  result.Diag("failed_share", wf > 0 ? failed / wf : 0, "ratio");

  if (!config.trace) {
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    result.Add("throughput_wf_s", Median(round_wf_s), "wf/s");
    result.Add("sojourn_p50_us", Median(round_p50_us), "us");

    result.Add("cpu_us_per_wf", Median(round_cpu_us), "us");
    result.Add("msgs_per_wf", messages / static_cast<double>(timed_wf),
               "msgs");
    result.Add("setup_s", Median(setup_s), "s");
    // ru_maxrss is in KiB; the rounds ran in children.
    result.Add("peak_rss_mb",
               std::max(self.ru_maxrss, children.ru_maxrss) / 1024.0, "MB");
    return result;
  }

  // Traced pass: the same rounds again, through the timing probe. The
  // simulator is deterministic, so tracing must change nothing.
  std::vector<Round> traced;
  for (int r = 0; r < num_rounds; ++r) {
    traced.push_back(RunRound(round_params(r), /*trace=*/true));
    const Round& a = rounds[r];
    const Round& b = traced.back();
    for (size_t k = 0; k < std::min(a.archs.size(), b.archs.size()); ++k) {
      if (a.archs[k].digest != b.archs[k].digest && result.correct) {
        result.correct = false;
        result.notes.push_back(
            std::string("traced run differs from untraced: ") +
            ArchName(static_cast<Arch>(k)) + ", round seed " +
            std::to_string(a.seed));
      }
    }
  }
  if (result.correct) {
    result.notes.push_back(
        "transparency: traced rounds match untraced terminal states and "
        "per-type message counts exactly");
  }

  LayerTotals layers;
  int64_t traced_ns = 0, traced_wf = 0, traced_msgs = 0, traced_bytes = 0;
  std::vector<int64_t> categories(sim::kNumMsgCategories);
  double max_load = 0;
  int64_t central_like_wf = 0, dist_wf = 0, engine_ns = 0, dist_ns = 0;
  std::map<NodeId, int64_t> per_coordinator;
  for (const Round& round : traced) {
    if (!round.healthy()) continue;
    for (size_t a = 0; a < round.archs.size(); ++a) {
      const ArchSummary& s = round.archs[a];
      traced_ns += s.run_ns;
      traced_wf += s.started;
      traced_msgs += s.total_messages();
      traced_bytes += s.bytes;
      for (int c = 0; c < sim::kNumMsgCategories; ++c) {
        categories[c] += s.messages[c];
      }
      // Load at the busiest node, per instance of its own architecture.
      max_load = std::max(max_load, s.max_node_load / s.started);
      if (static_cast<Arch>(a) == Arch::kDist) {
        dist_wf += s.started;
        dist_ns += s.layers.dist_handle_ns;
        for (const auto& [node, count] : s.per_coordinator) {
          per_coordinator[node] += count;
        }
      } else {
        central_like_wf += s.started;
        engine_ns += s.layers.engine_handle_ns;
      }
      layers.Merge(s.layers);
    }
  }
  if (traced_wf == 0) {
    result.notes.push_back("no traced round ran to completion");
    result.correct = false;
    return result;
  }
  const double twf = static_cast<double>(traced_wf);
  CodecReplay codec = ReplayCodec(layers.captured);
  const double msgs_per_wf = traced_msgs / twf;

  result.Add("sim.central_us_per_wf", Median(arch_us_per_wf[Arch::kCentral]),
             "");
  result.Add("sim.parallel_us_per_wf",
             Median(arch_us_per_wf[Arch::kParallel]), "");
  result.Add("sim.dist_us_per_wf", Median(arch_us_per_wf[Arch::kDist]), "");
  result.Add("central.handle_us_per_wf",
             central_like_wf ? engine_ns / 1e3 / central_like_wf : 0, "");
  result.Add("dist.handle_us_per_wf", dist_wf ? dist_ns / 1e3 / dist_wf : 0,
             "");
  result.Add("codec.bytes_per_wf", traced_bytes / twf, "");
  result.Add("codec.serialize_ns", codec.serialize_ns, "");
  result.Add("codec.parse_ns", codec.parse_ns, "");
  result.Add("codec.us_per_wf",
             (codec.serialize_ns + codec.parse_ns) * msgs_per_wf / 1e3, "");
  AddMessageLayers(categories, twf, &result);
  result.Add("load.max_node_l_per_wf", max_load / params.navigation_load, "");
  for (const char* name :
       {"rt.send_ns", "rt.queue_wait_us_p50", "rt.queue_wait_us_p90",
        "rt.timers_per_wf", "rt.timer_late_us_p50", "rt.timer_late_us_p90",
        "rt.mailbox_parks_per_wf", "rt.max_mailbox_depth",
        "net.frames_per_wf", "net.wire_bytes_per_wf",
        "net.write_syscalls_per_wf", "net.frames_per_batch",
        "net.frames_replayed", "net.reconnects"}) {
    result.Add(name, 0, "");  // no live runtime, no sockets
  }
  double imbalance = 0;
  if (!per_coordinator.empty()) {
    int64_t max = 0, sum = 0;
    for (const auto& [node, count] : per_coordinator) {
      max = std::max(max, count);
      sum += count;
    }
    imbalance = max / (static_cast<double>(sum) / params.num_agents);
  }
  result.Add("placement.imbalance", imbalance, "");
  for (const char* name : {"wal.records_per_wf", "wal.bytes_per_wf",
                           "wal.append_ns", "wal.replay_us_per_record",
                           "wal.recovery_ms"}) {
    result.Add(name, 0, "");  // in-memory databases
  }
  result.Add("other.us_per_wf",
             (traced_ns - layers.handle_ns() - layers.timer_ns) / 1e3 / twf,
             "");
  result.Add("trace.overhead",
             (traced_ns / twf) / (static_cast<double>(run_ns) / timed_wf), "");
  result.Add("driver.late_us_p99", 0, "");  // virtual-time arrivals
  result.Add("oracle.failed_share", wf > 0 ? failed / wf : 0, "");
  result.Diag("sim.send_ns",
              layers.sends ? static_cast<double>(layers.send_ns) / layers.sends
                           : 0,
              "ns");
  result.Diag("codec.replayed", static_cast<double>(codec.messages), "count");
  result.Diag("codec.mismatches", static_cast<double>(codec.mismatches),
              "count");
  AddHandlerDiagnostics(layers, &result);
  return result;
}

}  // namespace crewbench
