#include "probe.h"

#include <utility>

namespace crewbench {

using crew::Status;
namespace sim = crew::sim;

void SendLedger::Push(NodeId from, NodeId to, int64_t at_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  pairs_[{from, to}].push_back(at_ns);
}

int64_t SendLedger::Pop(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pairs_.find({from, to});
  if (it == pairs_.end() || it->second.empty()) return -1;
  int64_t at = it->second.front();
  it->second.pop_front();
  return at;
}

struct Probe::Node {
  NodeId id = crew::kInvalidNode;
  bool watched = false;
  sim::Context* inner = nullptr;
  NodeTally tally;
  std::unique_ptr<ProbeTransport> transport;
  std::unique_ptr<ProbeScheduler> scheduler;
  std::unique_ptr<ProbeContext> context;
  std::unique_ptr<ProbeHandler> handler;
};

class Probe::ProbeHandler : public sim::MessageHandler {
 public:
  ProbeHandler(const ProbeOptions* options, Node* node,
               sim::MessageHandler* inner)
      : options_(options), node_(node), inner_(inner) {}

  void HandleMessage(const sim::Message& message) override {
    if (options_->trace) {
      int64_t start = NowNs();
      NodeTally& tally = node_->tally;
      if (options_->ledger != nullptr) {
        int64_t sent = options_->ledger->Pop(message.from, message.to);
        if (sent >= 0 &&
            tally.queue_wait_ns.size() < kSamplesPerNode) {
          tally.queue_wait_ns.push_back(start - sent);
        }
      }
      inner_->HandleMessage(message);
      int64_t took = NowNs() - start;
      tally.handle_ns += took;
      auto& by_type = tally.by_type[message.type];
      by_type.first += took;
      ++by_type.second;
    } else {
      inner_->HandleMessage(message);
    }
    if (node_->watched) options_->after(node_->id, &message);
  }

 private:
  const ProbeOptions* options_;
  Node* node_;
  sim::MessageHandler* inner_;
};

class Probe::ProbeTransport : public sim::Transport {
 public:
  ProbeTransport(const ProbeOptions* options, Node* node)
      : options_(options), node_(node) {}

  void Register(NodeId id, sim::MessageHandler* handler) override {
    node_->handler = std::make_unique<ProbeHandler>(options_, node_, handler);
    node_->inner->network().Register(id, node_->handler.get());
  }
  void SetNodeDown(NodeId id, bool down) override {
    node_->inner->network().SetNodeDown(id, down);
  }
  bool IsNodeDown(NodeId id) const override {
    return node_->inner->network().IsNodeDown(id);
  }

  Status Send(sim::Message message) override {
    if (!options_->trace) return node_->inner->network().Send(std::move(message));
    NodeTally& tally = node_->tally;
    if (tally.captured.size() < options_->capture_per_node) {
      tally.captured.push_back({message.type, message.payload});
    }
    int64_t start = NowNs();
    if (options_->ledger != nullptr) {
      options_->ledger->Push(message.from, message.to, start);
    }
    Status status = node_->inner->network().Send(std::move(message));
    tally.send_ns += NowNs() - start;
    ++tally.sends;
    return status;
  }

 private:
  const ProbeOptions* options_;
  Node* node_;
};

class Probe::ProbeScheduler : public sim::Scheduler {
 public:
  ProbeScheduler(const ProbeOptions* options, Node* node)
      : options_(options), node_(node) {}

  void ScheduleAt(sim::Time at, Callback fn) override {
    sim::Scheduler& inner = node_->inner->queue();
    int64_t due_ns = 0;
    if (options_->tick_ns > 0) {
      due_ns = NowNs() + (at - inner.now()) * options_->tick_ns;
    }
    const ProbeOptions* options = options_;
    Node* node = node_;
    inner.ScheduleAt(at, [options, node, due_ns, fn = std::move(fn)]() {
      if (options->trace) {
        int64_t start = NowNs();
        NodeTally& tally = node->tally;
        if (due_ns > 0 &&
            tally.timer_late_ns.size() < kSamplesPerNode) {
          tally.timer_late_ns.push_back(start > due_ns ? start - due_ns : 0);
        }
        fn();
        tally.timer_ns += NowNs() - start;
        ++tally.timers;
      } else {
        fn();
      }
      if (node->watched) options->after(node->id, nullptr);
    });
  }
  sim::Time now() const override { return node_->inner->queue().now(); }

 private:
  const ProbeOptions* options_;
  Node* node_;
};

class Probe::ProbeContext : public sim::Context {
 public:
  explicit ProbeContext(Node* node) : node_(node) {}

  sim::Transport& network() override { return *node_->transport; }
  sim::Scheduler& queue() override { return *node_->scheduler; }
  sim::Metrics& metrics() override { return node_->inner->metrics(); }
  crew::obs::Tracer& tracer() override { return node_->inner->tracer(); }
  crew::Rng& rng() override { return node_->inner->rng(); }
  sim::Time now() const override { return node_->inner->now(); }

 private:
  Node* node_;
};

Probe::Probe(sim::Backend* inner, ProbeOptions options)
    : inner_(inner), options_(std::move(options)) {}

Probe::~Probe() = default;

sim::Context* Probe::ContextFor(NodeId id) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) return it->second->context.get();
  sim::Context* inner = inner_->ContextFor(id);
  bool watched = options_.watch && options_.watch(id);
  if (inner == nullptr || (!options_.trace && !watched)) return inner;
  auto node = std::make_unique<Node>();
  node->id = id;
  node->watched = watched;
  node->inner = inner;
  node->tally.kind = options_.kind ? options_.kind(id) : NodeKind::kThinAgent;
  node->transport = std::make_unique<ProbeTransport>(&options_, node.get());
  node->scheduler = std::make_unique<ProbeScheduler>(&options_, node.get());
  node->context = std::make_unique<ProbeContext>(node.get());
  sim::Context* context = node->context.get();
  nodes_.emplace(id, std::move(node));
  return context;
}

std::map<NodeId, const NodeTally*> Probe::Tallies() const {
  std::map<NodeId, const NodeTally*> out;
  for (const auto& [id, node] : nodes_) out[id] = &node->tally;
  return out;
}

}  // namespace crewbench
