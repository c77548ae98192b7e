// Outside-in layer probe: a decorating sim::Backend that wraps every
// Context the systems ask for. Its Transport times Send and keeps a
// sample of the payloads sent, its Scheduler times timer callbacks and
// their lateness, and the MessageHandler it registers in place of each
// node's own times HandleMessage per wire type. Nothing in the program
// changes; the probe sits on the seams the backends already expose.
//
// Untraced runs use the same probe with `trace` off: then only the nodes
// the benchmark watches (the dist front end, the central/parallel
// engines) are wrapped, and only so it can see instances finish.
#ifndef CREWBENCH_PROBE_H_
#define CREWBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/context.h"
#include "sim/network.h"

namespace crewbench {

using crew::NodeId;

/// Nanoseconds on the benchmark's own monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Role of a node, for attributing handler time to a layer.
enum class NodeKind { kEngine, kThinAgent, kFrontEnd, kDistAgent };

/// One captured message, replayed later through the public codecs.
struct CapturedPayload {
  std::string type;
  std::string payload;
};

/// Tallies of one node. Every field is written only by the thread that
/// runs the node (its rt worker, or the simulator's one thread), and read
/// after that thread has been joined.
struct NodeTally {
  NodeKind kind = NodeKind::kThinAgent;
  int64_t handle_ns = 0;
  std::map<std::string, std::pair<int64_t, int64_t>> by_type;  // ns, count
  int64_t send_ns = 0;
  int64_t sends = 0;
  int64_t timer_ns = 0;
  int64_t timers = 0;
  std::vector<int64_t> timer_late_ns;  // rt only (virtual time is exact)
  std::vector<int64_t> queue_wait_ns;  // Send -> handler entry
  std::vector<CapturedPayload> captured;
};

/// Send timestamps per directed node pair, shared by every probe of one
/// process so a message sent through one endpoint's probe is matched
/// when another endpoint's probe hands it to its receiver. The
/// transports are FIFO per pair, so the receiver's oldest entry is the
/// message it is about to handle.
class SendLedger {
 public:
  void Push(NodeId from, NodeId to, int64_t at_ns);
  /// Send time of the oldest unmatched message from -> to; -1 if none.
  int64_t Pop(NodeId from, NodeId to);

 private:
  std::mutex mu_;
  std::map<std::pair<NodeId, NodeId>, std::deque<int64_t>> pairs_;
};

/// Samples kept per node for each wait distribution.
inline constexpr size_t kSamplesPerNode = 200000;

struct ProbeOptions {
  /// Time every node (the traced pass). Off: wrap watched nodes only.
  bool trace = false;
  /// Wall nanoseconds per tick of the inner backend; 0 under the
  /// simulator, whose timers are never late.
  int64_t tick_ns = 0;
  /// Payloads captured per node for the codec replay.
  size_t capture_per_node = 4000;
  /// Shared send ledger for queue-wait matching; null skips it.
  SendLedger* ledger = nullptr;
  std::function<NodeKind(NodeId)> kind;
  /// Nodes whose events `after` observes.
  std::function<bool(NodeId)> watch;
  /// Runs on the node's own thread after each handled message (or after
  /// each timer callback, with a null message) of a watched node.
  std::function<void(NodeId, const crew::sim::Message*)> after;
};

class Probe : public crew::sim::Backend {
 public:
  Probe(crew::sim::Backend* inner, ProbeOptions options);
  ~Probe() override;

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  crew::sim::Context* ContextFor(NodeId id) override;

  /// Per-node tallies. Read only after the nodes' threads are joined.
  std::map<NodeId, const NodeTally*> Tallies() const;

 private:
  class ProbeContext;
  class ProbeTransport;
  class ProbeScheduler;
  class ProbeHandler;
  struct Node;

  crew::sim::Backend* inner_;
  ProbeOptions options_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
};

}  // namespace crewbench

#endif  // CREWBENCH_PROBE_H_
