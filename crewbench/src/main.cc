// crewbench: the CREW benchmark.
//
//   crewbench --workload <sim-table3|dist-commit|dist-durable-mix>
//             --seed <n> --seconds <t> --trace <0|1>
//
// --trace 0 runs the workload untraced and prints the end-to-end
// metrics; --trace 1 runs an untraced and a traced pass and prints the
// per-layer metrics. Either way every instance's terminal state is
// checked, and the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "bench.h"

#ifndef CREWBENCH_BUILD_TYPE
#define CREWBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CREWBENCH_COMPILER
#define CREWBENCH_COMPILER "unknown"
#endif

namespace crewbench {

void LayerTotals::Add(const Probe& probe) {
  for (const auto& [id, tally] : probe.Tallies()) {
    LayerTotals node;
    switch (tally->kind) {
      case NodeKind::kEngine: node.engine_handle_ns = tally->handle_ns; break;
      case NodeKind::kThinAgent: node.thin_handle_ns = tally->handle_ns; break;
      case NodeKind::kFrontEnd:
      case NodeKind::kDistAgent: node.dist_handle_ns = tally->handle_ns; break;
    }
    node.by_type = tally->by_type;
    node.send_ns = tally->send_ns;
    node.sends = tally->sends;
    node.timer_ns = tally->timer_ns;
    node.timers = tally->timers;
    for (int64_t ns : tally->timer_late_ns) {
      node.timer_late_us.push_back(ns / 1e3);
    }
    for (int64_t ns : tally->queue_wait_ns) {
      node.queue_wait_us.push_back(ns / 1e3);
    }
    node.captured = tally->captured;
    Merge(node);
  }
}

void LayerTotals::Merge(const LayerTotals& other) {
  engine_handle_ns += other.engine_handle_ns;
  thin_handle_ns += other.thin_handle_ns;
  dist_handle_ns += other.dist_handle_ns;
  for (const auto& [type, entry] : other.by_type) {
    by_type[type].first += entry.first;
    by_type[type].second += entry.second;
  }
  send_ns += other.send_ns;
  sends += other.sends;
  timer_ns += other.timer_ns;
  timers += other.timers;
  timer_late_us.insert(timer_late_us.end(), other.timer_late_us.begin(),
                       other.timer_late_us.end());
  queue_wait_us.insert(queue_wait_us.end(), other.queue_wait_us.begin(),
                       other.queue_wait_us.end());
  captured.insert(captured.end(), other.captured.begin(),
                  other.captured.end());
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"sim.central_us_per_wf", "us"},
      {"sim.parallel_us_per_wf", "us"},
      {"sim.dist_us_per_wf", "us"},
      {"central.handle_us_per_wf", "us"},
      {"dist.handle_us_per_wf", "us"},
      {"codec.bytes_per_wf", "bytes"},
      {"codec.serialize_ns", "ns"},
      {"codec.parse_ns", "ns"},
      {"codec.us_per_wf", "us"},
      {"msgs.normal_per_wf", "msgs"},
      {"msgs.failure_per_wf", "msgs"},
      {"msgs.input_change_per_wf", "msgs"},
      {"msgs.abort_per_wf", "msgs"},
      {"msgs.coordination_per_wf", "msgs"},
      {"msgs.election_per_wf", "msgs"},
      {"msgs.admin_per_wf", "msgs"},
      {"load.max_node_l_per_wf", "l"},
      {"rt.send_ns", "ns"},
      {"rt.queue_wait_us_p50", "us"},
      {"rt.queue_wait_us_p90", "us"},
      {"rt.timers_per_wf", "count"},
      {"rt.timer_late_us_p50", "us"},
      {"rt.timer_late_us_p90", "us"},
      {"rt.mailbox_parks_per_wf", "count"},
      {"rt.max_mailbox_depth", "count"},
      {"net.frames_per_wf", "count"},
      {"net.wire_bytes_per_wf", "bytes"},
      {"net.write_syscalls_per_wf", "count"},
      {"net.frames_per_batch", "count"},
      {"net.frames_replayed", "count"},
      {"net.reconnects", "count"},
      {"placement.imbalance", "ratio"},
      {"wal.records_per_wf", "count"},
      {"wal.bytes_per_wf", "bytes"},
      {"wal.append_ns", "ns"},
      {"wal.replay_us_per_record", "us"},
      {"wal.recovery_ms", "ms"},
      {"other.us_per_wf", "us"},
      {"trace.overhead", "ratio"},
      {"driver.late_us_p99", "us"},
      {"oracle.failed_share", "ratio"},
  };
  return list;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"throughput_wf_s", "wf/s"}, {"sojourn_p50_us", "us"},
      {"cpu_us_per_wf", "us"},     {"msgs_per_wf", "msgs"},
      {"setup_s", "s"},            {"peak_rss_mb", "MB"},
  };
  return list;
}

}  // namespace

std::vector<int64_t> CategoryCounts(const crew::sim::Metrics& metrics) {
  std::vector<int64_t> counts;
  for (int i = 0; i < crew::sim::kNumMsgCategories; ++i) {
    counts.push_back(
        metrics.MessagesIn(static_cast<crew::sim::MsgCategory>(i)));
  }
  return counts;
}

void AddMessageLayers(const std::vector<int64_t>& per_category,
                      double instances, WorkloadResult* out) {
  static const char* kNames[crew::sim::kNumMsgCategories] = {
      "normal", "failure", "input_change", "abort",
      "coordination", "election", "admin"};
  for (int i = 0; i < crew::sim::kNumMsgCategories; ++i) {
    double count = static_cast<double>(per_category[i]);
    out->Add(std::string("msgs.") + kNames[i] + "_per_wf",
             instances > 0 ? count / instances : 0, "msgs");
  }
}

void AddHandlerDiagnostics(const LayerTotals& layers, WorkloadResult* out) {
  for (const auto& [type, entry] : layers.by_type) {
    if (entry.second == 0) continue;
    out->Diag("handle." + type + "_ns",
              static_cast<double>(entry.first) / entry.second, "ns");
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "crewbench: %s\nusage: crewbench --workload "
               "<sim-table3|dist-commit|dist-durable-mix> --seed <n> "
               "--seconds <t> --trace <0|1>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_workload) return Usage("--workload is required");
  if (config.seconds < 1 || config.seconds > 600) {
    return Usage("--seconds must be 1..600");
  }
  config.work_dir = ".bench_build/run-" + std::to_string(getpid());

  std::printf("# crewbench workload=%s seed=%llu seconds=%d trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  const char* git = std::getenv("CREWBENCH_GIT_REV");
  std::printf("# host nproc=%ld build_type=%s compiler=\"%s\" git=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CREWBENCH_BUILD_TYPE,
              CREWBENCH_COMPILER, git != nullptr && *git ? git : "unknown");
  std::fflush(stdout);

  WorkloadResult result;
  if (config.workload == "sim-table3") {
    result = RunSimTable3(config);
  } else if (config.workload == "dist-commit") {
    result = RunLive(config, /*durable_mix=*/false);
  } else if (config.workload == "dist-durable-mix") {
    result = RunLive(config, /*durable_mix=*/true);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);

  for (const auto& [name, value] : result.params) {
    std::printf("# param %s=%s\n", name.c_str(), value.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("# note %s\n", note.c_str());
  }
  for (const Metric& m : result.diagnostics) {
    std::printf("# diag %-32s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const auto& expected = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, std::string> units(expected.begin(), expected.end());
  for (Metric& m : result.metrics) {
    if (units.count(m.name)) m.unit = units[m.name];
  }
  for (const Metric& m : result.metrics) {
    std::printf("# %s %-32s %16.4f %s\n", config.trace ? "layer" : "metric",
                m.name.c_str(), m.value, m.unit.c_str());
  }

  // The result line must carry exactly the declared metric set.
  std::set<std::string> names;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "crewbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    names.insert(m.name);
  }
  for (const auto& [name, unit] : expected) {
    if (names.count(name) == 0) {
      std::fprintf(stderr, "crewbench: metric %s missing\n", name.c_str());
      return 1;
    }
  }
  if (names.size() != expected.size() ||
      result.metrics.size() != expected.size()) {
    std::fprintf(stderr, "crewbench: unexpected metric set\n");
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (!result.correct) {
    std::fprintf(stderr, "crewbench: terminal-state check failed\n");
    return 1;
  }
  return result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace crewbench

int main(int argc, char** argv) { return crewbench::Main(argc, argv); }
