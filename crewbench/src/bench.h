// Shared result types and helpers of the CREW benchmark.
#ifndef CREWBENCH_BENCH_H_
#define CREWBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "sim/metrics.h"

namespace crewbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for sockets and logs, relative to the working
  /// directory (the checkout root), so the run touches nothing outside.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` form the result line;
/// `diagnostics` and `notes` are printed above it and never gated.
struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, std::string>> params;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Diag(const std::string& name, double value, const std::string& unit) {
    diagnostics.push_back({name, value, unit});
  }
  void Param(const std::string& name, const std::string& value) {
    params.emplace_back(name, value);
  }
};

WorkloadResult RunSimTable3(const RunConfig& config);
/// `durable_mix`: the Good/Flaky/Doomed mix over durable AGDBs;
/// otherwise the all-commit classes over in-memory AGDBs.
WorkloadResult RunLive(const RunConfig& config, bool durable_mix);

/// Per-layer sums over the probes of one pass.
struct LayerTotals {
  int64_t engine_handle_ns = 0;   ///< central/parallel engines
  int64_t thin_handle_ns = 0;     ///< thin agents
  int64_t dist_handle_ns = 0;     ///< dist front end + full agents
  std::map<std::string, std::pair<int64_t, int64_t>> by_type;  // ns, n
  int64_t send_ns = 0;
  int64_t sends = 0;
  int64_t timer_ns = 0;
  int64_t timers = 0;
  std::vector<double> timer_late_us;
  std::vector<double> queue_wait_us;
  std::vector<CapturedPayload> captured;

  void Add(const Probe& probe);
  void Merge(const LayerTotals& other);
  int64_t handle_ns() const {
    return engine_handle_ns + thin_handle_ns + dist_handle_ns;
  }
};

/// Names of the per-layer metrics, with their units. Every traced run
/// reports all of them (zero where a layer is absent); the units given
/// here override whatever the workload passed.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Messages per category (sim::MsgCategory order).
std::vector<int64_t> CategoryCounts(const crew::sim::Metrics& metrics);

/// Adds msgs.<category>_per_wf for every message category.
void AddMessageLayers(const std::vector<int64_t>& per_category,
                      double instances, WorkloadResult* out);

/// Adds handle.<type>_ns diagnostics (mean handler time per wire type).
void AddHandlerDiagnostics(const LayerTotals& layers, WorkloadResult* out);

/// SplitMix64 finaliser: derives independent sub-seeds from one seed.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Process CPU time (user + sys, all threads), nanoseconds.
int64_t ProcessCpuNs();
/// Resident-set high-water mark of this process, MB.
double PeakRssMb();

}  // namespace crewbench

#endif  // CREWBENCH_BENCH_H_
