// The benchmark's metric vocabulary and the statistics it reports with.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace bench {

/// A metric dici_bench measures. Which of them BENCHMARK.json gates, and
/// by how much, is BENCHMARK.json's alone (see Declared).
struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

/// End-to-end metrics, from untraced runs.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},
    {"lookup_mqps", "Mqps", true},
    {"p50_us", "us", false},
    {"p99_us", "us", false},
    {"max_mqps_under_slo", "Mqps", true},
    {"write_p99_us", "us", false},
    {"error_rate", "fraction", false},
};

/// Per-layer metrics, from the traced run.
inline constexpr MetricDef kPerLayer[] = {
    {"workload.gen_lag_ms", "ms", false},
    {"workload.achieved_ratio", "ratio", true},
    {"batcher.keys_per_round", "keys", true},
    {"batcher.deadline_share", "fraction", false},
    {"core.submit_us", "us", false},
    {"core.wait_us", "us", false},
    {"core.dispatch_ns_per_query", "ns", false},
    {"core.route_ns_per_query", "ns", false},
    {"core.messages_per_kquery", "count", false},
    {"core.worker_idle_fraction", "fraction", false},
    {"core.stolen_share", "fraction", false},
    {"core.engine_p50_us", "us", false},
    {"core.engine_p99_us", "us", false},
    {"index.resolve_ns_per_query", "ns", false},
    {"index.resolve_iso_ns_per_query", "ns", false},
    {"index.delta_correct_ns_per_query", "ns", false},
    {"index.fold_delta_ms", "ms", false},
    {"net.hub_handoff_us", "us", false},
    {"net.encode_us_per_msg", "us", false},
    {"net.decode_us_per_msg", "us", false},
    {"net.tcp_oneway_us", "us", false},
    {"net.wire_bytes_per_query", "bytes", false},
    {"cluster.node_busy_share", "fraction", true},
    {"trace.overhead_share", "fraction", false},
    {"cluster.closed_mqps", "Mqps", true},
    {"cluster.retries", "count", false},
    {"cluster.failovers", "count", false},
    {"store.rebuilds_per_s", "1/s", false},
    {"store.rebuild_ms", "ms", false},
    {"store.flush_us", "us", false},
    {"store.p99_during_rebuild_us", "us", false},
    {"model.message_us", "us", false},
    {"model.c3_slave_ns_per_key", "ns", false},
};

/// Null when `name` is in neither table.
inline const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : kEndToEnd)
    if (name == m.name) return &m;
  for (const MetricDef& m : kPerLayer)
    if (name == m.name) return &m;
  return nullptr;
}

/// What BENCHMARK.json declares: the one source for which metrics go
/// into the result line and for --compare's bounds.
struct Declared {
  /// Gated end-to-end metrics: how far the median may worsen, as a share
  /// of the baseline median, before --compare calls it a regression.
  std::map<std::string, double> bounds;
  std::vector<std::string> per_layer;
};

/// Read BENCHMARK.json at `path`. False with a diagnostic in *error when
/// it cannot be read, or names a metric dici_bench does not measure in
/// that role, or gives one another unit or direction.
bool load_declared(const std::string& path, Declared* out, std::string* error);

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the 'exclusive' method); the middle one is the median.
inline Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  double q[3];
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

inline double median(std::vector<double> v) {
  return quartiles(std::move(v)).median;
}

}  // namespace bench
