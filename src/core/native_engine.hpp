// Native (real-thread) engines: the same five methods executed on the
// host machine, with threads playing the cluster nodes and blocking
// queues playing MPI. Used by examples, the microbenchmarks (AB5), and
// the integration tests; cluster-scale *measurements* come from the
// simulator (see DESIGN.md's substitution note).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/engine.hpp"
#include "src/util/types.hpp"

namespace dici::core {

struct NativeConfig {
  Method method = Method::kC3;
  /// Thread count: 1 master + (num_nodes-1) slaves for Method C;
  /// num_nodes parallel workers for Methods A/B.
  std::uint32_t num_nodes = 4;
  std::uint64_t batch_bytes = 64 * KiB;
  /// Pin each node thread to a CPU (best-effort; harmless when the box
  /// has fewer cores than nodes).
  bool pin_threads = true;
  /// Node size for tree methods; 64 B matches current hardware lines.
  std::uint32_t tree_node_bytes = 64;
  /// Cache budget for buffered methods (B: L2-ish, C-2: L1-ish).
  std::uint64_t buffered_target_bytes = 256 * KiB;
  double buffer_fraction = 0.5;
  /// Exact upper_bound kernel the C-3 slaves resolve batches with (the
  /// tree methods ignore it). Eytzinger kernels lay out each slave's
  /// partition in BFS order before the stream starts.
  SearchKernel kernel = SearchKernel::kBranchless;
  /// Fill RunReport::latency_ns with measured wall-clock response times.
  /// This backend resolves a submission synchronously, so every query in
  /// it is charged the whole batch's wall time (batch granularity); see
  /// the v2 adapter in engine.cpp.
  bool track_latency = false;
};

class NativeCluster {
 public:
  explicit NativeCluster(const NativeConfig& config);

  /// Run all queries; fills `out_ranks` (query order) when non-null.
  /// The report's makespan is measured wall time. Every thread it pins
  /// is one it spawned, so the caller's CPU affinity is left untouched.
  RunReport run(std::span<const key_t> index_keys,
                std::span<const key_t> queries,
                std::vector<rank_t>* out_ranks = nullptr) const;

  const NativeConfig& config() const { return config_; }

 private:
  RunReport run_replicated(std::span<const key_t> index_keys,
                           std::span<const key_t> queries,
                           std::vector<rank_t>* out_ranks) const;
  RunReport run_distributed(std::span<const key_t> index_keys,
                            std::span<const key_t> queries,
                            std::vector<rank_t>* out_ranks) const;

  NativeConfig config_;
};

/// Translate the simulator-centric ExperimentConfig into the native
/// engine's knobs. Thread count mirrors node count; the real-hardware
/// knobs (tree node size, cache budget) keep their native defaults — the
/// MachineSpec describes the paper's 2005 cluster, not this host.
NativeConfig native_config_from(const ExperimentConfig& config);

/// Engine adapter over NativeCluster: the same five methods on real
/// threads, behind the v2 build/connect/submit surface.
class NativeEngine : public Engine {
 public:
  explicit NativeEngine(const NativeConfig& config) : cluster_(config) {}
  explicit NativeEngine(const ExperimentConfig& config)
      : NativeEngine(native_config_from(config)) {}

  std::shared_ptr<const Index> build(
      std::span<const key_t> index_keys) const override;
  const char* name() const override { return backend_name(Backend::kNative); }

 private:
  NativeCluster cluster_;
};

}  // namespace dici::core
