// Isolated per-layer timings, run in the traced pass on the workload's
// own keys and queries. Each one calls a single module's public
// functions in a loop and sits inside its own "iso.<layer>" span; the
// in-situ numbers come from the engines' RunReports instead (harness).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "src/index/fast_search.hpp"
#include "trace.hpp"

namespace bench {

struct LayerInputs {
  std::span<const key_t> keys;
  /// A sample of the workload's queries.
  std::span<const key_t> queries;
  /// Shards the serving backend splits `keys` into, and the kernel it
  /// resolves them with.
  std::uint32_t shards = 1;
  dici::index::SearchKernel kernel = dici::index::SearchKernel::kBranchless;
  /// Mean dispatched message size observed in situ (keys).
  std::size_t message_keys = 1;
  std::uint64_t batch_bytes = 0;
  /// Pending-write bound of the Store (ExperimentConfig::max_delta_keys).
  std::size_t max_delta_keys = 0;
  /// Wall time each timing loop runs for (at least three repetitions).
  double budget_s = 0.2;
};

struct LayerValue {
  std::string name;
  double value;
};

/// The isolated layer metrics plus the paper-model references
/// (model.message_us, model.c3_slave_ns_per_key) for the same sizes.
std::vector<LayerValue> isolated_layers(const LayerInputs& in, Tracer& tracer,
                                        std::uint64_t parent_span);

}  // namespace bench
