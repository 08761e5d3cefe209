// The four workloads and the inputs they are fed.
//
// Everything an engine receives — index keys, queries, arrival seeds,
// writes — derives from the run's --seed, and is generated before any
// timer starts. Every query's expected rank is computed up front with a
// sort-then-merge walk, so checking answers stays linear even at 2^25
// keys.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/engine.hpp"
#include "src/util/types.hpp"

namespace bench {

using dici::key_t;
using dici::rank_t;

struct WorkloadSpec {
  const char* name;
  dici::core::Backend backend;
  /// Serving workers (parallel-native) or spawned nodes (cluster).
  std::uint32_t workers;
  /// log2 of the index key count.
  unsigned key_log2;
  /// skew-rw: a Store, a hot query window, and a concurrent writer.
  bool skewed_rw;
  /// Open-loop rate for p50_us / p99_us (Mqps). Its p99 stays at or
  /// below half the SLO on the reference host.
  double mid_mqps;
  /// Open-loop rates for max_mqps_under_slo (Mqps), ascending. The
  /// lowest meets the SLO and the highest misses it on the reference
  /// host.
  std::vector<double> ladder_mqps;
};

/// The workload table, in run order.
std::span<const WorkloadSpec> all_workloads();
/// Null when `name` is not a workload.
const WorkloadSpec* find_workload(std::string_view name);

/// skew-rw confinement: reads stay below this key, writes at or above
/// it, so no write can change a read's rank and every read is checked
/// against the base keys exactly.
inline constexpr key_t kWriteRegion = 0xE0000000u;

struct Inputs {
  /// Sorted, unique, all even (skew-rw inserts odd keys, so an insert
  /// never hits a base key).
  std::vector<key_t> keys;
  /// Query pool, consumed as a ring: trials take consecutive slices.
  std::vector<key_t> pool;
  /// upper_bound rank of every pool query over `keys`.
  std::vector<rank_t> expected;
};

/// 2^key_log2 index keys and a pool of `pool_size` queries, shaped per
/// workload: uniform over the key space, or for skew-rw 90 % in a
/// 1/64-wide hot window of the read region and 10 % uniform over it.
Inputs make_inputs(const WorkloadSpec& spec, unsigned key_log2,
                   std::size_t pool_size, std::uint64_t seed);

/// upper_bound rank of each query over sorted `keys`, by radix-sorting
/// the queries and merging: linear in keys + queries.
std::vector<rank_t> reference_ranks(std::span<const key_t> keys,
                                    std::span<const key_t> queries);

}  // namespace bench
