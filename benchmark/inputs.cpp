#include "inputs.hpp"

#include <algorithm>

#include "src/util/assert.hpp"
#include "src/util/rng.hpp"

namespace bench {

using dici::core::Backend;

std::span<const WorkloadSpec> all_workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Shards fit the per-core L2: dispatch, hub and batcher dominate.
      {"uniform-l2", Backend::kParallelNative, 3, 20, false, 6.0,
       {6.0, 9.0, 12.0, 15.0, 18.0, 21.0}},
      // 128 MiB outgrows the L3: every descent level misses to DRAM.
      {"uniform-dram", Backend::kParallelNative, 3, 25, false, 2.0,
       {2.0, 2.8, 3.6, 4.4, 5.2, 6.0}},
      // Queries cross a process and socket boundary: wire and transport.
      // Two nodes, not three: with four cores, three pinned nodes and the
      // spinning load generator leave the coordinator's receiver threads
      // no core of their own, and p99 then measures that shortage.
      // 2^19 keys, so each node's 1 MiB shard fits its 2 MiB L2 as on
      // uniform-l2: a 2 MiB shard fills the L2, spills to the L3 other
      // tenants share, and whole runs then read up to a third slower.
      {"cluster-tcp", Backend::kCluster, 2, 19, false, 2.0,
       {3.0, 4.5, 6.0, 7.5, 9.0, 10.5}},
      // A hot shard and concurrent writes: stealing, delta, rebuilds.
      {"skew-rw", Backend::kParallelNative, 2, 20, true, 1.5,
       {4.0, 6.0, 8.0, 10.0, 12.0, 14.0}},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

namespace {

/// n sorted, unique, even keys spread over the whole 32-bit space:
/// random gaps averaging just under 2^32 / n, drawn in one linear pass
/// (sorting 2^25 random keys would dominate set-up).
std::vector<key_t> make_keys(std::size_t n, dici::Rng& rng) {
  const std::uint64_t mean_half_gap =
      static_cast<std::uint64_t>(0.99 * 2147483648.0 / static_cast<double>(n));
  DICI_CHECK(mean_half_gap >= 1);
  std::vector<key_t> keys(n);
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    at += rng.between(1, 2 * mean_half_gap - 1);
    keys[i] = static_cast<key_t>(2 * at);
    DICI_CHECK_MSG(2 * at <= 0xFFFFFFFFull, "key gaps overflowed 32 bits");
  }
  return keys;
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, unsigned key_log2,
                   std::size_t pool_size, std::uint64_t seed) {
  dici::Rng rng(seed * 0x9e3779b97f4a7c15ull + spec.key_log2);
  Inputs in;
  in.keys = make_keys(std::size_t{1} << key_log2, rng);
  in.pool.resize(pool_size);
  if (!spec.skewed_rw) {
    for (key_t& q : in.pool) q = static_cast<key_t>(rng.next() >> 32);
  } else {
    const std::uint64_t hot_width = kWriteRegion / 64;
    const std::uint64_t hot_lo = rng.below(kWriteRegion - hot_width);
    for (key_t& q : in.pool)
      q = static_cast<key_t>(rng.uniform01() < 0.9
                                 ? hot_lo + rng.below(hot_width)
                                 : rng.below(kWriteRegion));
  }
  in.expected = reference_ranks(in.keys, in.pool);
  return in;
}

std::vector<rank_t> reference_ranks(std::span<const key_t> keys,
                                    std::span<const key_t> queries) {
  // LSD radix sort of (query << 32 | position), 11 bits per pass over
  // the 32 query bits, then one merge walk against the sorted keys.
  const std::size_t n = queries.size();
  std::vector<std::uint64_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i)
    a[i] = (std::uint64_t{queries[i]} << 32) | i;
  for (const int shift : {32, 43, 54}) {
    std::vector<std::size_t> count(2049, 0);
    for (const std::uint64_t v : a) ++count[((v >> shift) & 2047) + 1];
    for (std::size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
    for (const std::uint64_t v : a) b[count[(v >> shift) & 2047]++] = v;
    a.swap(b);
  }
  std::vector<rank_t> ranks(n);
  std::size_t k = 0;
  for (const std::uint64_t v : a) {
    const key_t q = static_cast<key_t>(v >> 32);
    while (k < keys.size() && keys[k] <= q) ++k;
    ranks[v & 0xFFFFFFFFu] = static_cast<rank_t>(k);
  }
  return ranks;
}

}  // namespace bench
