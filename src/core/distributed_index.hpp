// DistributedInCacheIndex — a small facade over one partitioned key set.
//
// Owns a sorted, de-duplicated key set, partitions it into cache-sized
// ranges (one per "node"), and answers rank queries either directly on
// the calling thread or in batches through ParallelNativeEngine, whose
// worker threads each own one partition. Serving many batches, mutating
// the keys, or running on the simulated cluster goes through the Engine
// seam (core/engine.hpp) and core::Store instead.
//
// Typical use (see examples/quickstart.cpp):
//
//   DistributedInCacheIndex index(std::move(keys), /*partitions=*/8);
//   auto owner = index.route(key);          // which node manages `key`
//   auto rank  = index.lookup(key);         // global upper-bound rank
//   auto ranks = index.lookup_batch(keys);  // parallel batched lookups
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/index/partitioner.hpp"
#include "src/util/types.hpp"

namespace dici {

class DistributedInCacheIndex {
 public:
  /// Takes ownership of `keys`; sorts and de-duplicates them. `partitions`
  /// is the number of slave nodes the index is spread over (the paper's
  /// rule of thumb: enough that each partition fits one L2 cache).
  DistributedInCacheIndex(std::vector<key_t> keys, std::uint32_t partitions);

  /// Suggest a partition count such that every partition fits within
  /// `cache_bytes` (e.g. the slaves' L2 size).
  static std::uint32_t partitions_for_cache(std::size_t num_keys,
                                            std::uint64_t cache_bytes);

  std::size_t size() const { return keys_.size(); }
  std::uint32_t partitions() const { return partitioner_.parts(); }
  std::span<const key_t> keys() const { return keys_; }
  const index::RangePartitioner& partitioner() const { return partitioner_; }

  /// The node responsible for `key` (the master's dispatch decision).
  std::uint32_t route(key_t key) const { return partitioner_.route(key); }

  /// Global upper-bound rank of `key`: the number of index keys <= key.
  rank_t lookup(key_t key) const;

  /// True iff `key` is present in the index.
  bool contains(key_t key) const;

  /// Batched parallel lookup: a ParallelNativeEngine with one worker
  /// thread per partition is built over these keys, serves `queries`,
  /// and is torn down. `batch_bytes` is the dispatch granularity; 0
  /// picks a default. Results are in query order.
  std::vector<rank_t> lookup_batch(std::span<const key_t> queries,
                                   std::uint64_t batch_bytes = 0) const;

 private:
  std::vector<key_t> keys_;
  index::RangePartitioner partitioner_;
};

}  // namespace dici
