#include "src/core/distributed_index.hpp"

#include <algorithm>

#include "src/core/parallel_engine.hpp"
#include "src/index/sorted_array.hpp"
#include "src/util/assert.hpp"

namespace dici {

namespace {

std::vector<key_t> sorted_unique(std::vector<key_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  DICI_CHECK_MSG(!keys.empty(), "index requires at least one key");
  return keys;
}

}  // namespace

DistributedInCacheIndex::DistributedInCacheIndex(std::vector<key_t> keys,
                                                 std::uint32_t partitions)
    : keys_(sorted_unique(std::move(keys))),
      partitioner_(keys_, partitions) {}

std::uint32_t DistributedInCacheIndex::partitions_for_cache(
    std::size_t num_keys, std::uint64_t cache_bytes) {
  DICI_CHECK(cache_bytes >= sizeof(key_t));
  const std::uint64_t bytes = num_keys * sizeof(key_t);
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (bytes + cache_bytes - 1) / cache_bytes));
}

rank_t DistributedInCacheIndex::lookup(key_t key) const {
  const std::uint32_t p = partitioner_.route(key);
  const index::SortedArrayIndex part(partitioner_.keys_of(p));
  return partitioner_.start_of(p) + part.upper_bound_rank(key);
}

bool DistributedInCacheIndex::contains(key_t key) const {
  const rank_t rank = lookup(key);
  return rank > 0 && keys_[rank - 1] == key;
}

std::vector<rank_t> DistributedInCacheIndex::lookup_batch(
    std::span<const key_t> queries, std::uint64_t batch_bytes) const {
  core::ParallelConfig config;
  config.num_threads = partitions();
  if (batch_bytes != 0) config.batch_bytes = batch_bytes;
  std::vector<rank_t> ranks;
  core::ParallelNativeEngine(config).run(keys_, queries, &ranks);
  return ranks;
}

}  // namespace dici
