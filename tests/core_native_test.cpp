// Public-facade tests (DistributedInCacheIndex, whose lookup_batch runs
// on ParallelNativeEngine's threads) plus the real-thread affinity
// guard: every answer agrees bit-for-bit with std::upper_bound.
#include <gtest/gtest.h>

#include "src/arch/topology.hpp"
#include "src/core/distributed_index.hpp"
#include "src/core/engine.hpp"
#include "src/util/affinity.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {
namespace {

// Read before any test runs, so a test that leaks a pin into the main
// thread cannot hide the leak from the affinity test below.
const std::vector<int> kStartupCpus = allowed_cpus();

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
  std::vector<rank_t> expected;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(424242);
    fx.keys = workload::make_sorted_unique_keys(50000, rng);
    fx.queries = workload::make_uniform_queries(80000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

TEST(RealThreads, LeavesCallerAffinityUntouched) {
  if (kStartupCpus.size() < 2)
    GTEST_SKIP() << "one allowed CPU: a leaked pin would be invisible";
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::modern_cluster();
  cfg.num_nodes = 3;
  const auto& fx = fixture();
  std::vector<rank_t> ranks;
  make_engine(Backend::kParallelNative, cfg)->run(fx.keys, fx.queries, &ranks);
  EXPECT_EQ(ranks, fx.expected);
  const DistributedInCacheIndex index(fx.keys, 2);
  EXPECT_EQ(index.lookup_batch(fx.queries), fx.expected);
  // Both runs pinned only threads they spawned: this thread keeps its
  // mask, so a fleet built here afterwards still spreads over every CPU.
  EXPECT_EQ(allowed_cpus(), kStartupCpus);
  EXPECT_EQ(arch::make_topology(0).total_cpus(), kStartupCpus.size());
}

TEST(DistributedIndex, SortsAndDeduplicates) {
  DistributedInCacheIndex index({5, 3, 3, 1, 5}, 2);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.lookup(0), 0u);
  EXPECT_EQ(index.lookup(1), 1u);
  EXPECT_EQ(index.lookup(3), 2u);
  EXPECT_EQ(index.lookup(4), 2u);
  EXPECT_EQ(index.lookup(5), 3u);
}

TEST(DistributedIndex, ContainsExactKeysOnly) {
  DistributedInCacheIndex index({10, 20, 30}, 2);
  EXPECT_TRUE(index.contains(10));
  EXPECT_TRUE(index.contains(30));
  EXPECT_FALSE(index.contains(11));
  EXPECT_FALSE(index.contains(0));
}

TEST(DistributedIndex, RouteAgreesWithPartitioner) {
  Rng rng(5);
  auto keys = workload::make_sorted_unique_keys(10000, rng);
  DistributedInCacheIndex index(keys, 8);
  for (int i = 0; i < 1000; ++i) {
    const key_t q = static_cast<key_t>(rng.next());
    EXPECT_EQ(index.route(q), index.partitioner().route(q));
  }
}

TEST(DistributedIndex, LookupBatchMatchesReference) {
  Rng rng(6);
  auto keys = workload::make_sorted_unique_keys(30000, rng);
  const auto queries = workload::make_uniform_queries(50000, rng);
  const auto expected = workload::reference_ranks(
      std::span<const key_t>(keys), queries);
  DistributedInCacheIndex index(std::move(keys), 6);
  EXPECT_EQ(index.lookup_batch(queries), expected);
}

TEST(DistributedIndex, PartitionsForCache) {
  EXPECT_EQ(DistributedInCacheIndex::partitions_for_cache(1000, MiB), 1u);
  // 327,680 keys x 4 B = 1.25 MB over 512 KB caches -> 3 partitions.
  EXPECT_EQ(
      DistributedInCacheIndex::partitions_for_cache(327680, 512 * KiB), 3u);
  EXPECT_EQ(DistributedInCacheIndex::partitions_for_cache(1 << 23, 512 * KiB),
            64u);
}

TEST(DistributedIndex, SingleKeyIndex) {
  DistributedInCacheIndex index({42}, 1);
  EXPECT_EQ(index.lookup(41), 0u);
  EXPECT_EQ(index.lookup(42), 1u);
  EXPECT_TRUE(index.contains(42));
  // One key, one partition, one worker thread.
  const std::vector<key_t> queries{0, 41, 42, 43, 0xffffffffu};
  EXPECT_EQ(index.lookup_batch(queries),
            (std::vector<rank_t>{0, 0, 1, 1, 1}));
}

}  // namespace
}  // namespace dici::core
