// Adversarial and degenerate workloads: every engine must stay exact
// when all the load lands on one partition, one leaf, or one key.
#include <gtest/gtest.h>

#include "src/core/parallel_engine.hpp"
#include "src/core/sim_engine.hpp"
#include "src/index/buffered.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici {
namespace {

std::vector<key_t> fixture_keys() {
  Rng rng(555);
  return workload::make_sorted_unique_keys(40000, rng);
}

core::ExperimentConfig sim_config(core::Method m) {
  core::ExperimentConfig cfg;
  cfg.method = m;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 5;
  cfg.batch_bytes = 16 * KiB;
  return cfg;
}

class AdversarialSim : public ::testing::TestWithParam<core::Method> {};

TEST_P(AdversarialSim, AllQueriesIdentical) {
  const auto keys = fixture_keys();
  const std::vector<key_t> queries(20000, keys[keys.size() / 2]);
  const auto expected = workload::reference_ranks(keys, queries);
  std::vector<rank_t> ranks;
  core::SimCluster(sim_config(GetParam())).run(keys, queries, &ranks);
  EXPECT_EQ(ranks, expected);
}

TEST_P(AdversarialSim, AllQueriesBelowEveryKey) {
  auto keys = fixture_keys();
  keys.front() = 100;  // keep keys sorted but leave room below
  const std::vector<key_t> queries(5000, 0);
  std::vector<rank_t> ranks;
  core::SimCluster(sim_config(GetParam())).run(keys, queries, &ranks);
  for (const auto r : ranks) ASSERT_EQ(r, 0u);
}

TEST_P(AdversarialSim, AllQueriesAboveEveryKey) {
  const auto keys = fixture_keys();
  const std::vector<key_t> queries(5000, 0xFFFFFFFFu);
  std::vector<rank_t> ranks;
  core::SimCluster(sim_config(GetParam())).run(keys, queries, &ranks);
  for (const auto r : ranks)
    ASSERT_EQ(r, static_cast<rank_t>(keys.size()));
}

TEST_P(AdversarialSim, SingleQuery) {
  const auto keys = fixture_keys();
  const std::vector<key_t> queries{keys[7]};
  std::vector<rank_t> ranks;
  core::SimCluster(sim_config(GetParam())).run(keys, queries, &ranks);
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0], 8u);
}

TEST_P(AdversarialSim, QueriesAreEveryKeyInOrder) {
  // The full key set as the query stream: rank of keys[i] must be i+1.
  const auto keys = fixture_keys();
  std::vector<rank_t> ranks;
  core::SimCluster(sim_config(GetParam())).run(keys, keys, &ranks);
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(ranks[i], static_cast<rank_t>(i + 1));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, AdversarialSim,
                         ::testing::Values(core::Method::kA, core::Method::kB,
                                           core::Method::kC1,
                                           core::Method::kC2,
                                           core::Method::kC3),
                         [](const auto& info) {
                           std::string n = core::method_name(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(AdversarialNative, HotPartitionStillExact) {
  // Every query routes to one slave: the worst load imbalance.
  const auto keys = fixture_keys();
  std::vector<key_t> queries(30000);
  Rng rng(8);
  for (auto& q : queries)
    q = keys[rng.below(keys.size() / 8)];  // first partition only
  const auto expected = workload::reference_ranks(keys, queries);
  core::ParallelConfig cfg;
  cfg.num_threads = 8;
  std::vector<rank_t> ranks;
  core::ParallelNativeEngine(cfg).run(keys, queries, &ranks);
  EXPECT_EQ(ranks, expected);
}

TEST(AdversarialBuffered, SingleBucketBatch) {
  // All keys land in one subtree: one buffer receives the whole batch.
  const auto keys = fixture_keys();
  const index::StaticTree tree(keys,
                               {32, index::TreeLayout::kExplicitPointers});
  std::vector<index::BufferedItem> items;
  for (std::uint32_t i = 0; i < 5000; ++i)
    items.push_back({keys[3], i});
  index::BufferedConfig cfg;
  cfg.target_cache_bytes = 1 * KiB;  // many small groups
  sim::NullProbe probe;
  index::BufferedResults results;
  index::buffered_lookup(tree, items, cfg, probe, results);
  ASSERT_EQ(results.size(), items.size());
  for (const auto& [id, rank] : results) EXPECT_EQ(rank, 4u);
}

TEST(AdversarialSim, DenseConsecutiveKeySpace) {
  // Index = [1000, 1000+n): every query is within one of the keys.
  std::vector<key_t> keys(30000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<key_t>(1000 + i);
  std::vector<key_t> queries;
  Rng rng(12);
  for (int i = 0; i < 20000; ++i)
    queries.push_back(static_cast<key_t>(rng.below(32000)));
  const auto expected = workload::reference_ranks(keys, queries);
  for (const auto method : {core::Method::kB, core::Method::kC3}) {
    std::vector<rank_t> ranks;
    core::SimCluster(sim_config(method)).run(keys, queries, &ranks);
    ASSERT_EQ(ranks, expected);
  }
}

TEST(AdversarialSim, TinyIndexManyNodes) {
  // Fewer keys per partition than leaf capacity.
  std::vector<key_t> keys{5, 10, 15, 20, 25, 30, 35, 40};
  std::vector<key_t> queries;
  for (key_t q = 0; q < 45; ++q) queries.push_back(q);
  const auto expected = workload::reference_ranks(keys, queries);
  auto cfg = sim_config(core::Method::kC3);
  cfg.num_nodes = 5;  // 4 slaves, 2 keys each
  std::vector<rank_t> ranks;
  core::SimCluster(cfg).run(keys, queries, &ranks);
  EXPECT_EQ(ranks, expected);
}

}  // namespace
}  // namespace dici
