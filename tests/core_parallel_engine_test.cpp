// ParallelNativeEngine correctness: exact agreement with
// std::upper_bound across thread counts, shard counts, and kernels, plus
// degenerate inputs and cross-backend agreement through the Engine seam.
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/engine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {
namespace {

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
  std::vector<rank_t> expected;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(20050411);
    fx.keys = workload::make_sorted_unique_keys(30000, rng);
    fx.queries = workload::make_uniform_queries(50000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

using Combo = std::tuple<std::uint32_t, std::uint32_t, SearchKernel>;

class ParallelCombos : public ::testing::TestWithParam<Combo> {};

TEST_P(ParallelCombos, ExactRanks) {
  const auto& [threads, shards, kernel] = GetParam();
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = threads;
  cfg.num_shards = shards;
  cfg.kernel = kernel;
  cfg.batch_bytes = 8 * KiB;
  std::vector<rank_t> ranks;
  const RunReport report =
      ParallelNativeEngine(cfg).run(fx.keys, fx.queries, &ranks);
  ASSERT_EQ(ranks.size(), fx.expected.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]) << "query index " << i;
  EXPECT_EQ(report.method, Method::kC3);
  EXPECT_EQ(report.num_queries, fx.queries.size());
  // Node 0 is the dispatcher (master); workers are nodes 1..threads.
  EXPECT_EQ(report.num_nodes, threads + 1);
  EXPECT_GT(report.messages, 0u);
  ASSERT_EQ(report.nodes.size(), threads + 1);
  EXPECT_EQ(report.nodes[0].queries, fx.queries.size());
  // Every query is processed by exactly one worker.
  const std::uint64_t processed = std::accumulate(
      report.nodes.begin() + 1, report.nodes.end(), std::uint64_t{0},
      [](std::uint64_t acc, const NodeReport& n) { return acc + n.queries; });
  EXPECT_EQ(processed, fx.queries.size());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsShardsKernels, ParallelCombos,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 8u),          // thread counts (issue spec)
        ::testing::Values(0u, 1u, 3u, 16u),     // shard counts; 0 = threads
        ::testing::Values(SearchKernel::kStdUpperBound,
                          SearchKernel::kBranchless,
                          SearchKernel::kEytzinger)),
    [](const auto& info) {
      std::string name = "t" + std::to_string(std::get<0>(info.param)) +
                         "_s" + std::to_string(std::get<1>(info.param)) + "_";
      for (const char* c = search_kernel_name(std::get<2>(info.param));
           *c != '\0'; ++c)
        if (*c != '-') name += *c;
      return name;
    });

// --- Placement x topology x stealing: the NUMA surface --------------------

using PlacementCombo = std::tuple<Placement, SearchKernel, bool, std::uint32_t>;

class PlacementCombos : public ::testing::TestWithParam<PlacementCombo> {};

TEST_P(PlacementCombos, SkewedStreamStaysRankExact) {
  // A heavily skewed stream (90% of queries inside one shard's range)
  // on a simulated multi-node topology: placement moves the copies,
  // stealing moves the work, and neither may move a single rank.
  const auto& [placement, kernel, stealing, numa_nodes] = GetParam();
  const auto& fx = fixture();
  std::vector<key_t> queries(fx.queries.begin(), fx.queries.begin() + 30000);
  const key_t hot = fx.keys[fx.keys.size() / 3];
  for (std::size_t i = 0; i < queries.size(); ++i)
    if (i % 10 != 0) queries[i] = hot + static_cast<key_t>(i % 64);
  const auto expected = workload::reference_ranks(fx.keys, queries);

  ParallelConfig cfg;
  cfg.num_threads = 4;
  cfg.num_shards = 6;
  cfg.batch_bytes = 4 * KiB;
  cfg.kernel = kernel;
  cfg.placement = placement;
  cfg.numa_nodes = numa_nodes;
  cfg.work_stealing = stealing;
  std::vector<rank_t> ranks;
  const RunReport report =
      ParallelNativeEngine(cfg).run(fx.keys, queries, &ranks);
  ASSERT_EQ(ranks.size(), expected.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ASSERT_EQ(ranks[i], expected[i]) << "query index " << i;
  // Work conservation holds whoever resolved each message.
  const std::uint64_t processed = std::accumulate(
      report.nodes.begin() + 1, report.nodes.end(), std::uint64_t{0},
      [](std::uint64_t acc, const NodeReport& n) { return acc + n.queries; });
  EXPECT_EQ(processed, queries.size());
  // Stealing off is a hard guarantee of zero steals; on, it is
  // opportunistic (scheduling-dependent), so only the off side asserts.
  if (!stealing) {
    EXPECT_EQ(report.stolen_messages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlacementTopologySteal, PlacementCombos,
    ::testing::Combine(::testing::Values(Placement::kInterleave,
                                         Placement::kNodeLocal,
                                         Placement::kReplicate),
                       ::testing::Values(SearchKernel::kBranchless,
                                         SearchKernel::kBatchedEytzinger),
                       ::testing::Bool(),       // work stealing
                       ::testing::Values(1u, 3u)),  // simulated node count
    [](const auto& info) {
      std::string name;
      for (const char* c = placement_name(std::get<0>(info.param));
           *c != '\0'; ++c)
        if (*c != '-') name += *c;
      name += std::get<1>(info.param) == SearchKernel::kBranchless
                  ? "_branchless"
                  : "_beytz";
      name += std::get<2>(info.param) ? "_steal" : "_nosteal";
      name += "_n" + std::to_string(std::get<3>(info.param));
      return name;
    });

TEST(ParallelPlacement, DiscoveredTopologyAlsoWorks) {
  // numa_nodes = 0 takes the host-discovery path (whatever this machine
  // is); placement must stay rank-exact on it too.
  const auto& fx = fixture();
  for (const Placement placement : all_placements()) {
    ParallelConfig cfg;
    cfg.num_threads = 3;
    cfg.placement = placement;
    cfg.numa_nodes = 0;
    cfg.kernel = SearchKernel::kBatchedEytzinger;
    std::vector<rank_t> ranks;
    ParallelNativeEngine(cfg).run(
        fx.keys, std::span(fx.queries.data(), 8000), &ranks);
    for (std::size_t i = 0; i < ranks.size(); ++i)
      ASSERT_EQ(ranks[i], fx.expected[i]) << placement_name(placement);
  }
}

TEST(ParallelPlacement, MoreSimulatedNodesThanThreads) {
  // Degenerate map: 8 simulated nodes, 2 workers — most nodes own no
  // worker; replicas for them are never probed and never built wrong.
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.numa_nodes = 8;
  cfg.placement = Placement::kReplicate;
  std::vector<rank_t> ranks;
  ParallelNativeEngine(cfg).run(fx.keys,
                                std::span(fx.queries.data(), 5000), &ranks);
  for (std::size_t i = 0; i < 5000; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
}

TEST(ParallelNativeEngine, EmptyQuerySet) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 4;
  std::vector<rank_t> ranks(7, 123);  // stale contents must be cleared
  const RunReport report = ParallelNativeEngine(cfg).run(
      fx.keys, std::span<const key_t>{}, &ranks);
  EXPECT_TRUE(ranks.empty());
  EXPECT_EQ(report.num_queries, 0u);
  EXPECT_EQ(report.messages, 0u);
}

TEST(ParallelNativeEngine, SingleKeyIndex) {
  const std::vector<key_t> keys{42};
  const std::vector<key_t> queries{0, 41, 42, 43, 0xffffffffu};
  ParallelConfig cfg;
  cfg.num_threads = 8;
  cfg.num_shards = 16;  // clamped to the index size
  std::vector<rank_t> ranks;
  ParallelNativeEngine(cfg).run(keys, queries, &ranks);
  EXPECT_EQ(ranks, (std::vector<rank_t>{0, 0, 1, 1, 1}));
}

TEST(ParallelNativeEngine, DuplicateHeavyQueries) {
  const auto& fx = fixture();
  std::vector<key_t> queries(5000, fx.keys[fx.keys.size() / 2]);
  const auto expected = workload::reference_ranks(fx.keys, queries);
  ParallelConfig cfg;
  cfg.num_threads = 3;
  cfg.num_shards = 5;
  std::vector<rank_t> ranks;
  ParallelNativeEngine(cfg).run(fx.keys, queries, &ranks);
  EXPECT_EQ(ranks, expected);
}

TEST(ParallelNativeEngine, OneKeyPerBatch) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.batch_bytes = sizeof(key_t);  // flush after every single query
  std::vector<rank_t> ranks;
  const auto report = ParallelNativeEngine(cfg).run(
      fx.keys, std::span(fx.queries.data(), 400), &ranks);
  for (std::size_t i = 0; i < 400; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
  EXPECT_EQ(report.messages, 400u);
}

TEST(ParallelNativeEngine, NullOutRanksStillRuns) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 2;
  const auto report = ParallelNativeEngine(cfg).run(
      fx.keys, std::span(fx.queries.data(), 1000), nullptr);
  EXPECT_EQ(report.num_queries, 1000u);
}

// --- Streaming clients (the v2 surface these sessions migrated to) -----

TEST(ParallelClientStream, ManyBatchesOnOneClient) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 4;
  cfg.num_shards = 7;
  cfg.batch_bytes = 4 * KiB;
  const auto client = ParallelNativeEngine(cfg).build(fx.keys)->connect();
  const std::size_t B = 5;
  std::vector<rank_t> ranks;
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t begin = b * fx.queries.size() / B;
    const std::size_t end = (b + 1) * fx.queries.size() / B;
    const auto report = client->wait(
        client->submit(std::span(fx.queries.data() + begin, end - begin),
                       &ranks));
    ASSERT_EQ(ranks.size(), end - begin);
    for (std::size_t i = 0; i < ranks.size(); ++i)
      ASSERT_EQ(ranks[i], fx.expected[begin + i]) << "batch " << b;
    EXPECT_EQ(report.num_queries, end - begin);
  }
  EXPECT_EQ(client->batches(), B);
  // total() is the RunReport::merge accumulation over all batches.
  const RunReport& total = client->total();
  EXPECT_EQ(total.num_queries, fx.queries.size());
  EXPECT_EQ(total.num_nodes, cfg.num_threads + 1);
  EXPECT_GT(total.messages, 0u);
  ASSERT_EQ(total.nodes.size(), cfg.num_threads + 1);
  const std::uint64_t processed = std::accumulate(
      total.nodes.begin() + 1, total.nodes.end(), std::uint64_t{0},
      [](std::uint64_t acc, const NodeReport& n) { return acc + n.queries; });
  EXPECT_EQ(processed, fx.queries.size());
}

TEST(ParallelClientStream, EmptyBatchIsHarmless) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 3;
  const auto client = ParallelNativeEngine(cfg).build(fx.keys)->connect();
  std::vector<rank_t> ranks(4, 99);
  client->wait(client->submit(std::span<const key_t>{}, &ranks));
  EXPECT_TRUE(ranks.empty());
  client->wait(client->submit(std::span(fx.queries.data(), 100), &ranks));
  for (std::size_t i = 0; i < 100; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
  EXPECT_EQ(client->batches(), 2u);
  EXPECT_EQ(client->total().num_queries, 100u);
}

TEST(ParallelClientStream, OutlivesItsEngine) {
  const auto& fx = fixture();
  std::unique_ptr<Client> client;
  {
    ParallelConfig cfg;
    cfg.num_threads = 2;
    client = ParallelNativeEngine(cfg).build(fx.keys)->connect();
  }  // engine destroyed; the index owns keys, partitioner, workers
  std::vector<rank_t> ranks;
  client->wait(client->submit(std::span(fx.queries.data(), 1000), &ranks));
  for (std::size_t i = 0; i < 1000; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
}

TEST(ClientSeam, EveryBackendStreamsCorrectly) {
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;
  cfg.batch_bytes = 8 * KiB;
  const std::span<const key_t> queries(fx.queries.data(), 6000);
  for (const Backend backend : {Backend::kSim, Backend::kParallelNative}) {
    const auto engine = make_engine(backend, cfg);
    const auto client = engine->build(fx.keys)->connect();
    EXPECT_STREQ(client->backend(), backend_name(backend));
    std::vector<rank_t> ranks;
    for (const std::size_t begin : {std::size_t{0}, std::size_t{3000}}) {
      client->wait(client->submit(queries.subspan(begin, 3000), &ranks));
      for (std::size_t i = 0; i < 3000; ++i)
        ASSERT_EQ(ranks[i], fx.expected[begin + i])
            << backend_name(backend) << " query " << begin + i;
    }
    EXPECT_EQ(client->batches(), 2u);
    EXPECT_EQ(client->total().num_queries, queries.size());
    EXPECT_GT(client->total().makespan, 0u);
  }
}

TEST(ClientSeam, OneShotRunMatchesStreamedRanks) {
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 5;
  const auto engine = make_engine(Backend::kParallelNative, cfg);
  const std::span<const key_t> queries(fx.queries.data(), 5000);
  std::vector<rank_t> one_shot;
  engine->run(fx.keys, queries, &one_shot);
  std::vector<rank_t> streamed;
  const auto client = engine->build(fx.keys)->connect();
  client->wait(client->submit(queries, &streamed));
  EXPECT_EQ(one_shot, streamed);
}

TEST(RunReportMerge, AddsCountersAndNodes) {
  RunReport a;
  a.method = Method::kC3;
  a.num_queries = 10;
  a.raw_makespan = 100;
  a.makespan = 100;
  a.messages = 3;
  a.wire_bytes = 64;
  a.slave_idle_fraction = 0.5;
  a.nodes.resize(2);
  a.nodes[1].queries = 10;
  RunReport b = a;
  b.num_queries = 30;
  b.raw_makespan = 300;
  b.makespan = 300;
  b.slave_idle_fraction = 0.1;
  b.nodes[1].queries = 30;
  a.merge(b);
  EXPECT_EQ(a.num_queries, 40u);
  EXPECT_EQ(a.makespan, 400);
  EXPECT_EQ(a.messages, 6u);
  EXPECT_EQ(a.wire_bytes, 128u);
  // Time-weighted: (0.5*100 + 0.1*300) / 400 = 0.2.
  EXPECT_NEAR(a.slave_idle_fraction, 0.2, 1e-12);
  ASSERT_EQ(a.nodes.size(), 2u);
  EXPECT_EQ(a.nodes[1].queries, 40u);
  // Mismatched node sets have no meaningful element-wise sum.
  RunReport c = b;
  c.nodes.resize(5);
  a.merge(c);
  EXPECT_TRUE(a.nodes.empty());
}

// The seam itself: sim and parallel-native, built from the same
// ExperimentConfig through make_engine, agree on every rank
// (cluster_engine_test checks the cluster over every transport).
TEST(EngineSeam, BackendsAgreeOnRanks) {
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 5;
  cfg.batch_bytes = 16 * KiB;
  const std::span<const key_t> queries(fx.queries.data(), 20000);
  const auto expected = workload::reference_ranks(fx.keys, queries);
  for (const Backend backend : {Backend::kSim, Backend::kParallelNative}) {
    const auto engine = make_engine(backend, cfg);
    std::vector<rank_t> ranks;
    const RunReport report = engine->run(fx.keys, queries, &ranks);
    EXPECT_EQ(ranks, expected) << backend_name(backend);
    EXPECT_EQ(report.num_queries, queries.size()) << backend_name(backend);
    EXPECT_GT(report.makespan, 0u) << backend_name(backend);
  }
}

TEST(EngineSeam, FleetLargerThanIndexStaysExact) {
  // 3 keys, 8 slaves: every backend clamps its partition count to the
  // key count (index::clamp_parts) and leaves the surplus slaves idle.
  const std::vector<key_t> keys{10, 20, 30};
  const std::vector<key_t> queries{0, 10, 15, 20, 30, 0xffffffffu};
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 9;
  for (const Backend backend : kAllBackends) {
    std::vector<rank_t> ranks;
    make_engine(backend, cfg)->run(keys, queries, &ranks);
    EXPECT_EQ(ranks, (std::vector<rank_t>{0, 1, 1, 2, 3, 3}))
        << backend_name(backend);
  }
}

TEST(EngineSeam, BackendNamesAreStable) {
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 3;
  EXPECT_STREQ(make_engine(Backend::kSim, cfg)->name(), "sim");
  EXPECT_STREQ(make_engine(Backend::kParallelNative, cfg)->name(),
               "parallel-native");
  EXPECT_STREQ(make_engine(Backend::kCluster, cfg)->name(), "cluster");
}

TEST(EngineSeam, ParallelConfigMapsSlaves) {
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 11;
  cfg.num_masters = 1;
  cfg.placement = Placement::kReplicate;
  cfg.machine.numa_nodes = 2;
  const ParallelConfig parallel = parallel_config_from(cfg);
  EXPECT_EQ(parallel.num_threads, 10u);
  EXPECT_EQ(parallel.num_shards, 10u);
  EXPECT_EQ(parallel.batch_bytes, cfg.batch_bytes);
  EXPECT_EQ(parallel.placement, Placement::kReplicate);
  EXPECT_EQ(parallel.numa_nodes, 2u);
}

}  // namespace
}  // namespace dici::core
