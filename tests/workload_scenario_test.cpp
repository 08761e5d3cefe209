// Scenario matrix correctness: every cell of distribution x backend
// agrees with std::upper_bound through streaming sessions, the
// distribution generators are deterministic and have the documented
// shapes, and the registry enforces its invariants.
#include "src/workload/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/workload/workload.hpp"

namespace dici::workload {
namespace {

// --- The matrix itself: the cross-backend agreement gate ---------------

TEST(ScenarioMatrix, EveryCellAgreesAcrossAllBackends) {
  // Small but non-trivial sizes: multiple dispatch rounds per stream
  // batch, shards smaller than the index.
  const ScenarioRegistry registry = default_scenarios(4096, 6000);
  ASSERT_EQ(registry.specs().size(), all_distributions().size());
  MatrixOptions options;  // all three backends, verify on
  const auto cells = run_scenario_matrix(registry, options);
  // 5 distributions x {sim, parallel-native, cluster}.
  ASSERT_EQ(cells.size(), all_distributions().size() * 3);
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.verified);
    EXPECT_TRUE(cell.ranks_ok)
        << cell.scenario << " x " << cell.backend << ": " << cell.mismatches
        << " mismatching ranks";
    EXPECT_EQ(cell.mismatches, 0u);
    EXPECT_EQ(cell.num_queries, 6000u);
    EXPECT_EQ(cell.stream_batches, 4u);  // ScenarioSpec default
  }
  EXPECT_TRUE(all_cells_ok(cells));
}

TEST(ScenarioMatrix, KernelAxisEveryCellRankExact) {
  // The full distribution x backend x kernel cross product:
  // parallel-native and the cluster actually switch their C-3 probe code
  // per kernel (sorted scalar, eytzinger, interleaved batch), the sim
  // verifies invariance.
  const ScenarioRegistry registry = default_scenarios(1024, 2000);
  MatrixOptions options;
  options.kernels.assign(core::all_search_kernels().begin(),
                         core::all_search_kernels().end());
  const auto cells = run_scenario_matrix(registry, options);
  ASSERT_EQ(cells.size(),
            all_distributions().size() * 3 * core::all_search_kernels().size());
  std::set<std::string> kernels_seen;
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.ranks_ok)
        << cell.scenario << " x " << cell.backend << " x " << cell.kernel
        << ": " << cell.mismatches << " mismatching ranks";
    kernels_seen.insert(cell.kernel);
  }
  EXPECT_EQ(kernels_seen.size(), core::all_search_kernels().size());
  EXPECT_TRUE(all_cells_ok(cells));
}

TEST(ScenarioMatrix, PlacementAxisEveryCellRankExact) {
  // The placement axis on a simulated 2-node topology: parallel-native
  // and the cluster sweep all three modes (interleave / node-local /
  // replicate), the sim runs one cell — and every cell's ranks must be
  // bit-identical to the reference whatever the placement, which is the
  // matrix smoke's placement-invariance gate.
  const ScenarioRegistry registry = default_scenarios(2048, 4000);
  MatrixOptions options;
  options.placements.assign(core::all_placements().begin(),
                            core::all_placements().end());
  options.numa_nodes = 2;
  const auto cells = run_scenario_matrix(registry, options);
  // 5 distributions x (sim + 3 parallel-native placements
  // + 3 cluster placements).
  ASSERT_EQ(cells.size(), all_distributions().size() * 7);
  std::set<std::string> parallel_placements;
  std::set<std::string> cluster_placements;
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.ranks_ok)
        << cell.scenario << " x " << cell.backend << " x " << cell.placement
        << ": " << cell.mismatches << " mismatching ranks";
    EXPECT_FALSE(cell.placement.empty());
    if (cell.backend == "parallel-native")
      parallel_placements.insert(cell.placement);
    if (cell.backend == "cluster") cluster_placements.insert(cell.placement);
  }
  EXPECT_EQ(parallel_placements.size(), core::all_placements().size());
  EXPECT_EQ(cluster_placements.size(), core::all_placements().size());
  const std::string json = matrix_to_json(cells);
  EXPECT_NE(json.find("\"placement\": \"node-local\""), std::string::npos);
  EXPECT_NE(json.find("\"placement\": \"replicate\""), std::string::npos);
}

TEST(ScenarioMatrix, DefaultPlacementAxisIsInterleave) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.index_keys = 128;
  spec.num_queries = 200;
  spec.stream_batches = 2;
  registry.add(spec);
  MatrixOptions options;
  options.backends = {core::Backend::kParallelNative};
  const auto cells = run_scenario_matrix(registry, options);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].placement, "interleave");
}

TEST(ScenarioMatrix, DefaultKernelAxisIsTheDefaultKernel) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.index_keys = 128;
  spec.num_queries = 200;
  spec.stream_batches = 2;
  registry.add(spec);
  MatrixOptions options;
  options.backends = {core::Backend::kParallelNative};
  const auto cells = run_scenario_matrix(registry, options);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].kernel, "batched-eytzinger");
  const std::string json = matrix_to_json(cells);
  EXPECT_NE(json.find("\"kernel\": \"batched-eytzinger\""),
            std::string::npos);
}

TEST(ScenarioMatrix, PipelinedCellsStayRankExact) {
  // Depth > 1 drives the async submit-ahead path of every backend
  // through the matrix; ranks (and the batch count) must not care.
  const ScenarioRegistry registry = default_scenarios(2048, 4000);
  MatrixOptions options;
  options.in_flight = 3;
  const auto cells = run_scenario_matrix(registry, options);
  ASSERT_EQ(cells.size(), all_distributions().size() * 3);
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.ranks_ok)
        << cell.scenario << " x " << cell.backend << " at depth 3: "
        << cell.mismatches << " mismatching ranks";
    EXPECT_EQ(cell.in_flight, 3u);
    EXPECT_EQ(cell.stream_batches, 4u);
    EXPECT_EQ(cell.num_queries, 4000u);
  }
}

TEST(ScenarioMatrix, JsonHasOneObjectPerCell) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.index_keys = 256;
  spec.num_queries = 300;
  spec.stream_batches = 2;
  registry.add(spec);
  MatrixOptions options;
  options.backends = {core::Backend::kParallelNative};
  const auto cells = run_scenario_matrix(registry, options);
  ASSERT_EQ(cells.size(), 1u);
  const std::string json = matrix_to_json(cells);
  EXPECT_NE(json.find("\"scenario\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks_ok\": true"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 1);
}

TEST(ScenarioMatrix, NonC3SpecSkipsParallelBackend) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "method-a";
  spec.method = core::Method::kA;
  spec.index_keys = 512;
  spec.num_queries = 400;
  registry.add(spec);
  MatrixOptions options;  // all three backends requested
  const auto cells = run_scenario_matrix(registry, options);
  ASSERT_EQ(cells.size(), 1u);  // parallel-native AND cluster skipped
  for (const auto& cell : cells) {
    EXPECT_NE(cell.backend, "parallel-native");
    EXPECT_NE(cell.backend, "cluster");
    EXPECT_TRUE(cell.ranks_ok);
  }
}

TEST(ScenarioMatrix, ClusterCellsCarryTheirTransport) {
  // Cluster cells run over a real frame transport and record which one;
  // backends that never serialize a frame record "-". Both transports —
  // node threads over a socketpair, and spawned dici_node children —
  // must stay rank-exact through the matrix.
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.index_keys = 1024;
  spec.num_queries = 1500;
  spec.stream_batches = 3;
  registry.add(spec);
  for (const net::TransportKind transport :
       {net::TransportKind::kSocket, net::TransportKind::kFork}) {
    MatrixOptions options;
    options.backends = {core::Backend::kCluster, core::Backend::kSim};
    options.transport = transport;
    const auto cells = run_scenario_matrix(registry, options);
    ASSERT_EQ(cells.size(), 2u);
    for (const auto& cell : cells) {
      EXPECT_TRUE(cell.ranks_ok)
          << cell.backend << " over " << net::transport_name(transport);
      if (cell.backend == "cluster") {
        EXPECT_EQ(cell.transport, net::transport_name(transport));
      } else {
        EXPECT_EQ(cell.transport, "-");
      }
    }
    const std::string json = matrix_to_json(cells);
    EXPECT_NE(json.find(std::string("\"transport\": \"") +
                        net::transport_name(transport) + "\""),
              std::string::npos);
  }
}

// --- Registry invariants ----------------------------------------------

TEST(ScenarioRegistry, FindByName) {
  const ScenarioRegistry registry = default_scenarios(1024, 1024);
  ASSERT_NE(registry.find("zipf"), nullptr);
  EXPECT_EQ(registry.find("zipf")->distribution, Distribution::kZipf);
  EXPECT_EQ(registry.find("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "dup";
  registry.add(spec);
  EXPECT_DEATH(registry.add(spec), "duplicate scenario name");
}

TEST(ScenarioRegistry, RejectsZeroStreamBatches) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "zero-batches";
  spec.stream_batches = 0;
  EXPECT_DEATH(registry.add(spec), "stream_batches");
}

TEST(DistributionNames, RoundTrip) {
  for (const Distribution d : all_distributions()) {
    Distribution parsed{};
    ASSERT_TRUE(parse_distribution(distribution_name(d), &parsed));
    EXPECT_EQ(parsed, d);
  }
  Distribution parsed{};
  EXPECT_FALSE(parse_distribution("pareto", &parsed));
}

// --- Determinism: same seed => byte-identical stream -------------------

TEST(ScenarioQueries, DeterministicForSeed) {
  for (const Distribution d : all_distributions()) {
    ScenarioSpec spec;
    spec.name = distribution_name(d);
    spec.distribution = d;
    spec.index_keys = 2048;
    spec.num_queries = 4096;
    const auto index_a = make_scenario_index(spec);
    const auto index_b = make_scenario_index(spec);
    EXPECT_EQ(index_a, index_b) << spec.name;
    EXPECT_EQ(make_scenario_queries(spec, index_a),
              make_scenario_queries(spec, index_a))
        << spec.name;
  }
}

TEST(ScenarioQueries, SeedChangesTheStream) {
  ScenarioSpec a;
  a.name = "a";
  a.num_queries = 1024;
  ScenarioSpec b = a;
  b.seed = a.seed + 1;
  const auto index = make_scenario_index(a);
  EXPECT_NE(make_scenario_queries(a, index), make_scenario_queries(b, index));
}

// --- Shape sanity ------------------------------------------------------

TEST(ScenarioQueries, ZipfBucketZeroMassExceedsUniformShare) {
  ScenarioSpec spec;
  spec.name = "zipf";
  spec.distribution = Distribution::kZipf;
  spec.num_queries = 40000;
  spec.num_nodes = 9;  // 8 slaves => 8 buckets
  spec.zipf_s = 1.1;
  const auto index = make_scenario_index(spec);
  const auto queries = make_scenario_queries(spec, index);
  const std::uint64_t width = (1ull << 32) / 8;
  std::size_t bucket0 = 0;
  for (const auto q : queries) bucket0 += q / width == 0;
  // Uniform share would be n/8 = 5000; Zipf(1.1) concentrates far more.
  EXPECT_GT(bucket0, 2 * queries.size() / 8);
}

TEST(ScenarioQueries, HotspotConcentratesMass) {
  Rng rng(42);
  const auto queries = make_hotspot_queries(20000, 0.9, 1.0 / 64, rng);
  // The hot window is 1/64 of the key space; find the densest 1/64
  // window on a 64-bin histogram and check it holds ~90% of the mass.
  std::vector<std::size_t> bins(64, 0);
  for (const auto q : queries) ++bins[static_cast<std::uint64_t>(q) >> 26];
  // The window may straddle two bins; take the best adjacent pair.
  std::size_t best = 0;
  for (std::size_t i = 0; i < 63; ++i)
    best = std::max(best, bins[i] + bins[i + 1]);
  EXPECT_GT(best, queries.size() * 85 / 100);
}

TEST(ScenarioQueries, SortedAscendingIsSortedAndCoversSpace) {
  Rng rng(43);
  const auto queries = make_sorted_ascending_queries(30000, rng);
  EXPECT_TRUE(std::is_sorted(queries.begin(), queries.end()));
  EXPECT_LT(queries.front(), 1u << 22);
  EXPECT_GT(queries.back(), 0xFFFFFFFFu - (1u << 22));
}

TEST(ScenarioQueries, AdversarialBoundaryHitsEdgeRanks) {
  // An index whose smallest key is > 0 and largest < max, so both edge
  // ranks are reachable and distinguishable.
  std::vector<key_t> index{100, 200, 300, 400, 500};
  Rng rng(44);
  const auto queries = make_adversarial_boundary_queries(2000, index, rng);
  const auto ranks = reference_ranks(index, queries);
  const std::set<rank_t> seen(ranks.begin(), ranks.end());
  // The documented edge ranks: 0 (below the smallest key) and n (at or
  // above the largest), plus every interior boundary rank — queries sit
  // on keys and their neighbours, so each key's rank occurs.
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(static_cast<rank_t>(index.size())));
  for (rank_t r = 0; r <= index.size(); ++r)
    EXPECT_TRUE(seen.count(r)) << "missing rank " << r;
  // And every query is within +-1 of an index key or an edge pin.
  for (const auto q : queries) {
    const bool near_key =
        std::any_of(index.begin(), index.end(), [&](key_t k) {
          return q + 1 == k || q == k || q == k + 1;
        });
    EXPECT_TRUE(near_key || q == 0 || q == 0xFFFFFFFFu) << q;
  }
}

TEST(ScenarioQueries, HotspotRejectsBadParameters) {
  Rng rng(45);
  EXPECT_DEATH(make_hotspot_queries(10, 1.5, 0.1, rng), "probability");
  EXPECT_DEATH(make_hotspot_queries(10, 0.5, 0.0, rng), "key-space fraction");
}

}  // namespace
}  // namespace dici::workload
