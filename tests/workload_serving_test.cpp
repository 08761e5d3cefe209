// End-to-end open-loop serving: arrivals -> AdaptiveBatcher ->
// submit(queued_ns) -> ready()-polled completions, with every rank
// still equal to the std::upper_bound reference — the serving layer
// changes WHEN work happens, never the answers.
#include "src/workload/serving.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/core/parallel_engine.hpp"
#include "src/util/rng.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/workload.hpp"

namespace dici::workload {
namespace {

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
  std::vector<rank_t> expected;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(314159);
    fx.keys = workload::make_sorted_unique_keys(10000, rng);
    fx.queries = workload::make_uniform_queries(20000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

ServingConfig fast_config(ArrivalProcess process) {
  ServingConfig config;
  config.arrivals.process = process;
  // High offered load so the test finishes in tens of milliseconds;
  // the engine won't keep up, which exercises the queueing path too.
  config.arrivals.offered_qps = 2e6;
  config.arrivals.seed = 77;
  config.batch_max_keys = 512;
  config.batch_max_delay_ns = 100e3;
  config.collect_ranks = true;
  return config;
}

TEST(Serving, OpenLoopServesEveryQueryWithCorrectRanks) {
  const auto& fx = fixture();
  core::ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.track_latency = true;
  cfg.pin_threads = false;
  const core::ParallelNativeEngine engine(cfg);
  const auto index = engine.build(fx.keys);

  for (const auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty}) {
    const auto client = index->connect();
    const auto result =
        run_open_loop(*client, fx.queries, fast_config(process));

    EXPECT_EQ(result.num_queries, fx.queries.size());
    EXPECT_EQ(result.batches, result.size_flushes + result.deadline_flushes +
                                  result.idle_flushes);
    EXPECT_GT(result.batches, 1u);
    EXPECT_GT(result.wall_seconds, 0.0);
    EXPECT_GT(result.achieved_qps, 0.0);

    // Caller-observed latency: one sample per query, all positive
    // (arrival precedes completion by construction).
    EXPECT_EQ(result.observed_latency_ns.count(), fx.queries.size());
    EXPECT_GT(result.observed_latency_ns.min(), 0.0);
    EXPECT_LE(result.observed_latency_ns.percentile(50),
              result.observed_latency_ns.percentile(99));

    // Engine-side latency (arrival->resolve via queued_ns): same count,
    // and never exceeds what the caller observed at the median (the
    // caller's stamp includes ticket-poll slack on top).
    EXPECT_EQ(result.engine_total.latency_ns.count(), fx.queries.size());
    EXPECT_GT(result.engine_total.latency_ns.min(), 0.0);
    EXPECT_EQ(result.engine_total.num_queries, fx.queries.size());

    // The serving layer never changes answers.
    ASSERT_EQ(result.ranks.size(), fx.expected.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < result.ranks.size(); ++i)
      if (result.ranks[i] != fx.expected[i]) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << arrival_process_name(process);
  }
}

TEST(Serving, TrickleFlushesWhileIdleInsteadOfWaitingOutTheDeadline) {
  // 20 kqps against a 50 ms deadline and 1024-key rounds: ~1000
  // arrivals per deadline never fill a round, so the size-or-deadline
  // rule alone would hold each query ~25 ms at the median. With no
  // round in flight nothing is gained by waiting, so every query goes
  // out (nearly) as it arrives.
  const auto& fx = fixture();
  core::ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.pin_threads = false;
  const core::ParallelNativeEngine engine(cfg);
  const auto index = engine.build(fx.keys);
  const auto client = index->connect();
  auto config = fast_config(ArrivalProcess::kPoisson);
  config.arrivals.offered_qps = 20e3;
  config.batch_max_keys = 1024;
  config.batch_max_delay_ns = 50e6;
  // ~200 ms of arrivals: long enough that one scheduling stall on a
  // loaded test host cannot hold half the queries.
  constexpr std::size_t kQueries = 4000;
  const std::span<const key_t> queries(fx.queries.data(), kQueries);
  const auto result = run_open_loop(*client, queries, config);

  EXPECT_GT(result.idle_flushes, 0u);
  EXPECT_EQ(result.deadline_flushes, 0u);
  EXPECT_EQ(result.batches, result.size_flushes + result.deadline_flushes +
                                result.idle_flushes);
  EXPECT_EQ(result.observed_latency_ns.count(), kQueries);
  EXPECT_LT(result.observed_latency_ns.percentile(50), 5e6);
  ASSERT_EQ(result.ranks.size(), kQueries);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kQueries; ++i)
    if (result.ranks[i] != fx.expected[i]) ++mismatches;
  EXPECT_EQ(mismatches, 0u);
}

TEST(Serving, BackPressureBoundsInFlightRounds) {
  const auto& fx = fixture();
  core::ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.pin_threads = false;
  const core::ParallelNativeEngine engine(cfg);
  const auto index = engine.build(fx.keys);
  const auto client = index->connect();
  auto config = fast_config(ArrivalProcess::kPoisson);
  config.max_in_flight = 1;  // strictest: every round waits its elder
  config.collect_ranks = false;
  const auto result = run_open_loop(*client, fx.queries, config);
  EXPECT_EQ(result.observed_latency_ns.count(), fx.queries.size());
  EXPECT_EQ(client->in_flight(), 0u);  // everything retired
}

TEST(Serving, ConfigFromScenarioSpecCarriesTheKnobs) {
  ScenarioSpec spec;
  spec.name = "serving-cell";
  spec.num_queries = 4096;
  spec.batch_bytes = 8192;
  spec.seed = 5;
  spec.arrival = ArrivalProcess::kBursty;
  spec.offered_qps = 3e5;
  const auto config = serving_config_from(spec);
  EXPECT_EQ(config.arrivals.process, ArrivalProcess::kBursty);
  EXPECT_DOUBLE_EQ(config.arrivals.offered_qps, 3e5);
  EXPECT_EQ(config.arrivals.num_queries, 4096u);
  EXPECT_EQ(config.batch_max_keys, 8192 / sizeof(key_t));
  EXPECT_NE(config.arrivals.seed, spec.seed);  // decorrelated from draws
}

TEST(ServingDeath, ClosedLoopSpecHasNoServingConfig) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScenarioSpec spec;
  spec.name = "closed-cell";
  EXPECT_DEATH(serving_config_from(spec), "closed");
}

}  // namespace
}  // namespace dici::workload
