// Wall-clock latency on the real-thread backend: track_latency (once
// simulator-only) must fill RunReport::latency_ns with measured,
// per-query response times on ParallelNativeEngine — counts exact,
// values positive, caller-declared queue wait added, and the
// submit-stamp plumbing race-free under concurrent clients (this file
// doubles as the TSan workout for the per-submission latency records).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/arch/machine.hpp"
#include "src/core/engine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {
namespace {

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(271828);
    fx.keys = workload::make_sorted_unique_keys(20000, rng);
    fx.queries = workload::make_uniform_queries(30000, rng);
    return fx;
  }();
  return f;
}

ExperimentConfig tracked_config() {
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;
  cfg.track_latency = true;
  return cfg;
}

TEST(NativeLatency, EveryQueryGetsAPositiveWallClockSample) {
  const auto& fx = fixture();
  const auto engine = make_engine(Backend::kParallelNative, tracked_config());
  const auto index = engine->build(fx.keys);
  const auto client = index->connect();
  // Two batches so the per-client total exercises the latency merge.
  const std::size_t half = fx.queries.size() / 2;
  std::vector<rank_t> ranks;
  const auto t1 = client->submit(std::span(fx.queries).subspan(0, half));
  const auto r1 = client->wait(t1);
  EXPECT_EQ(r1.latency_ns.count(), half);
  EXPECT_GT(r1.latency_ns.min(), 0.0);  // a measured time, never zero
  EXPECT_GE(r1.latency_ns.max(), r1.latency_ns.min());
  EXPECT_LE(r1.latency_ns.percentile(50), r1.latency_ns.percentile(99));
  client->submit(std::span(fx.queries).subspan(half), &ranks);
  const auto& total = client->drain();
  EXPECT_EQ(total.latency_ns.count(), fx.queries.size());
  EXPECT_GT(total.latency_ns.min(), 0.0);
}

TEST(NativeLatency, DeclaredQueueWaitShiftsEverySample) {
  const auto& fx = fixture();
  const auto engine = make_engine(Backend::kParallelNative, tracked_config());
  const auto index = engine->build(fx.keys);

  // Same batch twice: once bare, once with a huge declared pre-submit
  // wait. The offset dwarfs any scheduling noise, so the shifted run's
  // MINIMUM must clear it — every sample carried its queued_ns.
  constexpr double kOffsetNs = 1e12;  // 1000 s, >> any real service time
  const std::span batch = std::span(fx.queries).subspan(0, 4096);
  const std::vector<double> queued(batch.size(), kOffsetNs);

  const auto client = index->connect();
  const auto bare = client->wait(client->submit(batch));
  const auto shifted =
      client->wait(client->submit(batch, nullptr, {.queued_ns = queued}));
  ASSERT_EQ(shifted.latency_ns.count(), batch.size());
  EXPECT_GE(shifted.latency_ns.min(), kOffsetNs);
  EXPECT_LT(bare.latency_ns.min(), kOffsetNs);
  // The shift is additive: mean moved by ~the offset, not to it.
  EXPECT_NEAR(shifted.latency_ns.mean() - bare.latency_ns.mean(), kOffsetNs,
              0.5 * kOffsetNs);
}

TEST(NativeLatency, QueuedSpanLengthMismatchDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto& fx = fixture();
  const auto engine = make_engine(Backend::kParallelNative, tracked_config());
  const auto index = engine->build(fx.keys);
  const auto client = index->connect();
  const std::vector<double> wrong(3, 0.0);
  EXPECT_DEATH(client->submit(std::span(fx.queries).subspan(0, 8), nullptr,
                              {.queued_ns = wrong}),
               "queued_ns");
}

// The raced test TSan runs in CI: many clients of one shared parallel
// index submit concurrently with track_latency on. Submit stamps live
// in per-submission records and resolve stamps in per-worker Summary
// slots — any missing synchronization between the submitting threads,
// the stealing workers, and the awaiting threads is a TSan report here.
TEST(NativeLatencyRace, ConcurrentClientsStampIndependently) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 3;
  cfg.num_shards = 6;
  cfg.track_latency = true;
  cfg.pin_threads = false;  // CI runners may not allow affinity
  const ParallelNativeEngine engine(cfg);
  const auto index = engine.build(fx.keys);

  constexpr int kClients = 4;
  constexpr int kBatches = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> fleet;
  std::vector<std::uint64_t> counts(kClients, 0);
  std::vector<double> mins(kClients, 0);
  for (int c = 0; c < kClients; ++c)
    fleet.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto client = index->connect();
      const std::vector<double> queued(fx.queries.size() / kBatches, 1.0);
      for (int b = 0; b < kBatches; ++b) {
        const std::size_t begin = static_cast<std::size_t>(b) *
                                  fx.queries.size() / kBatches;
        const std::size_t end = static_cast<std::size_t>(b + 1) *
                                fx.queries.size() / kBatches;
        client->submit(
            std::span(fx.queries).subspan(begin, end - begin), nullptr,
            {.queued_ns = b % 2 ? std::span<const double>(queued)
                                : std::span<const double>{}});
      }
      const auto& total = client->drain();
      counts[static_cast<std::size_t>(c)] = total.latency_ns.count();
      mins[static_cast<std::size_t>(c)] = total.latency_ns.min();
    });
  go.store(true, std::memory_order_release);
  for (auto& t : fleet) t.join();
  for (int c = 0; c < kClients; ++c) {
    // Every client accounts every one of its own queries, exactly once,
    // however the shared fleet interleaved (or stole) the work.
    EXPECT_EQ(counts[static_cast<std::size_t>(c)], fx.queries.size())
        << "client " << c;
    EXPECT_GT(mins[static_cast<std::size_t>(c)], 0.0);
  }
}

}  // namespace
}  // namespace dici::core
