// Engine API v3 (core/store.hpp): write path, generation swaps, and
// the read-equivalence contract — every rank a Store serves must equal
// std::upper_bound over (base \ erased) ∪ inserted as of the reader's
// submit. Includes the raced teardown test the TSan CI job runs:
// clients stream and are destroyed mid-flight while the background
// rebuild keeps publishing fresh generations.
#include "src/core/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/arch/machine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/update_stream.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {
namespace {

ExperimentConfig sim_config() {
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;
  return cfg;
}

/// `n` sorted unique keys strictly below `bound` (so tests can confine
/// the write stream to the other half of the key space).
std::vector<key_t> keys_below(std::size_t n, key_t bound, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<key_t> keys = workload::make_sorted_unique_keys(4 * n, rng);
  keys.erase(std::lower_bound(keys.begin(), keys.end(), bound), keys.end());
  DICI_CHECK(keys.size() >= n);
  keys.resize(n);
  return keys;
}

// --- Visibility and epochs ------------------------------------------------

TEST(StoreV3, FlushIsTheVisibilityBarrier) {
  // Even keys 0..1998 in the base; odd keys arrive as writes. Sizes are
  // far below the rebuild trigger, so publication happens exactly at
  // flush() and the test is deterministic.
  std::vector<key_t> base(1000);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = static_cast<key_t>(2 * i);
  const auto store = make_store(Backend::kSim, sim_config(), base);
  EXPECT_EQ(store->epoch(), 1u);
  EXPECT_EQ(store->live_keys(), base.size());

  const auto client = store->connect();
  const auto writer = store->writer();
  const std::vector<key_t> odd = {1, 101, 1001};
  EXPECT_EQ(writer->insert(odd), odd.size());
  EXPECT_EQ(store->delta_keys(), odd.size());

  // Unflushed writes are invisible: ranks are pure base ranks.
  std::vector<rank_t> ranks;
  const std::vector<key_t> probes = {1, 101, 1001, 1998};
  client->wait(client->submit(probes, &ranks));
  const std::vector<rank_t> base_ranks =
      workload::reference_ranks(base, probes);
  EXPECT_EQ(ranks, base_ranks);
  EXPECT_EQ(store->epoch(), 1u);

  // flush() publishes: same probes now count the odd keys at/below them.
  EXPECT_EQ(writer->flush(), 2u);
  EXPECT_EQ(store->epoch(), 2u);
  EXPECT_EQ(store->live_keys(), base.size() + odd.size());
  client->wait(client->submit(probes, &ranks));
  ASSERT_EQ(ranks.size(), probes.size());
  EXPECT_EQ(ranks[0], base_ranks[0] + 1);  // key 1 itself
  EXPECT_EQ(ranks[1], base_ranks[1] + 2);  // 1 and 101
  EXPECT_EQ(ranks[2], base_ranks[2] + 3);  // all three
  EXPECT_EQ(ranks[3], base_ranks[3] + 3);

  // Erase round-trips the same way, and a no-op flush keeps the epoch.
  EXPECT_EQ(writer->erase(std::vector<key_t>{1, 101, 1001}), 3u);
  writer->flush();
  const std::uint64_t settled = store->epoch();
  EXPECT_EQ(writer->flush(), settled);  // nothing pending
  client->wait(client->submit(probes, &ranks));
  EXPECT_EQ(ranks, base_ranks);
}

TEST(StoreV3, NoOpWritesChangeNothing) {
  const std::vector<key_t> base = {10, 20, 30};
  const auto store = make_store(Backend::kSim, sim_config(), base);
  const auto writer = store->writer();
  EXPECT_EQ(writer->insert(base), 0u);  // already live
  EXPECT_EQ(writer->erase(std::vector<key_t>{11, 21}), 0u);  // never live
  EXPECT_EQ(store->delta_keys(), 0u);
  EXPECT_EQ(writer->flush(), 1u);  // nothing pending: epoch stays 1
}

// --- The background rebuild ----------------------------------------------

TEST(StoreV3, RebuildFoldsDeltaAndPinsOldGeneration) {
  const std::vector<key_t> base = keys_below(8000, 1u << 31, 20260808);
  StoreOptions opts;
  opts.max_delta_keys = 512;
  opts.rebuild_trigger_fraction = 0.5;
  opts.writer_threads = 2;
  ParallelConfig pcfg;
  pcfg.num_threads = 3;
  pcfg.batch_bytes = 4 * KiB;
  const auto store = Store::create(
      std::make_unique<ParallelNativeEngine>(pcfg), base, opts);

  const auto pinned = store->current();  // generation 1, held across swaps

  // Enough inserts to cross the trigger several times over.
  Rng rng(7);
  workload::LiveSetReference mirror(base);
  const auto writer = store->writer();
  for (int round = 0; round < 4; ++round) {
    std::vector<key_t> fresh(300);
    for (auto& k : fresh)
      k = static_cast<key_t>((1u << 31) + rng.below(1u << 31));
    writer->insert(fresh);
    mirror.insert(fresh);
    writer->flush();
  }
  store->wait_rebuilds_idle();
  EXPECT_GE(store->rebuilds(), 1u);
  EXPECT_EQ(store->live_keys(), mirror.size());
  // The fold really moved keys into the base: the delta is below max.
  EXPECT_LT(store->delta_keys(), opts.max_delta_keys);

  // Fresh reads resolve against the new generation and match the mirror.
  const auto gen = store->current();
  EXPECT_GT(gen->epoch(), pinned->epoch());
  EXPECT_NE(gen->base().get(), pinned->base().get());
  const auto client = store->connect();
  Rng qrng(9);
  const std::vector<key_t> probes = workload::make_uniform_queries(5000, qrng);
  std::vector<rank_t> ranks;
  client->wait(client->submit(probes, &ranks));
  for (std::size_t i = 0; i < probes.size(); ++i)
    ASSERT_EQ(ranks[i], mirror.rank(probes[i])) << "probe " << i;

  // The pinned generation 1 is still fully serviceable: its base Index
  // (and worker fleet) answered with pre-write ranks.
  const auto old_client = pinned->base()->connect();
  std::vector<rank_t> old_ranks;
  old_client->wait(old_client->submit(probes, &old_ranks));
  const std::vector<rank_t> want = workload::reference_ranks(base, probes);
  EXPECT_EQ(old_ranks, want);
}

TEST(StoreV3, BackpressureChunksOversizedWriteBatches) {
  const std::vector<key_t> base = keys_below(4000, 1u << 31, 5);
  StoreOptions opts;
  opts.max_delta_keys = 128;  // one write batch is several folds' worth
  const auto store = Store::create(
      std::make_unique<ParallelNativeEngine>(ParallelConfig{}), base, opts);
  const auto writer = store->writer();
  Rng rng(13);
  std::vector<key_t> fresh(1000);
  for (auto& k : fresh)
    k = static_cast<key_t>((1u << 31) + rng.below(1u << 31));
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  // A single insert() far beyond max_delta_keys must block-and-chunk
  // through background folds rather than overrun the bound.
  EXPECT_EQ(writer->insert(fresh), fresh.size());
  writer->flush();
  store->wait_rebuilds_idle();
  EXPECT_GE(store->rebuilds(), 1u);
  EXPECT_LE(store->delta_keys(), opts.max_delta_keys);
  EXPECT_EQ(store->live_keys(), base.size() + fresh.size());
}

TEST(StoreV3, EraseEverythingThenRepopulate) {
  const std::vector<key_t> base = {5, 6, 7, 8};
  const auto store = make_store(Backend::kSim, sim_config(), base);
  const auto writer = store->writer();
  const auto client = store->connect();

  EXPECT_EQ(writer->erase(base), base.size());
  writer->flush();
  EXPECT_EQ(store->live_keys(), 0u);
  std::vector<rank_t> ranks;
  client->wait(client->submit(std::vector<key_t>{5, 8, 100}, &ranks));
  EXPECT_EQ(ranks, (std::vector<rank_t>{0, 0, 0}));

  // An all-erased store must accept inserts (nothing live to fold, so
  // the writer cannot rely on the rebuild for room).
  EXPECT_EQ(writer->insert(std::vector<key_t>{6, 100}), 2u);
  writer->flush();
  EXPECT_EQ(store->live_keys(), 2u);
  client->wait(client->submit(std::vector<key_t>{5, 6, 100, 200}, &ranks));
  EXPECT_EQ(ranks, (std::vector<rank_t>{0, 1, 2, 2}));
}

// --- A fleet larger than the live set --------------------------------------

TEST(StoreV3, ShrinksBelowTheSlaveCountOnEveryBackend) {
  // 100 keys over 4 slaves, erased down to 2: the rebuild hands every
  // backend a base with fewer keys than slaves. Each must cut it through
  // index::clamp_parts (surplus slaves idle) and keep every rank exact.
  std::vector<key_t> base(100);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = static_cast<key_t>(10 * i);
  for (const Backend backend : kAllBackends) {
    ExperimentConfig cfg = sim_config();
    cfg.num_nodes = 5;
    // All 98 erases fit one delta chunk past the 64-key trigger, so one
    // rebuild folds them into a 2-key base.
    cfg.max_delta_keys = 128;
    const auto store = make_store(backend, cfg, base);
    const auto writer = store->writer();
    EXPECT_EQ(writer->erase(std::span(base).subspan(2)), base.size() - 2);
    writer->flush();
    store->wait_rebuilds_idle();
    ASSERT_EQ(store->current()->base()->size(), 2u) << backend_name(backend);
    EXPECT_EQ(store->live_keys(), 2u);
    const auto client = store->connect();
    std::vector<rank_t> ranks;
    client->wait(client->submit(std::vector<key_t>{0, 5, 10, 11, 990}, &ranks));
    EXPECT_EQ(ranks, (std::vector<rank_t>{1, 1, 2, 2, 2}))
        << backend_name(backend);
  }
}

// --- Equivalence across the whole matrix ----------------------------------

TEST(StoreMatrix, MixedCellsVerifyAcrossDistributionsAndBackends) {
  // Every workload shape x every backend x read-only, 95/5 and 80/20
  // mixes, each batch's expected ranks priced from the live-set mirror
  // at submit time. run_scenario_matrix sizes the delta so mixed cells
  // cross the rebuild trigger mid-stream.
  workload::MatrixOptions options;
  options.write_fractions = {0.0, 0.05, 0.2};
  options.numa_nodes = 2;
  const auto cells = workload::run_scenario_matrix(
      workload::default_scenarios(1 << 12, 1 << 13), options);
  EXPECT_TRUE(workload::all_cells_ok(cells));
  std::size_t mixed = 0;
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.verified);
    EXPECT_EQ(cell.mismatches, 0u) << cell.scenario << " " << cell.backend;
    if (cell.write_fraction > 0) {
      ++mixed;
      EXPECT_GT(cell.writes, 0u);
    }
  }
  EXPECT_GT(mixed, 0u);
}

// --- The raced teardown (ASan/TSan CI target) -----------------------------

TEST(StoreV3, DestroyClientsUnderLoadWhileRebuildPublishes) {
  // Extends EngineV2.DestroyClientsUnderLoadWhileOthersStream with an
  // active write path: a writer streams inserts/erases that keep the
  // background rebuild publishing generations, churner threads destroy
  // clients WITH tickets in flight (drains race channel close against
  // the fleets of retiring generations), and a steady client verifies
  // every rank at full rate. All writes land ABOVE the query range, so
  // every read has one invariant expected rank across all generations —
  // exact verification without knowing which generation served it.
  constexpr key_t kBoundary = 1u << 31;
  const std::vector<key_t> base = keys_below(16000, kBoundary, 20260801);
  Rng qrng(20260802);
  std::vector<key_t> queries(24000);
  for (auto& q : queries) q = static_cast<key_t>(qrng.below(kBoundary - 1));
  const std::vector<rank_t> expected =
      workload::reference_ranks(base, queries);

  StoreOptions opts;
  opts.max_delta_keys = 1024;
  opts.rebuild_trigger_fraction = 0.25;
  opts.writer_threads = 2;
  ParallelConfig pcfg;
  pcfg.num_threads = 4;
  pcfg.num_shards = 6;
  pcfg.batch_bytes = 4 * KiB;
  pcfg.kernel = SearchKernel::kBatchedEytzinger;
  const auto store = Store::create(
      std::make_unique<ParallelNativeEngine>(pcfg), base, opts);

  std::atomic<std::uint64_t> mismatches{0};
  auto verify = [&](std::span<const rank_t> ranks, std::size_t begin) {
    for (std::size_t i = 0; i < ranks.size(); ++i)
      if (ranks[i] != expected[begin + i])
        mismatches.fetch_add(1, std::memory_order_relaxed);
  };

  std::atomic<bool> stop_writes{false};
  std::thread churn_writer([&] {
    Rng wrng(77);
    const auto writer = store->writer();
    std::vector<key_t> alive;
    while (!stop_writes.load(std::memory_order_acquire)) {
      std::vector<key_t> fresh(200);
      for (auto& k : fresh)
        k = static_cast<key_t>(kBoundary + wrng.below(kBoundary));
      writer->insert(fresh);
      alive.insert(alive.end(), fresh.begin(), fresh.end());
      if (alive.size() > 2000) {  // erase an old slab, keep churn two-sided
        writer->erase(std::span(alive.data(), 1000));
        alive.erase(alive.begin(), alive.begin() + 1000);
      }
      writer->flush();
    }
  });

  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      for (int g = 0; g < 15; ++g) {
        const std::size_t begin = static_cast<std::size_t>(t) * 997 +
                                  static_cast<std::size_t>(g) * 13;
        std::vector<std::vector<rank_t>> ranks(4);
        {
          const auto client = store->connect();
          for (std::size_t b = 0; b < ranks.size(); ++b)
            client->submit(std::span(queries.data() + begin + b * 400, 400),
                           &ranks[b]);
          // NO wait: destruction drains mid-swap, exercising the
          // GenCompletion pins on whichever generations it straddled.
        }
        for (std::size_t b = 0; b < ranks.size(); ++b)
          verify(ranks[b], begin + b * 400);
      }
    });
  }
  {
    const auto steady = store->connect();
    std::vector<rank_t> ranks;
    for (int b = 0; b < 120; ++b) {
      const std::size_t begin = static_cast<std::size_t>(b) * 151;
      steady->wait(
          steady->submit(std::span(queries.data() + begin, 600), &ranks));
      verify(ranks, begin);
    }
  }
  for (auto& t : churners) t.join();
  stop_writes.store(true, std::memory_order_release);
  churn_writer.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(store->rebuilds(), 1u);  // the race actually swapped generations
}

}  // namespace
}  // namespace dici::core
