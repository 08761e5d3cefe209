// The v2 Engine seam: shared immutable indexes, multi-client sessions,
// and the async submit/wait pipeline. The concurrency cases here are
// what the TSan CI job races: many clients on one shared Index,
// interleaved in-flight batches, every rank checked against
// std::upper_bound. Plus the edge cases the contract documents:
// zero-batch clients, empty query batches, wait-twice on a ticket, and
// destroying a client with tickets still in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

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
    Rng rng(20260730);
    fx.keys = workload::make_sorted_unique_keys(20000, rng);
    fx.queries = workload::make_uniform_queries(40000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

std::shared_ptr<const Index> parallel_index(
    std::uint32_t threads, std::uint32_t shards = 0,
    SearchKernel kernel = SearchKernel::kBranchless) {
  ParallelConfig cfg;
  cfg.num_threads = threads;
  cfg.num_shards = shards;
  cfg.batch_bytes = 4 * KiB;
  cfg.kernel = kernel;
  return ParallelNativeEngine(cfg).build(fixture().keys);
}

// --- The build -> connect -> submit/wait shape ---------------------------

TEST(EngineV2, BuildConnectSubmitWait) {
  const auto& fx = fixture();
  const auto index = parallel_index(4);
  EXPECT_STREQ(index->backend(), "parallel-native");
  EXPECT_EQ(index->size(), fx.keys.size());
  const auto client = index->connect();
  std::vector<rank_t> ranks;
  const Ticket t = client->submit(fx.queries, &ranks);
  EXPECT_EQ(client->in_flight(), 1u);
  const RunReport report = client->wait(t);
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(report.num_queries, fx.queries.size());
  ASSERT_EQ(ranks.size(), fx.expected.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]) << "query " << i;
  EXPECT_EQ(client->batches(), 1u);
  EXPECT_EQ(client->total().num_queries, fx.queries.size());
}

TEST(EngineV2, IndexSharesOneKeyCopy) {
  const auto index = parallel_index(2);
  const key_t* stored = index->keys().data();
  // Every client streams against the same stored array — connect() does
  // not copy keys.
  const auto a = index->connect();
  const auto b = index->connect();
  EXPECT_EQ(a->index().keys().data(), stored);
  EXPECT_EQ(b->index().keys().data(), stored);
}

TEST(EngineV2, IndexOutlivesEngineAndEngineOutlivesNothing) {
  const auto& fx = fixture();
  std::shared_ptr<const Index> index;
  {
    ParallelConfig cfg;
    cfg.num_threads = 2;
    index = ParallelNativeEngine(cfg).build(fx.keys);
  }  // engine destroyed; the index owns keys, partitioner, workers
  const auto client = index->connect();
  std::vector<rank_t> ranks;
  client->wait(client->submit(std::span(fx.queries.data(), 1000), &ranks));
  for (std::size_t i = 0; i < 1000; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
}

TEST(EngineV2, EveryBackendSpeaksV2) {
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;
  cfg.batch_bytes = 8 * KiB;
  const std::span<const key_t> queries(fx.queries.data(), 6000);
  for (const Backend backend : {Backend::kSim, Backend::kParallelNative}) {
    const auto engine = make_engine(backend, cfg);
    const auto index = engine->build(fx.keys);
    EXPECT_STREQ(index->backend(), backend_name(backend));
    const auto client = index->connect();
    EXPECT_STREQ(client->backend(), backend_name(backend));
    std::vector<rank_t> a, b;
    const Ticket ta = client->submit(queries.subspan(0, 3000), &a);
    const Ticket tb = client->submit(queries.subspan(3000, 3000), &b);
    client->wait(ta);
    client->wait(tb);
    for (std::size_t i = 0; i < 3000; ++i) {
      ASSERT_EQ(a[i], fx.expected[i]) << backend_name(backend);
      ASSERT_EQ(b[i], fx.expected[3000 + i]) << backend_name(backend);
    }
    EXPECT_EQ(client->batches(), 2u);
    EXPECT_EQ(client->total().num_queries, queries.size());
    EXPECT_GT(client->total().makespan, 0u);
  }
}

// --- Pipelining: many tickets in flight on one client ---------------------

TEST(EngineV2, DeepPipelineRanksExact) {
  const auto& fx = fixture();
  const auto index = parallel_index(4, 7);
  const auto client = index->connect();
  const std::size_t B = 12;  // all 12 in flight before the first wait
  std::vector<std::vector<rank_t>> ranks(B);
  std::vector<Ticket> tickets(B);
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t begin = b * fx.queries.size() / B;
    const std::size_t end = (b + 1) * fx.queries.size() / B;
    tickets[b] = client->submit(
        std::span(fx.queries.data() + begin, end - begin), &ranks[b]);
  }
  EXPECT_EQ(client->in_flight(), B);
  // Wait out of submission order on purpose.
  for (std::size_t b = B; b-- > 0;) client->wait(tickets[b]);
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(client->batches(), B);
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t begin = b * fx.queries.size() / B;
    for (std::size_t i = 0; i < ranks[b].size(); ++i)
      ASSERT_EQ(ranks[b][i], fx.expected[begin + i]) << "batch " << b;
  }
  EXPECT_EQ(client->total().num_queries, fx.queries.size());
}

TEST(EngineV2, DrainWaitsEverything) {
  const auto& fx = fixture();
  const auto index = parallel_index(3);
  const auto client = index->connect();
  std::vector<std::vector<rank_t>> ranks(5);
  for (std::size_t b = 0; b < 5; ++b)
    client->submit(std::span(fx.queries.data() + 100 * b, 100), &ranks[b]);
  const RunReport& total = client->drain();
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(client->batches(), 5u);
  EXPECT_EQ(total.num_queries, 500u);
  for (std::size_t b = 0; b < 5; ++b)
    for (std::size_t i = 0; i < 100; ++i)
      ASSERT_EQ(ranks[b][i], fx.expected[100 * b + i]);
}

// --- The multi-client concurrency surface (TSan's main course) ------------

TEST(EngineV2, FourClientsOneIndexInterleavedBatches) {
  const auto& fx = fixture();
  const auto index = parallel_index(4, 5);
  constexpr int kClients = 4;
  constexpr std::size_t kBatches = 8;
  constexpr std::size_t kDepth = 3;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> streams;
  streams.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    streams.emplace_back([&, c] {
      const auto client = index->connect();
      // Stagger each client's slicing so batch boundaries interleave
      // differently per client.
      const std::size_t n = fx.queries.size() - static_cast<std::size_t>(c);
      std::vector<std::vector<rank_t>> ranks(kBatches);
      std::vector<Ticket> tickets(kBatches);
      std::vector<std::size_t> begins(kBatches);
      auto settle = [&](std::size_t b) {
        client->wait(tickets[b]);
        for (std::size_t i = 0; i < ranks[b].size(); ++i)
          if (ranks[b][i] != fx.expected[begins[b] + i])
            mismatches.fetch_add(1, std::memory_order_relaxed);
      };
      for (std::size_t b = 0; b < kBatches; ++b) {
        if (b >= kDepth) settle(b - kDepth);
        begins[b] = b * n / kBatches;
        const std::size_t end = (b + 1) * n / kBatches;
        tickets[b] = client->submit(
            std::span(fx.queries.data() + begins[b], end - begins[b]),
            &ranks[b]);
      }
      for (std::size_t b = kBatches - kDepth; b < kBatches; ++b) settle(b);
      EXPECT_EQ(client->batches(), kBatches);
      EXPECT_EQ(client->total().num_queries, n);
    });
  }
  for (auto& s : streams) s.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(EngineV2, EveryKernelMultiClientExact) {
  // The ring-backed dispatch and the batch kernels under concurrent
  // clients: for each kernel, 3 clients pipeline staggered batches at
  // depth 2 against one shared index and every rank must stay exact.
  const auto& fx = fixture();
  for (const SearchKernel kernel : all_search_kernels()) {
    const auto index = parallel_index(4, 5, kernel);
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> streams;
    for (int c = 0; c < 3; ++c) {
      streams.emplace_back([&, c] {
        const auto client = index->connect();
        const std::size_t n = 12000 - static_cast<std::size_t>(c) * 7;
        constexpr std::size_t kBatches = 6;
        std::vector<std::vector<rank_t>> ranks(kBatches);
        std::vector<Ticket> tickets(kBatches);
        std::vector<std::size_t> begins(kBatches);
        auto settle = [&](std::size_t b) {
          client->wait(tickets[b]);
          for (std::size_t i = 0; i < ranks[b].size(); ++i)
            if (ranks[b][i] != fx.expected[begins[b] + i])
              mismatches.fetch_add(1, std::memory_order_relaxed);
        };
        for (std::size_t b = 0; b < kBatches; ++b) {
          if (b >= 2) settle(b - 2);
          begins[b] = b * n / kBatches;
          const std::size_t end = (b + 1) * n / kBatches;
          tickets[b] = client->submit(
              std::span(fx.queries.data() + begins[b], end - begins[b]),
              &ranks[b]);
        }
        for (std::size_t b = kBatches - 2; b < kBatches; ++b) settle(b);
      });
    }
    for (auto& s : streams) s.join();
    EXPECT_EQ(mismatches.load(), 0u) << search_kernel_name(kernel);
  }
}

TEST(EngineV2, ClientChurnOnRingDispatch) {
  // Connect/destroy clients repeatedly against one live index while a
  // long-lived client keeps streaming: exercises the dispatch hub's
  // channel registration, close, and prune paths (the dynamic-client
  // surface the per-worker rings have to survive).
  const auto& fx = fixture();
  const auto index = parallel_index(3, 4, SearchKernel::kBatchedEytzinger);
  std::atomic<std::uint64_t> mismatches{0};
  auto verify = [&](std::span<const rank_t> ranks, std::size_t begin) {
    for (std::size_t i = 0; i < ranks.size(); ++i)
      if (ranks[i] != fx.expected[begin + i])
        mismatches.fetch_add(1, std::memory_order_relaxed);
  };
  std::thread churner([&] {
    for (int g = 0; g < 25; ++g) {
      const auto client = index->connect();
      std::vector<rank_t> a, b;
      const std::size_t begin = static_cast<std::size_t>(g) * 31;
      const Ticket ta =
          client->submit(std::span(fx.queries.data() + begin, 700), &a);
      const Ticket tb =
          client->submit(std::span(fx.queries.data() + begin + 700, 700), &b);
      client->wait(ta);
      client->wait(tb);
      verify(a, begin);
      verify(b, begin + 700);
    }  // client destroyed with its channels closed each generation
  });
  {
    const auto steady = index->connect();
    for (int b = 0; b < 50; ++b) {
      std::vector<rank_t> ranks;
      const std::size_t begin = static_cast<std::size_t>(b) * 101;
      steady->wait(
          steady->submit(std::span(fx.queries.data() + begin, 500), &ranks));
      verify(ranks, begin);
    }
  }
  churner.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(EngineV2, DestroyClientsUnderLoadWhileOthersStream) {
  // The drain-then-close teardown raced against live traffic: churner
  // threads destroy clients WITH tickets still in flight (the dtor must
  // drain them) while other clients keep every worker's scan loop hot —
  // so channel close and prune happen exactly while workers are
  // mid-pop on sibling channels, and (with stealing on) while thieves
  // scan the victim hubs. A channel freed under a worker's scan is a
  // use-after-free this test exists to catch (ASan/TSan jobs race it).
  const auto& fx = fixture();
  const auto index = parallel_index(4, 6, SearchKernel::kBatchedEytzinger);
  std::atomic<std::uint64_t> mismatches{0};
  auto verify = [&](std::span<const rank_t> ranks, std::size_t begin) {
    for (std::size_t i = 0; i < ranks.size(); ++i)
      if (ranks[i] != fx.expected[begin + i])
        mismatches.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      for (int g = 0; g < 15; ++g) {
        const std::size_t begin =
            static_cast<std::size_t>(t) * 997 + static_cast<std::size_t>(g) * 13;
        std::vector<std::vector<rank_t>> ranks(4);
        {
          const auto client = index->connect();
          for (std::size_t b = 0; b < ranks.size(); ++b)
            client->submit(
                std::span(fx.queries.data() + begin + b * 400, 400),
                &ranks[b]);
          // NO wait: destruction drains the in-flight tickets, then
          // closes channels a worker may be scanning right now.
        }
        for (std::size_t b = 0; b < ranks.size(); ++b)
          verify(ranks[b], begin + b * 400);
      }
    });
  }
  {
    const auto steady = index->connect();
    std::vector<rank_t> ranks;
    for (int b = 0; b < 120; ++b) {
      const std::size_t begin = static_cast<std::size_t>(b) * 211;
      steady->wait(
          steady->submit(std::span(fx.queries.data() + begin, 600), &ranks));
      verify(ranks, begin);
    }
  }
  for (auto& t : churners) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(EngineV2, ConcurrentClientsOnTheSyncBackendToo) {
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;
  const auto index = make_engine(Backend::kSim, cfg)->build(fx.keys);
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> streams;
  for (int c = 0; c < 3; ++c)
    streams.emplace_back([&] {
      const auto client = index->connect();
      std::vector<rank_t> ranks;
      client->wait(client->submit(std::span(fx.queries.data(), 2000), &ranks));
      for (std::size_t i = 0; i < 2000; ++i)
        if (ranks[i] != fx.expected[i])
          mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& s : streams) s.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- Edge cases the contract documents ------------------------------------

TEST(EngineV2, ZeroBatchClient) {
  const auto index = parallel_index(2);
  const auto client = index->connect();
  EXPECT_EQ(client->batches(), 0u);
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(client->total().num_queries, 0u);
}  // destroyed without ever submitting — must not hang or leak

TEST(EngineV2, EmptyQueryBatch) {
  const auto& fx = fixture();
  const auto index = parallel_index(3);
  const auto client = index->connect();
  std::vector<rank_t> ranks(7, 123);  // stale contents must be cleared
  const RunReport report =
      client->wait(client->submit(std::span<const key_t>{}, &ranks));
  EXPECT_TRUE(ranks.empty());
  EXPECT_EQ(report.num_queries, 0u);
  EXPECT_EQ(report.messages, 0u);
  // The stream keeps working after an empty batch.
  client->wait(client->submit(std::span(fx.queries.data(), 100), &ranks));
  for (std::size_t i = 0; i < 100; ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]);
  EXPECT_EQ(client->batches(), 2u);
  EXPECT_EQ(client->total().num_queries, 100u);
}

TEST(EngineV2Death, EveryBackendsBuildRejectsUnsortedKeys) {
  // parallel-native checks the order in its workers, one shard slice
  // each, so a descent at a shard boundary is only caught by checking a
  // slice against the key before it. Both kinds must die on every
  // backend, with and without an Eytzinger layout to build.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;  // three slaves: shard 1 starts at n / 3
  const std::size_t boundary = fx.keys.size() / 3;
  std::vector<key_t> inside = fx.keys;
  std::swap(inside[boundary / 2], inside[boundary / 2 + 1]);
  std::vector<key_t> at_boundary = fx.keys;
  at_boundary[boundary] = at_boundary[boundary - 1] - 1;
  ASSERT_TRUE(std::is_sorted(at_boundary.begin(), at_boundary.begin() +
                                                      boundary));
  ASSERT_TRUE(std::is_sorted(at_boundary.begin() + boundary,
                             at_boundary.end()));
  for (const SearchKernel kernel :
       {SearchKernel::kBranchless, SearchKernel::kBatchedEytzinger}) {
    cfg.kernel = kernel;
    for (const Backend backend : kAllBackends) {
      const auto engine = make_engine(backend, cfg);
      EXPECT_DEATH(engine->build(inside), "sorted")
          << backend_name(backend) << " " << search_kernel_name(kernel);
      EXPECT_DEATH(engine->build(at_boundary), "sorted")
          << backend_name(backend) << " " << search_kernel_name(kernel);
    }
  }
}

TEST(EngineV2Death, WaitTwiceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto& fx = fixture();
  const auto index = parallel_index(2);
  const auto client = index->connect();
  std::vector<rank_t> ranks;
  const Ticket t =
      client->submit(std::span(fx.queries.data(), 500), &ranks);
  const RunReport first = client->wait(t);
  EXPECT_EQ(first.num_queries, 500u);
  EXPECT_EQ(client->batches(), 1u);
  EXPECT_EQ(client->total().num_queries, 500u);
  // A ticket is waited exactly once — its report is handed over, the
  // ledger retires it (O(in-flight) memory for any stream length), and
  // a second wait is a loud programming error, not a silent re-merge.
  EXPECT_DEATH(client->wait(t), "already waited");
  // The stream itself is still healthy after retirement.
  client->wait(client->submit(std::span(fx.queries.data(), 100), &ranks));
  EXPECT_EQ(client->batches(), 2u);
}

TEST(EngineV2, DestroyClientWithTicketsInFlight) {
  const auto& fx = fixture();
  const auto index = parallel_index(4);
  std::vector<std::vector<rank_t>> ranks(6);
  {
    const auto client = index->connect();
    for (std::size_t b = 0; b < 6; ++b)
      client->submit(std::span(fx.queries.data() + 500 * b, 500), &ranks[b]);
    // No wait: the destructor must drain, so every rank buffer below is
    // fully written before we read it.
  }
  for (std::size_t b = 0; b < 6; ++b) {
    ASSERT_EQ(ranks[b].size(), 500u);
    for (std::size_t i = 0; i < 500; ++i)
      ASSERT_EQ(ranks[b][i], fx.expected[500 * b + i]) << "batch " << b;
  }
}

TEST(EngineV2Death, ForeignTicketAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto& fx = fixture();
  const auto index = parallel_index(2);
  const auto a = index->connect();
  const auto b = index->connect();
  const Ticket t = a->submit(std::span(fx.queries.data(), 10));
  EXPECT_DEATH(b->wait(t), "different Client");
  EXPECT_DEATH(a->wait(Ticket{}), "different Client");
  a->drain();
}

// --- The surviving convenience wrapper stays faithful ---------------------
//
// The v1 Session surface (open()/run_batch()) was deleted on schedule;
// Engine::run is the one remaining wrapper and must keep matching the
// explicit build + connect + submit + wait path bit-for-bit.

TEST(EngineV2, RunWrapperMatchesClientRanks) {
  const auto& fx = fixture();
  ParallelConfig cfg;
  cfg.num_threads = 3;
  const ParallelNativeEngine engine(cfg);
  const std::span<const key_t> queries(fx.queries.data(), 4000);
  std::vector<rank_t> via_client;
  const auto client = engine.build(fx.keys)->connect();
  client->wait(client->submit(queries, &via_client));
  std::vector<rank_t> via_run;
  engine.run(fx.keys, queries, &via_run);
  EXPECT_EQ(via_client, via_run);
  for (std::size_t i = 0; i < queries.size(); ++i)
    ASSERT_EQ(via_run[i], fx.expected[i]) << "query " << i;
}

// --- RunReport::merge defense (documented mismatch semantics) -------------

TEST(RunReportMergeDefense, MismatchedNodeLayoutsDropDetailKeepScalars) {
  RunReport a;
  a.method = Method::kC3;
  a.num_queries = 10;
  a.raw_makespan = 100;
  a.makespan = 100;
  a.messages = 4;
  a.wire_bytes = 256;
  a.nodes.resize(3);
  a.nodes[1].queries = 10;
  RunReport b = a;
  b.num_queries = 20;
  b.nodes.resize(5);  // a different backend's layout
  a.merge(b);
  // Scalars stay exact...
  EXPECT_EQ(a.num_queries, 30u);
  EXPECT_EQ(a.makespan, 200);
  EXPECT_EQ(a.messages, 8u);
  EXPECT_EQ(a.wire_bytes, 512u);
  // ...and per-node detail is dropped, not concatenated or truncated.
  EXPECT_TRUE(a.nodes.empty());
  // Once dropped it stays dropped, even against an empty layout.
  RunReport c;
  c.method = Method::kC3;
  c.num_queries = 5;
  a.merge(c);
  EXPECT_EQ(a.num_queries, 35u);
  EXPECT_TRUE(a.nodes.empty());
}

TEST(RunReportMergeDefense, EmptyVsNonEmptyAlsoDrops) {
  RunReport bare;  // no per-node detail
  bare.method = Method::kC3;
  bare.num_queries = 7;
  RunReport parallel;
  parallel.method = Method::kC3;
  parallel.num_queries = 9;
  parallel.nodes.resize(4);
  bare.merge(parallel);
  EXPECT_EQ(bare.num_queries, 16u);
  EXPECT_TRUE(bare.nodes.empty());
}

TEST(RunReportMergeDefenseDeath, CrossMethodMergeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RunReport a;
  a.method = Method::kC3;
  RunReport b;
  b.method = Method::kA;
  EXPECT_DEATH(a.merge(b), "method mismatch");
}

}  // namespace
}  // namespace dici::core
