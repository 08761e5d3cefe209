// ClusterEngine end-to-end: N node objects sharing no memory with the
// coordinator, every byte crossing a net::Endpoint as a serialized
// frame. The cases that matter: rank agreement with the shared-memory
// backends on every placement x transport cell, the v3 delta path
// (Store over a cluster), multi-client pipelining, and — the part a
// simulator never exercises — the fault-tolerance story: a node killed
// mid-stream either fails its in-flight batches with a NodeFailureError
// that NAMES the node (sole-owner placements, or failover=false), or is
// papered over entirely by query failover to a surviving replica; a
// DEAD node re-joins and gets its shards re-scattered in the same run;
// and a seeded drop/delay/duplicate/corrupt storm on every link still
// converges every batch to exact ranks.
#include <gtest/gtest.h>
#include <libgen.h>
#include <limits.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/store.hpp"
#include "src/net/fault.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::cluster {
namespace {

using core::Backend;
using core::ExperimentConfig;
using core::Method;
using core::RunReport;
using core::Ticket;

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
  std::vector<rank_t> expected;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(20260808);
    fx.keys = workload::make_sorted_unique_keys(20000, rng);
    fx.queries = workload::make_uniform_queries(30000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

ClusterConfig quick_config(std::uint32_t nodes,
                           net::TransportKind transport =
                               net::TransportKind::kSocket) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.batch_bytes = 4 * KiB;
  cfg.transport = transport;
  // Fast failure detection so the kill tests finish in milliseconds.
  cfg.heartbeat_interval_ms = 5;
  cfg.heartbeat_timeout_ms = 60;
  return cfg;
}

void expect_exact(const std::vector<rank_t>& ranks, const char* tag) {
  const auto& fx = fixture();
  ASSERT_EQ(ranks.size(), fx.expected.size()) << tag;
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ASSERT_EQ(ranks[i], fx.expected[i]) << tag << " query " << i;
}

// --- Rank agreement across the placement x transport matrix ---------------

TEST(ClusterEngine, RanksExactEveryPlacementAndTransport) {
  const auto& fx = fixture();
  // The in-process transport AND the process ones: fork and tcp cells
  // spawn three real dici_node children each, and must agree bit-exactly
  // with the thread-backed cells on every placement.
  for (const net::TransportKind transport :
       {net::TransportKind::kSocket, net::TransportKind::kFork,
        net::TransportKind::kTcp}) {
    for (const index::Placement placement :
         {index::Placement::kInterleave, index::Placement::kNodeLocal,
          index::Placement::kReplicate}) {
      ClusterConfig cfg = quick_config(3, transport);
      cfg.placement = placement;
      const auto index = ClusterEngine(cfg).build(fx.keys);
      EXPECT_STREQ(index->backend(), "cluster");
      const auto client = index->connect();
      std::vector<rank_t> ranks;
      const RunReport report = client->wait(client->submit(fx.queries, &ranks));
      expect_exact(ranks, net::transport_name(transport));
      EXPECT_EQ(report.num_queries, fx.queries.size());
      EXPECT_EQ(report.num_nodes, 4u);  // coordinator + 3 serving nodes
      EXPECT_GT(report.messages, 0u);
      EXPECT_GT(report.wire_bytes, 0u);
      EXPECT_GT(report.makespan, 0u);
    }
  }
}

TEST(ClusterEngine, MoreShardsThanNodesAndMoreNodesThanKeys) {
  const auto& fx = fixture();
  {
    ClusterConfig cfg = quick_config(2);
    cfg.num_shards = 7;  // shard s -> node s % 2
    const auto client = ClusterEngine(cfg).build(fx.keys)->connect();
    std::vector<rank_t> ranks;
    client->wait(client->submit(fx.queries, &ranks));
    expect_exact(ranks, "7 shards on 2 nodes");
  }
  {
    // More nodes than keys: some nodes hold nothing and only heartbeat.
    const std::vector<key_t> tiny(fx.keys.begin(), fx.keys.begin() + 2);
    const auto client = ClusterEngine(quick_config(4)).build(tiny)->connect();
    const std::vector<key_t> qs = {tiny[0], tiny[1], tiny[1] + 1, 0};
    std::vector<rank_t> ranks;
    client->wait(client->submit(qs, &ranks));
    const std::vector<rank_t> want = {1, 2, 2, 0};
    EXPECT_EQ(ranks, want);
  }
}

TEST(ClusterEngine, MatchesMakeEngineFactoryAndExperimentConfig) {
  const auto& fx = fixture();
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;  // 1 master + 3 serving nodes
  cfg.batch_bytes = 8 * KiB;
  const auto engine = core::make_engine(Backend::kCluster, cfg);
  EXPECT_STREQ(engine->name(), "cluster");
  const auto index = engine->build(fx.keys);
  const auto client = index->connect();
  std::vector<rank_t> ranks;
  const RunReport report = client->wait(client->submit(fx.queries, &ranks));
  expect_exact(ranks, "factory");
  EXPECT_EQ(report.method, Method::kC3);
  EXPECT_EQ(report.num_nodes, 4u);
}

// --- Pipelining and multi-client ------------------------------------------

TEST(ClusterEngine, DeepPipelineAndTwoClients) {
  const auto& fx = fixture();
  const auto index = ClusterEngine(quick_config(3)).build(fx.keys);
  const auto a = index->connect();
  const auto b = index->connect();
  const std::size_t B = 6;
  std::vector<std::vector<rank_t>> ra(B), rb(B);
  std::vector<Ticket> ta(B), tb(B);
  for (std::size_t i = 0; i < B; ++i) {
    const std::size_t begin = i * fx.queries.size() / B;
    const std::size_t end = (i + 1) * fx.queries.size() / B;
    const std::span<const key_t> slice(fx.queries.data() + begin,
                                       end - begin);
    ta[i] = a->submit(slice, &ra[i]);
    tb[i] = b->submit(slice, &rb[i]);
  }
  for (std::size_t i = 0; i < B; ++i) {
    a->wait(ta[i]);
    b->wait(tb[i]);
    const std::size_t begin = i * fx.queries.size() / B;
    for (std::size_t j = 0; j < ra[i].size(); ++j) {
      ASSERT_EQ(ra[i][j], fx.expected[begin + j]) << "client a batch " << i;
      ASSERT_EQ(rb[i][j], fx.expected[begin + j]) << "client b batch " << i;
    }
  }
  EXPECT_EQ(a->batches(), B);
  EXPECT_EQ(b->batches(), B);
}

TEST(ClusterEngine, LatencyTrackingPopulatesSummary) {
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(2);
  cfg.track_latency = true;
  const auto client = ClusterEngine(cfg).build(fx.keys)->connect();
  std::vector<rank_t> ranks;
  const RunReport report = client->wait(client->submit(fx.queries, &ranks));
  expect_exact(ranks, "latency");
  EXPECT_EQ(report.latency_ns.count(), fx.queries.size());
  EXPECT_GT(report.latency_ns.max(), 0.0);
}

// --- The v3 write path: a Store over the cluster backend ------------------

TEST(ClusterEngine, StoreWithLiveWritesStaysExact) {
  Rng rng(77);
  const auto keys = workload::make_sorted_unique_keys(4000, rng);
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 3;
  cfg.batch_bytes = 4 * KiB;
  const auto store = core::make_store(Backend::kCluster, cfg, keys);
  const auto writer = store->writer();
  // Interleave inserts with reads; every flushed write must be visible
  // to the next read (the delta fold runs coordinator-side, nodes stay
  // oblivious — they keep answering base ranks).
  std::vector<key_t> live = keys;
  for (int round = 0; round < 8; ++round) {
    std::vector<key_t> inserts;
    for (int i = 0; i < 40; ++i)
      inserts.push_back(static_cast<key_t>(rng.next()));
    writer->insert(inserts);
    writer->flush();
    live.insert(live.end(), inserts.begin(), inserts.end());
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    const auto queries = workload::make_uniform_queries(2000, rng);
    const auto expected = workload::reference_ranks(live, queries);
    const auto client = store->connect();
    std::vector<rank_t> ranks;
    client->wait(client->submit(queries, &ranks));
    for (std::size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(ranks[i], expected[i]) << "round " << round << " query " << i;
  }
}

// --- Failure semantics: a killed node fails fast and is named -------------

TEST(ClusterEngine, KilledNodeFailsInFlightBatchWithItsName) {
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(3);
  const auto engine = ClusterEngine(cfg);
  const auto index = engine.build(fx.keys);
  const auto* cluster = index.get();
  const auto client = index->connect();
  // Warm batch proves the cluster serves before the kill.
  std::vector<rank_t> warm;
  client->wait(client->submit(fx.queries, &warm));
  expect_exact(warm, "pre-kill");

  cluster_kill_node_for_test(*cluster, 1);
  // Keep submitting until a batch lands on the silenced node after its
  // death is detected; wait() must throw (never hang) and the error
  // must name node 1.
  bool failed = false;
  for (int attempt = 0; attempt < 200 && !failed; ++attempt) {
    std::vector<rank_t> ranks;
    const Ticket t = client->submit(fx.queries, &ranks);
    try {
      client->wait(t);
    } catch (const NodeFailureError& e) {
      failed = true;
      EXPECT_EQ(e.node(), 1u);
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(failed) << "killed node never failed a batch";
  // The failure is sticky: the dead node stays dead, and further
  // submissions routed at it keep failing fast rather than hanging.
  std::vector<rank_t> ranks;
  EXPECT_THROW(client->wait(client->submit(fx.queries, &ranks)),
               NodeFailureError);
}

TEST(ClusterEngine, DrainOnDestroySurvivesNodeFailure) {
  // A client destroyed with a doomed ticket still in flight must not
  // terminate (Client::~Client swallows the NodeFailureError; callers
  // who care wait() first).
  const auto& fx = fixture();
  const auto index = ClusterEngine(quick_config(2)).build(fx.keys);
  {
    std::vector<rank_t> ranks;  // outlives the client, per the contract
    const auto client = index->connect();
    (void)client->submit(fx.queries, &ranks);
    cluster_kill_node_for_test(*index, 0);
  }  // dtor drains; must neither hang nor throw
  SUCCEED();
}

/// Poll `node`'s membership status until it reads `want` or `within`
/// runs out.
bool wait_for_status(
    const core::Index& index, std::uint32_t node, NodeStatus want,
    std::chrono::milliseconds within = std::chrono::seconds(4)) {
  const auto deadline = std::chrono::steady_clock::now() + within;
  for (;;) {
    if (cluster_node_status(index, node) == want) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// --- Failover: a death under kReplicate is invisible to callers -----------

TEST(ClusterEngine, FailoverCompletesBatchesWhenNodeDiesUnderReplicate) {
  // The acceptance bar: kill one node mid-stream under kReplicate and
  // every in-flight batch still completes with exact ranks — zero
  // NodeFailureError reaches the caller, because every chunk the dead
  // node left unanswered is re-routed to a surviving replica holder.
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(3);
  cfg.placement = index::Placement::kReplicate;
  cfg.retry_backoff_us = 2'000;  // exhaust retries in ~1 heartbeat
  const auto index = ClusterEngine(cfg).build(fx.keys);
  const auto client = index->connect();
  std::vector<rank_t> warm;
  client->wait(client->submit(fx.queries, &warm));
  expect_exact(warm, "pre-kill");

  constexpr std::size_t kBatches = 12;
  std::vector<std::vector<rank_t>> ranks(kBatches);
  std::vector<Ticket> tickets(kBatches);
  std::uint64_t failovers = 0;
  for (std::size_t i = 0; i < kBatches; ++i) {
    tickets[i] = client->submit(fx.queries, &ranks[i]);
    if (i == 3) cluster_kill_node_for_test(*index, 1);
  }
  for (std::size_t i = 0; i < kBatches; ++i) {
    const RunReport report = client->wait(tickets[i]);  // must not throw
    expect_exact(ranks[i], "failover batch");
    failovers += report.failovers;
  }
  EXPECT_GT(failovers, 0u) << "node 1 died mid-stream; some chunk must "
                              "have been re-routed";
  // Retries re-route the dead node's chunks without waiting for the
  // heartbeat verdict, so the batches can all finish before the timeout
  // expires: give the verdict a few timeouts to land.
  EXPECT_TRUE(wait_for_status(
      *index, 1, NodeStatus::kDead,
      4 * std::chrono::milliseconds(cfg.heartbeat_timeout_ms)))
      << "node 1 was killed; its heartbeat silence must mark it DEAD";
  // The survivors keep serving.
  std::vector<rank_t> after;
  client->wait(client->submit(fx.queries, &after));
  expect_exact(after, "post-kill");
}

TEST(ClusterEngine, NoFailoverConfigStillFailsFast) {
  // failover = false restores the seed's fail-fast contract even under
  // kReplicate: a death with chunks in flight surfaces as
  // NodeFailureError naming the node, never a hang.
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(2);
  cfg.placement = index::Placement::kReplicate;
  cfg.failover = false;
  const auto index = ClusterEngine(cfg).build(fx.keys);
  const auto client = index->connect();
  std::vector<rank_t> warm;
  client->wait(client->submit(fx.queries, &warm));
  expect_exact(warm, "pre-kill");

  cluster_kill_node_for_test(*index, 0);
  bool failed = false;
  for (int attempt = 0; attempt < 200 && !failed; ++attempt) {
    std::vector<rank_t> ranks;
    const Ticket t = client->submit(fx.queries, &ranks);
    try {
      client->wait(t);
    } catch (const NodeFailureError& e) {
      failed = true;
      EXPECT_EQ(e.node(), 0u);
    }
  }
  EXPECT_TRUE(failed) << "failover=false must keep fail-fast semantics";
}

// --- Re-join: DEAD -> JOINING -> ALIVE with shards re-scattered -----------

TEST(ClusterEngine, KillRejoinRescatterServeLifecycle) {
  // The full recovery story on the placement with NO surviving replica:
  // kill a node (its shards become unservable), watch the detector mark
  // it DEAD, re-admit it via cluster_rejoin_node (fresh link, join
  // handshake, chunked shard re-scatter), then serve rank-verified
  // queries through it again — all in one index lifetime.
  const auto& fx = fixture();
  const auto index = ClusterEngine(quick_config(3)).build(fx.keys);
  const auto client = index->connect();
  std::vector<rank_t> warm;
  client->wait(client->submit(fx.queries, &warm));
  expect_exact(warm, "pre-kill");

  cluster_kill_node_for_test(*index, 1);
  ASSERT_TRUE(wait_for_status(*index, 1, NodeStatus::kDead))
      << "heartbeat timeout never fired";
  // Its shards are gone: a batch routed at them fails fast.
  {
    std::vector<rank_t> ranks;
    EXPECT_THROW(client->wait(client->submit(fx.queries, &ranks)),
                 NodeFailureError);
  }

  ASSERT_TRUE(cluster_rejoin_node(*index, 1));
  EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kAlive);

  // Back in rotation: exact ranks through the re-scattered replicas,
  // and the report carries the recovery events.
  std::vector<rank_t> after;
  const RunReport report = client->wait(client->submit(fx.queries, &after));
  expect_exact(after, "post-rejoin");
  EXPECT_EQ(report.rejoins, 1u);
  EXPECT_GT(report.recovery_ns, 0u);

  // Events are harvested exactly once.
  std::vector<rank_t> again;
  const RunReport next = client->wait(client->submit(fx.queries, &again));
  expect_exact(again, "post-rejoin steady state");
  EXPECT_EQ(next.rejoins, 0u);
}

TEST(ClusterEngine, RejoinAfterFailoverRestoresFullRotation) {
  // Under kReplicate the death was invisible; the re-join still brings
  // the node back as a failover target and routing peer.
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(2);
  cfg.placement = index::Placement::kReplicate;
  cfg.retry_backoff_us = 2'000;
  const auto index = ClusterEngine(cfg).build(fx.keys);
  const auto client = index->connect();

  cluster_kill_node_for_test(*index, 0);
  ASSERT_TRUE(wait_for_status(*index, 0, NodeStatus::kDead));
  std::vector<rank_t> degraded;
  client->wait(client->submit(fx.queries, &degraded));
  expect_exact(degraded, "one-replica degraded serving");

  ASSERT_TRUE(cluster_rejoin_node(*index, 0));
  std::vector<rank_t> restored;
  const RunReport report = client->wait(client->submit(fx.queries, &restored));
  expect_exact(restored, "restored rotation");
  EXPECT_EQ(report.rejoins, 1u);
}

// --- Fault soak: drop + delay + duplicate + corrupt under load ------------

std::uint64_t fault_seed() {
  if (const char* s = std::getenv("DICI_FAULT_SEED"))
    return std::strtoull(s, nullptr, 0);
  return 0x5eed;
}

/// CI's chaos matrix soaks every transport: the env picks the wire the
/// storm rides on (default socket). Whatever the transport, the faults
/// bite at the coordinator's end of each link.
net::TransportKind fault_transport() {
  if (const char* s = std::getenv("DICI_FAULT_TRANSPORT"))
    return net::transport_from_flag(s, "DICI_FAULT_TRANSPORT");
  return net::TransportKind::kSocket;
}

TEST(ClusterEngine, FaultSoakDropDelayCorruptEveryRankExact) {
  // A seeded storm on every link — frames dropped, delivered late,
  // delivered twice, and payload-corrupted in BOTH directions — while
  // batches stream through. The retry/dedup machinery must converge
  // every batch to exact ranks; the report must show the recovery work.
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(3, fault_transport());
  cfg.placement = index::Placement::kReplicate;
  cfg.retry_backoff_us = 2'000;
  cfg.faults.seed = fault_seed();
  cfg.faults.to_node = {.drop = 0.05, .delay = 0.03, .duplicate = 0.05,
                        .corrupt = 0.05};
  cfg.faults.to_coordinator = {.drop = 0.05, .delay = 0.03, .duplicate = 0.05,
                               .corrupt = 0.05};
  const auto index = ClusterEngine(cfg).build(fx.keys);
  const auto client = index->connect();

  std::uint64_t retries = 0;
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<rank_t> ranks;
    const RunReport report = client->wait(client->submit(fx.queries, &ranks));
    expect_exact(ranks, "fault soak");
    retries += report.retries;
  }
  EXPECT_GT(retries, 0u) << "a 5% drop rate must have cost some retries "
                            "(seed " << cfg.faults.seed << ")";

  const auto controller = cluster_fault_controller(*index);
  ASSERT_NE(controller, nullptr);
  const net::FaultStats stats = controller->stats();
  EXPECT_GT(stats.dropped + stats.corrupted + stats.delayed +
                stats.duplicated,
            0u);

  // Heal and confirm the cluster serves a clean batch afterwards.
  controller->heal();
  std::vector<rank_t> clean;
  client->wait(client->submit(fx.queries, &clean));
  expect_exact(clean, "post-heal");
}

TEST(ClusterEngine, FaultPartitionHealsBeforeTimeoutAndBatchCompletes) {
  // A short full partition (shorter than the heartbeat timeout): every
  // frame in both directions black-holed, then the wire restored. The
  // in-flight batch must complete exactly via retries — no death, no
  // error, just a latency bubble.
  const auto& fx = fixture();
  ClusterConfig cfg = quick_config(2);
  cfg.placement = index::Placement::kReplicate;
  cfg.heartbeat_timeout_ms = 500;  // outlives the bubble below
  cfg.retry_backoff_us = 2'000;
  cfg.faults.armed = false;  // no random faults; the partition is manual
  cfg.faults.to_node.drop = 1.0;  // rates only bite while armed
  const auto index = ClusterEngine(cfg).build(fx.keys);
  const auto controller = cluster_fault_controller(*index);
  ASSERT_NE(controller, nullptr);
  const auto client = index->connect();

  controller->partition(true);
  std::vector<rank_t> ranks;
  const Ticket t = client->submit(fx.queries, &ranks);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  controller->partition(false);
  client->wait(t);
  expect_exact(ranks, "post-partition");
  EXPECT_EQ(cluster_node_status(*index, 0), NodeStatus::kAlive);
  EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kAlive);
}

TEST(ClusterEngine, FaultControllerNullWithoutFaultConfig) {
  const auto& fx = fixture();
  const auto index = ClusterEngine(quick_config(2)).build(fx.keys);
  EXPECT_EQ(cluster_fault_controller(*index), nullptr);
}

// --- Real processes: SIGKILL a spawned dici_node child --------------------

/// Both process transports — every suite below runs the same story over
/// a socketpair inherited across fork/exec and a loopback TCP link.
constexpr net::TransportKind kProcessTransports[] = {
    net::TransportKind::kFork, net::TransportKind::kTcp};

TEST(ClusterProcess, SpawnsRealChildrenAndRanksStayExact) {
  const auto& fx = fixture();
  for (const net::TransportKind transport : kProcessTransports) {
    const auto index =
        ClusterEngine(quick_config(3, transport)).build(fx.keys);
    // Three real children, all alive (kill(pid, 0) probes existence).
    const std::vector<int> pids = cluster_node_pids(*index);
    ASSERT_EQ(pids.size(), 3u) << net::transport_name(transport);
    for (const int pid : pids) {
      EXPECT_GT(pid, 0);
      EXPECT_NE(pid, ::getpid());
      EXPECT_EQ(::kill(pid, 0), 0)
          << net::transport_name(transport) << " child " << pid << " gone";
    }
    const auto client = index->connect();
    std::vector<rank_t> ranks;
    client->wait(client->submit(fx.queries, &ranks));
    expect_exact(ranks, net::transport_name(transport));
  }
}

TEST(ClusterProcess, SigkilledChildFailoverCompletesEveryInFlightBatch) {
  // The acceptance bar with nothing faked: SIGKILL a real child process
  // mid-stream under kReplicate. The coordinator sees its fds collapse
  // (kClosed), fails the node, and re-routes every chunk the corpse
  // left unanswered — all in-flight batches complete with exact ranks
  // and zero caller-visible errors.
  const auto& fx = fixture();
  for (const net::TransportKind transport : kProcessTransports) {
    ClusterConfig cfg = quick_config(3, transport);
    cfg.placement = index::Placement::kReplicate;
    cfg.retry_backoff_us = 2'000;
    const auto index = ClusterEngine(cfg).build(fx.keys);
    const auto client = index->connect();
    std::vector<rank_t> warm;
    client->wait(client->submit(fx.queries, &warm));
    expect_exact(warm, "pre-kill");

    const std::vector<int> pids = cluster_node_pids(*index);
    ASSERT_EQ(pids.size(), 3u);

    constexpr std::size_t kBatches = 12;
    std::vector<std::vector<rank_t>> ranks(kBatches);
    std::vector<Ticket> tickets(kBatches);
    for (std::size_t i = 0; i < kBatches; ++i) {
      // Freeze the child before batch 3 so it provably dies holding that
      // batch's chunks unanswered (a child that keeps up could answer
      // everything in the microseconds before the kill lands)...
      if (i == 3) {
        ASSERT_EQ(::kill(pids[1], SIGSTOP), 0);
      }
      tickets[i] = client->submit(fx.queries, &ranks[i]);
      if (i == 3) cluster_kill_node_for_test(*index, 1);  // ...real SIGKILL
    }
    std::uint64_t failovers = 0;
    for (std::size_t i = 0; i < kBatches; ++i) {
      const RunReport report = client->wait(tickets[i]);  // must not throw
      expect_exact(ranks[i], "failover batch");
      failovers += report.failovers;
    }
    EXPECT_GT(failovers, 0u)
        << net::transport_name(transport)
        << ": child SIGKILLed mid-stream; some chunk must have re-routed";
    EXPECT_TRUE(wait_for_status(*index, 1, NodeStatus::kDead));
    // The corpse is really dead (not our child to probe once reaped —
    // but a SIGKILLed pid must at minimum no longer serve: survivors
    // answer without it).
    std::vector<rank_t> after;
    client->wait(client->submit(fx.queries, &after));
    expect_exact(after, "post-kill");
  }
}

TEST(ClusterProcess, SigkilledChildRejoinSpawnsFreshProcess) {
  // Re-join over a process transport is a genuinely fresh child: new
  // pid, new link, shards re-shipped over the wire (kNodeConfig and
  // all), then rank-exact serving through the respawned process.
  const auto& fx = fixture();
  for (const net::TransportKind transport : kProcessTransports) {
    ClusterConfig cfg = quick_config(3, transport);
    cfg.placement = index::Placement::kReplicate;
    cfg.retry_backoff_us = 2'000;
    const auto index = ClusterEngine(cfg).build(fx.keys);
    const auto client = index->connect();
    const std::vector<int> before = cluster_node_pids(*index);
    ASSERT_EQ(before.size(), 3u);

    cluster_kill_node_for_test(*index, 1);
    ASSERT_TRUE(wait_for_status(*index, 1, NodeStatus::kDead))
        << net::transport_name(transport);
    std::vector<rank_t> degraded;
    client->wait(client->submit(fx.queries, &degraded));
    expect_exact(degraded, "degraded");

    ASSERT_TRUE(cluster_rejoin_node(*index, 1))
        << net::transport_name(transport);
    EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kAlive);
    const std::vector<int> after = cluster_node_pids(*index);
    ASSERT_EQ(after.size(), 3u);
    EXPECT_NE(after[1], before[1])
        << net::transport_name(transport)
        << ": a re-join must spawn a fresh child, not resurrect the pid";
    // The SIGKILLed incarnation was reaped when its slot was replaced.
    EXPECT_EQ(::kill(before[1], 0), -1);
    EXPECT_EQ(errno, ESRCH) << "old child " << before[1] << " still exists";

    std::vector<rank_t> restored;
    const RunReport report =
        client->wait(client->submit(fx.queries, &restored));
    expect_exact(restored, "post-rejoin");
    EXPECT_EQ(report.rejoins, 1u);
  }
}

TEST(ClusterProcess, TeardownReapsEveryChildNoZombies) {
  // Destroying the index must leave NOTHING behind: every spawned child
  // reaped (a zombie would still answer kill(pid, 0) with 0). Runs the
  // whole lifecycle — serve, SIGKILL one child, destroy with the corpse
  // unreaped — to pin the destructor's grace-then-reap path too.
  const auto& fx = fixture();
  for (const net::TransportKind transport : kProcessTransports) {
    std::vector<int> pids;
    {
      const auto index =
          ClusterEngine(quick_config(3, transport)).build(fx.keys);
      pids = cluster_node_pids(*index);
      ASSERT_EQ(pids.size(), 3u);
      const auto client = index->connect();
      std::vector<rank_t> ranks;
      client->wait(client->submit(fx.queries, &ranks));
      expect_exact(ranks, net::transport_name(transport));
      cluster_kill_node_for_test(*index, 2);  // corpse left for teardown
    }
    for (const int pid : pids) {
      EXPECT_EQ(::kill(pid, 0), -1)
          << net::transport_name(transport) << " pid " << pid
          << " survived teardown";
      EXPECT_EQ(errno, ESRCH);
    }
  }
}

/// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ClusterProcess, FailedRejoinReturnsFalseAndLeavesTheNodeDead) {
  // The re-join error channel. Build and re-join climb one join ladder,
  // but only the build aborts on failure: a re-join whose fresh child
  // never speaks (DICI_NODE_BIN, read at every spawn, points at a binary
  // that exits at once) or never starts (a binary that does not exist)
  // must return false promptly, leave the node DEAD, and abort nothing.
  // With the override gone, the next re-join succeeds and serves exact
  // ranks.
  const auto& fx = fixture();
  const auto index =
      ClusterEngine(quick_config(3, net::TransportKind::kFork)).build(fx.keys);
  const auto client = index->connect();
  std::vector<rank_t> warm;
  client->wait(client->submit(fx.queries, &warm));
  expect_exact(warm, "pre-kill");

  cluster_kill_node_for_test(*index, 1);
  ASSERT_TRUE(wait_for_status(*index, 1, NodeStatus::kDead));
  for (const char* binary : {"/bin/false", "/nonexistent/dici_node"}) {
    ScopedEnv env("DICI_NODE_BIN", binary);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(cluster_rejoin_node(*index, 1)) << binary;
    // The child's exit closes the link (or the spawn fails outright),
    // which the re-join reports at once instead of waiting out its 5 s
    // deadline.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(2500))
        << binary;
    EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kDead) << binary;
  }
  ASSERT_TRUE(cluster_rejoin_node(*index, 1));
  EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kAlive);
  std::vector<rank_t> after;
  const RunReport report = client->wait(client->submit(fx.queries, &after));
  expect_exact(after, "post-rejoin");
  EXPECT_EQ(report.rejoins, 1u);
}

// --- A lying node: replies are checked before they are written ------------

/// dici_lying_node, built next to this test binary: node 1 answers every
/// query batch with an out-of-range query id (DICI_LIE=id), one answer
/// short (DICI_LIE=count), or one query answered twice and another not
/// at all (DICI_LIE=dup). See tests/support/lying_node.cpp.
std::string lying_node_binary() {
  char exe[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  EXPECT_GT(n, 0);
  exe[n > 0 ? n : 0] = '\0';
  return std::string(::dirname(exe)) + "/dici_lying_node";
}

constexpr const char* kLies[] = {"id", "count", "dup"};

TEST(ClusterProcess, LyingNodeIsFailedAndItsChunksFailOverUnderReplicate) {
  // The coordinator writes each answer at out[id], with ids decoded from
  // another process. A reply whose ids are not exactly its chunk's (an
  // id outside the submission, an answer missing, or one query answered
  // twice) is a protocol breach: the node is failed before anything is
  // written, and its chunks re-route to the replicas, so every rank
  // stays exact.
  const auto& fx = fixture();
  for (const char* lie : kLies) {
    ScopedEnv env("DICI_LIE", lie);
    ClusterConfig cfg = quick_config(3, net::TransportKind::kFork);
    cfg.placement = index::Placement::kReplicate;
    cfg.node_binary = lying_node_binary();
    const auto index = ClusterEngine(cfg).build(fx.keys);
    const auto client = index->connect();
    std::uint64_t failovers = 0;
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<rank_t> ranks;
      const RunReport report = client->wait(client->submit(fx.queries, &ranks));
      expect_exact(ranks, lie);
      failovers += report.failovers;
    }
    EXPECT_GT(failovers, 0u) << lie;
    EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kDead) << lie;
    EXPECT_EQ(cluster_node_status(*index, 0), NodeStatus::kAlive) << lie;
    EXPECT_EQ(cluster_node_status(*index, 2), NodeStatus::kAlive) << lie;
  }
}

TEST(ClusterProcess, LyingNodeIsNamedUnderInterleave) {
  // With no replica to fail over to, the breach surfaces as the
  // NodeFailureError of any batch that touched the liar, naming it.
  const auto& fx = fixture();
  for (const char* lie : kLies) {
    ScopedEnv env("DICI_LIE", lie);
    ClusterConfig cfg = quick_config(3, net::TransportKind::kFork);
    cfg.node_binary = lying_node_binary();
    const auto index = ClusterEngine(cfg).build(fx.keys);
    const auto client = index->connect();
    std::vector<rank_t> ranks;
    try {
      client->wait(client->submit(fx.queries, &ranks));
      ADD_FAILURE() << lie << ": a batch through the lying node completed";
    } catch (const NodeFailureError& e) {
      EXPECT_EQ(e.node(), 1u) << lie;
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cluster_node_status(*index, 1), NodeStatus::kDead) << lie;
  }
}

TEST(ClusterProcess, InProcessTransportsReportNoPids) {
  const auto& fx = fixture();
  const auto index = ClusterEngine(quick_config(2)).build(fx.keys);
  EXPECT_TRUE(cluster_node_pids(*index).empty());
}

// --- Config guard rails ---------------------------------------------------

TEST(ClusterEngineDeath, RejectsClusterIncompatibleConfigs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    ClusterConfig cfg;
    cfg.num_nodes = 0;
    EXPECT_DEATH(ClusterEngine{cfg}, "num_nodes");
  }
  {
    ClusterConfig cfg;
    cfg.heartbeat_timeout_ms = cfg.heartbeat_interval_ms;  // < 2x interval
    EXPECT_DEATH(ClusterEngine{cfg}, "twice");
  }
  {
    ClusterConfig cfg;
    cfg.retry_backoff_us = 0;  // the sweeper would spin
    EXPECT_DEATH(ClusterEngine{cfg}, "retry_backoff_us");
  }
  {
    // The bounds validate() puts on ExperimentConfig hold for a direct
    // ClusterConfig too: a 50us backoff would have the sweeper re-send
    // every unanswered chunk on every tick.
    ClusterConfig cfg;
    cfg.retry_backoff_us = 50;
    EXPECT_DEATH(ClusterEngine{cfg}, "ClusterConfig::retry_backoff_us = 50");
  }
  {
    ClusterConfig cfg;
    cfg.max_retries = 1001;
    EXPECT_DEATH(ClusterEngine{cfg}, "ClusterConfig::max_retries = 1001");
  }
  {
    ExperimentConfig cfg;
    cfg.machine = arch::pentium3_cluster();
    cfg.method = Method::kA;  // replicated tree: not a cluster method
    EXPECT_DEATH(cluster_config_from(cfg), "C-3");
  }
  {
    ExperimentConfig cfg;
    cfg.machine = arch::pentium3_cluster();
    cfg.num_masters = 2;
    EXPECT_DEATH(cluster_config_from(cfg), "master");
  }
}

}  // namespace
}  // namespace dici::cluster
