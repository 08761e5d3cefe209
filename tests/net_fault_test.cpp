// The coordinator-end fault decoration: deterministic per-seed
// schedules (salted per node and link epoch), each failure mode
// observable exactly as a real flaky link would present it (drop =
// silence, corrupt = kCorrupt with a clean stream after, duplicate =
// two arrivals, delay = late arrival) in both directions — node-bound
// frames perturbed on send, coordinator-bound frames at intake — and
// the FaultController switchboard (arm/heal/partition) flipping
// injection at runtime.
//
// The rigs run over the socket transport, whose kernel buffer is the
// only queue between the ends: a test that sends many frames drains
// the far end as it goes instead of relying on the buffer to hold them.
#include "src/net/fault.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/transport.hpp"
#include "src/net/wire.hpp"

namespace dici::net {
namespace {

using namespace std::chrono_literals;

Frame ping(std::uint64_t i) {
  QueryBatchMsg msg;
  msg.submission = i;
  msg.chunk = static_cast<std::uint32_t>(i);
  msg.keys = {static_cast<key_t>(i), static_cast<key_t>(i + 1)};
  msg.ids = {0, 1};
  return encode_query_batch(kCoordinatorId, msg);
}

/// One socket link with its coordinator end decorated for link `node`,
/// incarnation `epoch`; `node_end` is the raw far side (the node).
struct Rig {
  std::shared_ptr<FaultController> controller;
  std::unique_ptr<Endpoint> coordinator;  ///< decorated
  std::unique_ptr<Endpoint> node_end;

  explicit Rig(const FaultConfig& config, bool armed = true,
               std::uint32_t node = 0, std::uint32_t epoch = 1) {
    auto [coordinator_end, far_end] =
        make_transport_pair(TransportKind::kSocket);
    controller = std::make_shared<FaultController>();
    if (armed) controller->arm();
    coordinator = decorate_coordinator_end(std::move(coordinator_end),
                                           controller, config, node, epoch);
    node_end = std::move(far_end);
  }
};

FaultConfig node_bound(const FaultRates& rates, std::uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.to_node = rates;
  return config;
}

FaultConfig coordinator_bound(const FaultRates& rates,
                              std::uint64_t seed = 101) {
  FaultConfig config;
  config.seed = seed;
  config.to_coordinator = rates;
  return config;
}

/// Receive everything `receiver` has within `quiet` of silence; returns
/// the arrivals, intact and corrupt.
std::uint64_t drain(Endpoint& receiver, std::chrono::nanoseconds quiet = 0ns) {
  std::uint64_t arrived = 0;
  for (;;) {
    Frame got;
    std::string error;
    const auto r = receiver.recv(&got, quiet, &error);
    if (r != Endpoint::RecvResult::kFrame &&
        r != Endpoint::RecvResult::kCorrupt)
      return arrived;
    ++arrived;
  }
}

/// Which of `frames` node-bound sends arrived, frame by frame.
std::vector<bool> arrivals(Rig& rig, std::uint64_t frames) {
  std::vector<bool> arrived;
  for (std::uint64_t i = 0; i < frames; ++i) {
    EXPECT_EQ(rig.coordinator->send(ping(i), 1s), Endpoint::SendResult::kOk);
    arrived.push_back(drain(*rig.node_end) == 1);
  }
  return arrived;
}

TEST(Fault, SameSeedSameSchedule) {
  const FaultRates rates{.drop = 0.2, .delay = 0.0, .duplicate = 0.1,
                         .corrupt = 0.15};
  FaultStats stats[2];
  for (int run = 0; run < 2; ++run) {
    Rig rig(node_bound(rates, /*seed=*/0xabcdef));
    for (std::uint64_t i = 0; i < 500; ++i) {
      ASSERT_EQ(rig.coordinator->send(ping(i), 1s), Endpoint::SendResult::kOk);
      drain(*rig.node_end);
    }
    stats[run] = rig.controller->stats();
  }
  EXPECT_EQ(stats[0].dropped, stats[1].dropped);
  EXPECT_EQ(stats[0].duplicated, stats[1].duplicated);
  EXPECT_EQ(stats[0].corrupted, stats[1].corrupted);
  EXPECT_EQ(stats[0].forwarded, stats[1].forwarded);
  EXPECT_GT(stats[0].dropped, 0u);  // the schedule actually fired
  EXPECT_GT(stats[0].corrupted, 0u);
}

TEST(Fault, DifferentSeedsDifferentSchedules) {
  const FaultRates rates{.drop = 0.5};
  Rig one(node_bound(rates, 1));
  Rig two(node_bound(rates, 2));
  EXPECT_NE(arrivals(one, 64), arrivals(two, 64));
}

TEST(Fault, EachLinkAndIncarnationDrawsItsOwnSchedule) {
  // One config seed, many links: the decoration salts it with the node
  // id and the link epoch, so two links (or a link and its re-joined
  // incarnation) never replay each other's faults — while the same
  // (seed, node, epoch) replays exactly.
  const FaultConfig config = node_bound(FaultRates{.drop = 0.5}, 7);
  Rig base(config, true, /*node=*/1, /*epoch=*/1);
  Rig replay(config, true, /*node=*/1, /*epoch=*/1);
  Rig other_node(config, true, /*node=*/2, /*epoch=*/1);
  Rig rejoined(config, true, /*node=*/1, /*epoch=*/2);
  const std::vector<bool> schedule = arrivals(base, 64);
  EXPECT_EQ(arrivals(replay, 64), schedule);
  EXPECT_NE(arrivals(other_node, 64), schedule);
  EXPECT_NE(arrivals(rejoined, 64), schedule);
}

TEST(Fault, DropRateIsStatisticallyHonored) {
  Rig rig(node_bound(FaultRates{.drop = 0.3}, 7));
  constexpr std::uint64_t kFrames = 2000;
  std::uint64_t arrived = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(rig.coordinator->send(ping(i), 1s), Endpoint::SendResult::kOk);
    arrived += drain(*rig.node_end);
  }
  arrived += drain(*rig.node_end, 10ms);
  const FaultStats stats = rig.controller->stats();
  // Binomial(2000, 0.3): mean 600, sd ~20. Six sigma on either side.
  EXPECT_GT(stats.dropped, 480u);
  EXPECT_LT(stats.dropped, 720u);
  // Everything not dropped arrived.
  EXPECT_EQ(arrived, kFrames - stats.dropped);
}

TEST(Fault, CorruptAlwaysSurfacesAsCorruptFrames) {
  Rig rig(node_bound(FaultRates{.corrupt = 1.0}, 11));
  constexpr std::uint64_t kFrames = 50;
  std::string error;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(rig.coordinator->send(ping(i), 1s), Endpoint::SendResult::kOk);
    Frame got;
    EXPECT_EQ(rig.node_end->recv(&got, 1s, &error),
              Endpoint::RecvResult::kCorrupt)
        << "frame " << i;
  }
  EXPECT_EQ(rig.controller->stats().corrupted, kFrames);
}

TEST(Fault, DuplicateDeliversTwice) {
  Rig rig(node_bound(FaultRates{.duplicate = 1.0}, 13));
  ASSERT_EQ(rig.coordinator->send(ping(0), 1s), Endpoint::SendResult::kOk);
  std::string error;
  for (int copy = 0; copy < 2; ++copy) {
    Frame got;
    ASSERT_EQ(rig.node_end->recv(&got, 1s, &error),
              Endpoint::RecvResult::kFrame)
        << "copy " << copy << ": " << error;
    QueryBatchMsg m;
    ASSERT_TRUE(decode_query_batch(got, &m, &error)) << error;
    EXPECT_EQ(m.submission, 0u);
  }
  Frame got;
  EXPECT_EQ(rig.node_end->recv(&got, 20ms, &error),
            Endpoint::RecvResult::kTimeout);
  EXPECT_EQ(rig.controller->stats().duplicated, 1u);
}

TEST(Fault, DelayedFramesStillArrive) {
  // <= 5ms late each.
  Rig rig(node_bound(FaultRates{.delay = 1.0, .delay_ns = 5'000'000}, 17));
  constexpr std::uint64_t kFrames = 20;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    ASSERT_EQ(rig.coordinator->send(ping(i), 1s), Endpoint::SendResult::kOk);
  std::string error;
  std::uint64_t arrived = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    Frame got;
    if (rig.node_end->recv(&got, 1s, &error) == Endpoint::RecvResult::kFrame)
      ++arrived;
  }
  EXPECT_EQ(arrived, kFrames);
  EXPECT_EQ(rig.controller->stats().delayed, kFrames);
}

TEST(Fault, HealedInjectorPassesEverythingThrough) {
  // drop = 1 would eat every frame if armed.
  Rig rig(node_bound(FaultRates{.drop = 1.0}, 19), /*armed=*/false);
  ASSERT_EQ(rig.coordinator->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.node_end->recv(&got, 1s, &error),
            Endpoint::RecvResult::kFrame)
      << error;
  EXPECT_EQ(rig.controller->stats().dropped, 0u);

  // arm() turns the faucet: now the same rate eats the frame.
  rig.controller->arm();
  ASSERT_EQ(rig.coordinator->send(ping(1), 1s), Endpoint::SendResult::kOk);
  EXPECT_EQ(rig.node_end->recv(&got, 20ms, &error),
            Endpoint::RecvResult::kTimeout);

  // heal() restores the clean wire.
  rig.controller->heal();
  ASSERT_EQ(rig.coordinator->send(ping(2), 1s), Endpoint::SendResult::kOk);
  EXPECT_EQ(rig.node_end->recv(&got, 1s, &error),
            Endpoint::RecvResult::kFrame)
      << error;
}

TEST(Fault, PartitionBlackHolesEvenWhenHealed) {
  // Partition cuts the wire regardless of armed(): zero rates, healed
  // controller — and still nothing gets through until the partition
  // lifts.
  Rig rig(FaultConfig{}, /*armed=*/false);
  rig.controller->partition(true);
  ASSERT_EQ(rig.coordinator->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.node_end->recv(&got, 20ms, &error),
            Endpoint::RecvResult::kTimeout);
  EXPECT_EQ(rig.controller->stats().dropped, 1u);

  rig.controller->partition(false);
  ASSERT_EQ(rig.coordinator->send(ping(1), 1s), Endpoint::SendResult::kOk);
  EXPECT_EQ(rig.node_end->recv(&got, 1s, &error),
            Endpoint::RecvResult::kFrame)
      << error;

  // heal() also lifts a partition (the one-call "make it all stop").
  rig.controller->partition(true);
  rig.controller->heal();
  EXPECT_FALSE(rig.controller->partitioned());
}

TEST(Fault, OneDecorationCoversBothDirections) {
  FaultConfig config;
  config.seed = 31;
  config.to_node.corrupt = 1.0;
  config.to_coordinator.drop = 1.0;
  Rig rig(config);

  // coordinator -> node: corrupted on the way out.
  ASSERT_EQ(rig.coordinator->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.node_end->recv(&got, 1s, &error),
            Endpoint::RecvResult::kCorrupt);

  // node -> coordinator: dropped at intake.
  ASSERT_EQ(rig.node_end->send(ping(1), 1s), Endpoint::SendResult::kOk);
  EXPECT_EQ(rig.coordinator->recv(&got, 20ms, &error),
            Endpoint::RecvResult::kTimeout);

  const FaultStats stats = rig.controller->stats();
  EXPECT_EQ(stats.corrupted, 1u);
  EXPECT_EQ(stats.dropped, 1u);
}

// --- Intake: the node -> coordinator direction -----------------------------

TEST(Fault, IntakeDropSwallowsArrivals) {
  Rig rig(coordinator_bound(FaultRates{.drop = 1.0}));
  ASSERT_EQ(rig.node_end->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.coordinator->recv(&got, 30ms, &error),
            Endpoint::RecvResult::kTimeout);
  EXPECT_EQ(rig.controller->stats().dropped, 1u);
}

TEST(Fault, IntakeCorruptSurfacesAndStreamStaysClean) {
  Rig rig(coordinator_bound(FaultRates{.corrupt = 1.0}));
  ASSERT_EQ(rig.node_end->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.coordinator->recv(&got, 1s, &error),
            Endpoint::RecvResult::kCorrupt);
  EXPECT_FALSE(error.empty());
  // Heal: the next frame arrives intact — intake damage never wedges
  // the framing.
  rig.controller->heal();
  ASSERT_EQ(rig.node_end->send(ping(1), 1s), Endpoint::SendResult::kOk);
  ASSERT_EQ(rig.coordinator->recv(&got, 1s, &error),
            Endpoint::RecvResult::kFrame)
      << error;
  QueryBatchMsg m;
  ASSERT_TRUE(decode_query_batch(got, &m, &error)) << error;
  EXPECT_EQ(m.submission, 1u);
}

TEST(Fault, IntakeDuplicateDeliversTwice) {
  Rig rig(coordinator_bound(FaultRates{.duplicate = 1.0}));
  ASSERT_EQ(rig.node_end->send(ping(0), 1s), Endpoint::SendResult::kOk);
  std::string error;
  for (int copy = 0; copy < 2; ++copy) {
    Frame got;
    ASSERT_EQ(rig.coordinator->recv(&got, 1s, &error),
              Endpoint::RecvResult::kFrame)
        << "copy " << copy << ": " << error;
    QueryBatchMsg m;
    ASSERT_TRUE(decode_query_batch(got, &m, &error)) << error;
    EXPECT_EQ(m.submission, 0u);
  }
  Frame got;
  EXPECT_EQ(rig.coordinator->recv(&got, 20ms, &error),
            Endpoint::RecvResult::kTimeout);
  EXPECT_EQ(rig.controller->stats().duplicated, 1u);
}

TEST(Fault, IntakeDelayedFramesStillArrive) {
  Rig rig(coordinator_bound(FaultRates{.delay = 1.0, .delay_ns = 5'000'000}));
  constexpr std::uint64_t kFrames = 20;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    ASSERT_EQ(rig.node_end->send(ping(i), 1s), Endpoint::SendResult::kOk);
  std::string error;
  std::uint64_t arrived = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    Frame got;
    if (rig.coordinator->recv(&got, 1s, &error) ==
        Endpoint::RecvResult::kFrame)
      ++arrived;
  }
  EXPECT_EQ(arrived, kFrames);
  EXPECT_EQ(rig.controller->stats().delayed, kFrames);
}

TEST(Fault, IntakeRatesLeaveOutgoingFramesAlone) {
  // Coordinator-bound rates perturb arrivals only: the coordinator's
  // own sends take the node-bound rates, zero here.
  Rig rig(coordinator_bound(FaultRates{.drop = 1.0}));
  ASSERT_EQ(rig.coordinator->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.node_end->recv(&got, 1s, &error),
            Endpoint::RecvResult::kFrame)
      << error;
  EXPECT_EQ(rig.controller->stats().dropped, 0u);
}

TEST(Fault, IntakePartitionBlackHolesArrivals) {
  Rig rig(FaultConfig{});
  rig.controller->partition(true);
  ASSERT_EQ(rig.node_end->send(ping(0), 1s), Endpoint::SendResult::kOk);
  Frame got;
  std::string error;
  EXPECT_EQ(rig.coordinator->recv(&got, 30ms, &error),
            Endpoint::RecvResult::kTimeout);
  rig.controller->partition(false);
  ASSERT_EQ(rig.node_end->send(ping(1), 1s), Endpoint::SendResult::kOk);
  EXPECT_EQ(rig.coordinator->recv(&got, 1s, &error),
            Endpoint::RecvResult::kFrame)
      << error;
}

TEST(Fault, StatsCountPerDirectionIntoOneTotal) {
  FaultConfig config;
  config.seed = 37;
  config.to_node.drop = 1.0;
  config.to_coordinator.drop = 1.0;
  Rig rig(config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(rig.coordinator->send(ping(i), 1s), Endpoint::SendResult::kOk);
    ASSERT_EQ(rig.node_end->send(ping(i), 1s), Endpoint::SendResult::kOk);
  }
  EXPECT_EQ(drain(*rig.coordinator, 20ms), 0u);
  const FaultStats stats = rig.controller->stats();
  EXPECT_EQ(stats.dropped, 10u);
  EXPECT_EQ(stats.forwarded, 0u);
  EXPECT_EQ(stats.corrupted, 0u);
}

TEST(FaultDeath, DelayRateNeedsALatenessBound) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FaultConfig config = coordinator_bound(FaultRates{.delay = 0.5});
  config.to_coordinator.delay_ns = 0;
  EXPECT_DEATH(Rig{config}, "delay_ns = 0");
}

}  // namespace
}  // namespace dici::net
