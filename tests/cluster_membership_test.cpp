// The membership state machine in isolation: the full can_transition
// table (legal ladder edges, every illegal edge death-tested), the
// join -> ack -> alive ordering, re-join from
// DEAD, and the wire round trip of the broadcast cluster-info table.
#include "src/cluster/membership.hpp"

#include <gtest/gtest.h>

namespace dici::cluster {
namespace {

constexpr NodeStatus kAll[] = {NodeStatus::kNull, NodeStatus::kJoining,
                               NodeStatus::kAck, NodeStatus::kAlive,
                               NodeStatus::kDead};

// --- The transition table, exhaustively -----------------------------------

TEST(Membership, TransitionTableExactlyMatchesTheLadder) {
  auto legal = [](NodeStatus from, NodeStatus to) {
    if (from == to) return true;  // no-op self edges always allowed
    switch (to) {
      case NodeStatus::kNull: return false;  // nothing returns to null
      case NodeStatus::kJoining:
        // First contact, or a re-join after death.
        return from == NodeStatus::kNull || from == NodeStatus::kDead;
      case NodeStatus::kAck: return from == NodeStatus::kJoining;
      case NodeStatus::kAlive: return from == NodeStatus::kAck;
      case NodeStatus::kDead: return from != NodeStatus::kNull;
    }
    return false;
  };
  for (const NodeStatus from : kAll)
    for (const NodeStatus to : kAll)
      EXPECT_EQ(can_transition(from, to), legal(from, to))
          << node_status_name(from) << " -> " << node_status_name(to);
}

TEST(MembershipDeath, IllegalEdgesAbortNamingNodeAndStatuses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    Membership m(3);
    // Straight to ALIVE without joining: the diagnostic names the node
    // and both statuses.
    EXPECT_DEATH(m.transition(2, NodeStatus::kAlive), "node 2");
  }
  {
    Membership m(3);
    m.transition(0, NodeStatus::kJoining);
    EXPECT_DEATH(m.transition(0, NodeStatus::kAlive), "JOINING -> ALIVE");
  }
  {
    // A dead node cannot be resurrected without a fresh join handshake.
    Membership m(2);
    m.transition(1, NodeStatus::kJoining);
    m.transition(1, NodeStatus::kDead);
    EXPECT_DEATH(m.transition(1, NodeStatus::kAlive), "DEAD -> ALIVE");
  }
}

// --- Join / ack ordering --------------------------------------------------

TEST(Membership, JoinAckAliveLadderAndAliveCount) {
  Membership m(3);
  EXPECT_EQ(m.alive_count(), 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m.status(i), NodeStatus::kNull);
    m.transition(i, NodeStatus::kJoining);
    m.transition(i, NodeStatus::kAck);
  }
  EXPECT_EQ(m.alive_count(), 0u);  // acked but not yet serving
  m.transition(0, NodeStatus::kAlive);
  m.transition(2, NodeStatus::kAlive);
  EXPECT_EQ(m.alive_count(), 2u);
  EXPECT_EQ(m.status(1), NodeStatus::kAck);
  m.set_shards(0, 4);
  EXPECT_EQ(m.info(0).shards, 4u);
}

TEST(Membership, SameStatusTransitionIsNoOp) {
  // Two failure detectors may both report one death; the second report
  // must be harmless.
  Membership m(1);
  m.transition(0, NodeStatus::kJoining);
  m.transition(0, NodeStatus::kDead);
  m.transition(0, NodeStatus::kDead);
  EXPECT_EQ(m.status(0), NodeStatus::kDead);
}

TEST(Membership, ReJoinAfterDeathResetsShards) {
  Membership m(2);
  m.transition(0, NodeStatus::kJoining);
  m.transition(0, NodeStatus::kAck);
  m.transition(0, NodeStatus::kAlive);
  m.set_shards(0, 3);
  m.transition(0, NodeStatus::kDead);
  // The re-join edge: a dead node's fresh join request starts a clean
  // life — its old shard assignment is gone.
  m.transition(0, NodeStatus::kJoining);
  EXPECT_EQ(m.status(0), NodeStatus::kJoining);
  EXPECT_EQ(m.info(0).shards, 0u);
  m.transition(0, NodeStatus::kAck);
  m.transition(0, NodeStatus::kAlive);
  EXPECT_EQ(m.alive_count(), 1u);
}

// --- The broadcast table round trip ---------------------------------------

TEST(Membership, ToEntriesApplyEntriesRoundTrip) {
  Membership coordinator(3);
  coordinator.transition(0, NodeStatus::kJoining);
  coordinator.transition(0, NodeStatus::kAck);
  coordinator.transition(0, NodeStatus::kAlive);
  coordinator.set_shards(0, 2);
  coordinator.transition(1, NodeStatus::kJoining);
  coordinator.transition(2, NodeStatus::kJoining);
  coordinator.transition(2, NodeStatus::kDead);

  // A node mirrors the coordinator's view from the broadcast.
  Membership node(3);
  ASSERT_TRUE(node.apply_entries(coordinator.to_entries()));
  EXPECT_EQ(node.status(0), NodeStatus::kAlive);
  EXPECT_EQ(node.info(0).shards, 2u);
  EXPECT_EQ(node.status(1), NodeStatus::kJoining);
  EXPECT_EQ(node.status(2), NodeStatus::kDead);
}

TEST(Membership, ApplyEntriesRejectsCorruptTableAllOrNothing) {
  Membership m(2);
  {
    // Out-of-range node id.
    std::vector<net::ClusterInfoEntry> entries = {
        {0, static_cast<std::uint8_t>(NodeStatus::kAlive), 1},
        {7, static_cast<std::uint8_t>(NodeStatus::kAlive), 1}};
    EXPECT_FALSE(m.apply_entries(entries));
  }
  {
    // Invalid status byte.
    std::vector<net::ClusterInfoEntry> entries = {
        {0, static_cast<std::uint8_t>(NodeStatus::kAlive), 1}, {1, 99, 0}};
    EXPECT_FALSE(m.apply_entries(entries));
  }
  // Both rejections were all-or-nothing: the valid first row was NOT
  // applied either.
  EXPECT_EQ(m.status(0), NodeStatus::kNull);
  EXPECT_EQ(m.status(1), NodeStatus::kNull);
}

TEST(Membership, StatusNamesAndValidity) {
  EXPECT_STREQ(node_status_name(NodeStatus::kJoining), "JOINING");
  EXPECT_STREQ(node_status_name(NodeStatus::kDead), "DEAD");
  EXPECT_TRUE(node_status_valid(0));
  EXPECT_TRUE(node_status_valid(4));
  EXPECT_FALSE(node_status_valid(5));
  EXPECT_FALSE(node_status_valid(255));
}

}  // namespace
}  // namespace dici::cluster
