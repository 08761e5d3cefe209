// Cluster membership — the coordinator's node table, modeled on the
// pocv2/Pilevisor cluster ports (SNIPPETS.md): a `cluster_node` array
// with an explicit status ladder, a join handshake, and a broadcast
// cluster-info map every node mirrors.
//
// Status ladder (one node's life):
//
//   kNull ──join request──▶ kJoining ──join ack──▶ kAck
//     kAck ──build ack──▶ kAlive
//     kJoining | kAck | kAlive ──timeout / link closed──▶ kDead
//     kDead ──new join request──▶ kJoining          (re-join)
//
// Every other edge is invalid and aborts with a diagnostic naming the
// node, the current status, and the attempted one
// (cluster_membership_test death-tests the table). The DEAD edge is the
// one that matters operationally: heartbeat timeouts route through it,
// and the coordinator (Coordinator::on_node_dead, the only path there)
// bumps the node's epoch and moves or writes off its in-flight chunks.
//
// This class is plain data + transition rules: no locks (the owner
// serializes access — the Coordinator under the cluster index's mutex,
// a node on its single service thread), no I/O (the wire encoding of
// the broadcast table lives in net/wire.hpp; to_entries/apply_entries
// convert).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/wire.hpp"

namespace dici::cluster {

enum class NodeStatus : std::uint8_t {
  kNull = 0,    ///< slot exists, node has not contacted us
  kJoining = 1, ///< join request received, ack not yet sent
  kAck = 2,     ///< join acked; node may receive build traffic
  kAlive = 3,   ///< build acked / heartbeating; serves queries
  kDead = 4,    ///< heartbeat timeout or link failure
};

const char* node_status_name(NodeStatus status);
bool node_status_valid(std::uint8_t raw);

/// Is `from -> to` a legal edge of the status ladder above?
bool can_transition(NodeStatus from, NodeStatus to);

struct NodeInfo {
  std::uint32_t id = 0;
  NodeStatus status = NodeStatus::kNull;
  std::uint32_t shards = 0;  ///< shard replicas assigned to this node
};

class Membership {
 public:
  explicit Membership(std::uint32_t num_nodes);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  NodeStatus status(std::uint32_t node) const;
  const NodeInfo& info(std::uint32_t node) const;

  /// Walk one edge of the status ladder; aborts (with node, from, to in
  /// the diagnostic) on any edge can_transition rejects. Same-status
  /// "transitions" are no-ops so racing failure detectors may both
  /// report a death.
  void transition(std::uint32_t node, NodeStatus to);

  void set_shards(std::uint32_t node, std::uint32_t shards);

  /// How many nodes currently serve (kAlive).
  std::uint32_t alive_count() const;

  /// The broadcast cluster-info map (wire form).
  std::vector<net::ClusterInfoEntry> to_entries() const;

  /// A node applying a received broadcast: overwrites local statuses
  /// with the coordinator's view. Entries whose id is out of range or
  /// whose status byte is invalid are rejected (returns false, table
  /// untouched).
  bool apply_entries(const std::vector<net::ClusterInfoEntry>& entries);

 private:
  std::vector<NodeInfo> nodes_;
};

}  // namespace dici::cluster
