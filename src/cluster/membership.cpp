#include "src/cluster/membership.hpp"

#include "src/util/assert.hpp"

namespace dici::cluster {

const char* node_status_name(NodeStatus status) {
  switch (status) {
    case NodeStatus::kNull:
      return "NULL";
    case NodeStatus::kJoining:
      return "JOINING";
    case NodeStatus::kAck:
      return "ACK";
    case NodeStatus::kAlive:
      return "ALIVE";
    case NodeStatus::kDead:
      return "DEAD";
  }
  return "?";
}

bool node_status_valid(std::uint8_t raw) {
  return raw <= static_cast<std::uint8_t>(NodeStatus::kDead);
}

bool can_transition(NodeStatus from, NodeStatus to) {
  if (from == to) return true;  // idempotent re-report
  switch (to) {
    case NodeStatus::kNull:
      return false;  // a node never un-exists
    case NodeStatus::kJoining:
      // First contact, or a dead node re-joining.
      return from == NodeStatus::kNull || from == NodeStatus::kDead;
    case NodeStatus::kAck:
      return from == NodeStatus::kJoining;
    case NodeStatus::kAlive:
      return from == NodeStatus::kAck;
    case NodeStatus::kDead:
      // Death is reachable from anywhere past first contact.
      return from != NodeStatus::kNull;
  }
  return false;
}

Membership::Membership(std::uint32_t num_nodes) : nodes_(num_nodes) {
  DICI_CHECK_FMT(num_nodes >= 1,
                 "Membership: num_nodes = %u: a cluster needs at least one "
                 "serving node",
                 num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) nodes_[i].id = i;
}

NodeStatus Membership::status(std::uint32_t node) const {
  DICI_CHECK_FMT(node < nodes_.size(), "Membership: node %u of %zu", node,
                 nodes_.size());
  return nodes_[node].status;
}

const NodeInfo& Membership::info(std::uint32_t node) const {
  DICI_CHECK_FMT(node < nodes_.size(), "Membership: node %u of %zu", node,
                 nodes_.size());
  return nodes_[node];
}

void Membership::transition(std::uint32_t node, NodeStatus to) {
  DICI_CHECK_FMT(node < nodes_.size(), "Membership: node %u of %zu", node,
                 nodes_.size());
  NodeInfo& info = nodes_[node];
  DICI_CHECK_FMT(can_transition(info.status, to),
                 "Membership: node %u: invalid transition %s -> %s", node,
                 node_status_name(info.status), node_status_name(to));
  // A re-join starts a fresh life: whatever replicas the dead
  // incarnation held are gone until a new build scatter lands.
  if (info.status == NodeStatus::kDead && to == NodeStatus::kJoining)
    info.shards = 0;
  info.status = to;
}

void Membership::set_shards(std::uint32_t node, std::uint32_t shards) {
  DICI_CHECK_FMT(node < nodes_.size(), "Membership: node %u of %zu", node,
                 nodes_.size());
  nodes_[node].shards = shards;
}

std::uint32_t Membership::alive_count() const {
  std::uint32_t count = 0;
  for (const NodeInfo& info : nodes_)
    if (info.status == NodeStatus::kAlive) ++count;
  return count;
}

std::vector<net::ClusterInfoEntry> Membership::to_entries() const {
  std::vector<net::ClusterInfoEntry> entries;
  entries.reserve(nodes_.size());
  for (const NodeInfo& info : nodes_) {
    entries.push_back({info.id, static_cast<std::uint8_t>(info.status),
                       info.shards});
  }
  return entries;
}

bool Membership::apply_entries(
    const std::vector<net::ClusterInfoEntry>& entries) {
  for (const net::ClusterInfoEntry& entry : entries) {
    if (entry.node_id >= nodes_.size() || !node_status_valid(entry.status))
      return false;
  }
  for (const net::ClusterInfoEntry& entry : entries) {
    NodeInfo& info = nodes_[entry.node_id];
    info.status = static_cast<NodeStatus>(entry.status);
    info.shards = entry.shards;
  }
  return true;
}

}  // namespace dici::cluster
