#include "src/cluster/coordinator.hpp"

#include <algorithm>
#include <iterator>

namespace dici::cluster {

Coordinator::Coordinator(const ClusterConfig& config)
    : num_nodes_(config.num_nodes),
      replicate_(config.placement == index::Placement::kReplicate),
      failover_(config.failover),
      max_retries_(config.max_retries),
      retry_backoff_us_(config.retry_backoff_us),
      membership_(config.num_nodes),
      epochs_(config.num_nodes, 1) {}

std::uint64_t Coordinator::open() {
  subs_.emplace(next_sub_, Submission{});
  return next_sub_++;
}

void Coordinator::submit(std::uint64_t sub, std::uint32_t shard,
                         TimePoint now, Actions* out) {
  const auto it = subs_.find(sub);
  if (it == subs_.end()) return;
  it->second.chunks.push_back({.shard = shard});
  ++it->second.open_chunks;
  route(it, static_cast<std::uint32_t>(it->second.chunks.size() - 1),
        Event::kNew, now, out);
}

void Coordinator::seal(std::uint64_t sub, Actions* out) {
  const auto it = subs_.find(sub);
  if (it == subs_.end()) return;
  it->second.sealed = true;
  complete_if_done(it, out);
}

Coordinator::Reply Coordinator::on_reply(std::uint32_t node,
                                         std::uint32_t epoch,
                                         std::uint64_t sub,
                                         std::uint32_t chunk, bool well_formed,
                                         TimePoint now, Actions* out) {
  if (epoch != epochs_[node] || !alive(node)) return Reply::kIgnored;
  const auto it = subs_.find(sub);
  if (it == subs_.end() || chunk >= it->second.chunks.size() ||
      it->second.chunks[chunk].done)
    return Reply::kIgnored;
  if (!well_formed) {
    // The checksum passed, so this is a protocol breach, not wire
    // damage: stop trusting the node. The chunk moves with its others.
    on_node_dead(node, now, out);
    return Reply::kBreach;
  }
  // The ranks are global, so a late answer from the chunk's previous
  // assignment claims it as well as one from its current.
  it->second.chunks[chunk].done = true;
  --it->second.open_chunks;
  out->push_back({.kind = Action::Kind::kClaim, .sub = sub, .chunk = chunk,
                  .node = node});
  complete_if_done(it, out);
  return Reply::kClaimed;
}

void Coordinator::on_tick(TimePoint now, Actions* out) {
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    const std::vector<Chunk>& chunks = it->second.chunks;
    for (std::uint32_t c = 0; c < chunks.size(); ++c)
      if (!chunks[c].done && now >= chunks[c].next_retry)
        route(it, c, Event::kDue, now, out);  // kDue never writes off
  }
}

bool Coordinator::on_node_dead(std::uint32_t node, TimePoint now,
                               Actions* out) {
  if (membership_.status(node) == NodeStatus::kDead) return false;
  membership_.transition(node, NodeStatus::kDead);
  ++epochs_[node];
  for (auto it = subs_.begin(); it != subs_.end();) {
    const auto next = std::next(it);
    const std::vector<Chunk>& chunks = it->second.chunks;
    for (std::uint32_t c = 0; c < chunks.size(); ++c)
      if (!chunks[c].done && chunks[c].node == node &&
          !route(it, c, Event::kDead, now, out))
        break;  // written off: `it` is gone
    it = next;
  }
  return true;
}

void Coordinator::on_rejoin(std::uint32_t node) {
  membership_.transition(node, NodeStatus::kAlive);
}

const std::vector<Coordinator::Chunk>* Coordinator::chunks(
    std::uint64_t sub) const {
  const auto it = subs_.find(sub);
  return it == subs_.end() ? nullptr : &it->second.chunks;
}

/// A live node holding `shard`, preferring any but `exclude`, or kNone.
/// Under kReplicate every node holds everything, so the scan round-robins
/// the live nodes and falls back to `exclude` only when it is the last
/// one. Otherwise shard s lives on node s % num_nodes alone.
std::uint32_t Coordinator::pick_target(std::uint32_t shard,
                                       std::uint32_t exclude) {
  if (!replicate_) {
    const std::uint32_t owner = shard % num_nodes_;
    return alive(owner) ? owner : kNone;
  }
  const std::uint64_t start = cursor_++;
  std::uint32_t fallback = kNone;
  for (std::uint32_t k = 0; k < num_nodes_; ++k) {
    const auto n = static_cast<std::uint32_t>((start + k) % num_nodes_);
    if (!alive(n)) continue;
    if (n != exclude) return n;
    fallback = n;
  }
  return fallback;
}

/// The one routing decision (policy in the header): kNew sends chunk `c`
/// to a live holder; kDue re-sends it to its node, or hops once retries
/// are exhausted; kDead moves it off its dead node. With no holder left
/// it is written off, which fails and erases the submission: false then.
bool Coordinator::route(SubIter it, std::uint32_t c, Event event,
                        TimePoint now, Actions* out) {
  Chunk& chunk = it->second.chunks[c];
  std::uint32_t target = chunk.node;
  Cause cause = Cause::kRetry;
  if (event == Event::kNew) {
    target = pick_target(chunk.shard, kNone);
    cause = Cause::kFirst;
  } else if (event == Event::kDead) {
    target = failover_ ? pick_target(chunk.shard, chunk.node) : kNone;
    cause = Cause::kFailover;
  } else if (chunk.attempts > max_retries_ && failover_ &&
             chunk.hops < num_nodes_) {
    const std::uint32_t other = pick_target(chunk.shard, chunk.node);
    if (other != kNone && other != chunk.node) {
      target = other;
      cause = Cause::kFailover;
      ++chunk.hops;
    }
  }
  if (target == kNone) {
    const std::uint32_t blame = event == Event::kDead ? chunk.node
                                : replicate_ ? 0
                                             : chunk.shard % num_nodes_;
    out->push_back({.kind = Action::Kind::kFail, .sub = it->first, .chunk = c,
                    .node = blame});
    subs_.erase(it);
    return false;
  }
  if (cause == Cause::kRetry) {
    ++chunk.attempts;
  } else {
    chunk.node = target;
    chunk.attempts = 1;
  }
  // Backoff base * 2^(attempts-1), the exponent capped at max_retries
  // and at 6, so a long outage polls rather than overflows.
  const std::uint32_t shift =
      std::min({chunk.attempts - 1, max_retries_, 6u});
  chunk.next_retry = now + std::chrono::microseconds(
                               std::uint64_t{retry_backoff_us_} << shift);
  out->push_back({.kind = Action::Kind::kSend, .cause = cause,
                  .sub = it->first, .chunk = c, .node = target,
                  .epoch = epochs_[target]});
  return true;
}

void Coordinator::complete_if_done(SubIter it, Actions* out) {
  if (!it->second.sealed || it->second.open_chunks != 0) return;
  out->push_back({.kind = Action::Kind::kComplete, .sub = it->first});
  subs_.erase(it);
}

}  // namespace dici::cluster
