// The cluster Coordinator under deterministic simulation.
//
// Each seed draws a small cluster (1-4 nodes, replicated or sharded,
// failover on or off, 0-3 retries) and a fault schedule, then drives a
// Coordinator through it on a virtual clock: submissions arrive chunk by
// chunk, every frame is dropped, duplicated, delayed or reordered, nodes
// crash (found dead a heartbeat timeout later), are failed on the spot,
// answer with a malformed reply, and re-join, at any step. Sim nodes
// answer with std::upper_bound over the shards they hold. Every step is
// checked against the invariants:
//   * every submission completes or fails exactly once, and a complete
//     one has the exact rank of every query;
//   * a submission fails only when no live node holds the written-off
//     chunk's shard, or failover is off;
//   * no chunk is claimed twice, and no reply is claimed from a node's
//     life that has since been declared dead (its epoch is stale);
//   * chunks are sent only to live holders of their shard, and an open
//     chunk is never left on a dead node;
//   * a chunk hops at most num_nodes times;
//   * a delay-only schedule whose round trips stay below
//     retry_backoff_us fires no retry.
// The seeds start at DICI_FAULT_SEED (default 1). A failing seed is
// printed; replay it with DICI_FAULT_SEED=<seed>, where it runs first,
// and keep it in kRegressionSeeds below.
#include "src/cluster/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/net/wire.hpp"
#include "src/util/rng.hpp"

namespace dici::cluster {
namespace {

using Action = Coordinator::Action;
using Kind = Action::Kind;
using TimePoint = Coordinator::TimePoint;
using std::chrono::microseconds;

/// Seeds kept because they once broke an invariant, each with what it
/// caught. Every one runs on every ctest run, whatever DICI_FAULT_SEED.
/// The first six are the first seed to catch each of six bugs planted
/// in the Coordinator while the simulator was checked for teeth.
constexpr std::pair<std::uint64_t, const char*> kRegressionSeeds[] = {
    {1, "a retry due before its backoff ran out"},
    {2, "a dead node's open chunks left on it"},
    {3, "a duplicated reply claimed a second time"},
    {7, "a death writing off a chunk a live replica holds"},
    {23, "a chunk hopping between suspect nodes past num_nodes"},
    {608, "a reply sent before a death claimed after the re-join"},
};

/// What a run exercised, so a sweep can show it reached every path.
struct Tally {
  std::uint64_t retries = 0, failovers = 0, claims = 0, duplicates = 0,
                stale = 0, breaches = 0, completes = 0, fails = 0,
                deaths = 0, rejoins = 0;

  void add(const Tally& t) {
    retries += t.retries, failovers += t.failovers, claims += t.claims;
    duplicates += t.duplicates, stale += t.stale, breaches += t.breaches;
    completes += t.completes, fails += t.fails, deaths += t.deaths;
    rejoins += t.rejoins;
  }
};

class Sim {
 public:
  explicit Sim(std::uint64_t seed) : rng_(seed) {
    cfg_.num_nodes = 1 + static_cast<std::uint32_t>(rng_.below(4));
    cfg_.placement = rng_.below(2) == 0 ? index::Placement::kReplicate
                                        : index::Placement::kInterleave;
    cfg_.failover = rng_.below(8) != 0;
    cfg_.max_retries = static_cast<std::uint32_t>(rng_.below(4));
    cfg_.retry_backoff_us =
        1000 * (1 + static_cast<std::uint32_t>(rng_.below(3)));
    replicate_ = cfg_.placement == index::Placement::kReplicate;
    shards_ = replicate_ ? 1
                         : 1 + static_cast<std::uint32_t>(
                                   rng_.below(2 * cfg_.num_nodes));
    // One seed in eight is delay-only: every hop stays under half the
    // backoff, so no answer can be overdue.
    delay_only_ = rng_.below(8) == 0;
    if (!delay_only_) {
      drop_ = 0.3 * rng_.uniform01();
      duplicate_ = 0.3 * rng_.uniform01();
      lie_ = rng_.below(4) == 0 ? 0.05 * rng_.uniform01() : 0.0;
    }
    core_ = std::make_unique<Coordinator>(cfg_);
    nodes_.resize(cfg_.num_nodes);

    // Sorted unique keys, cut into equal shards by count.
    std::vector<key_t> keys(32 + rng_.below(200));
    for (key_t& k : keys) k = static_cast<key_t>(rng_.below(1u << 16));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    keys_ = std::move(keys);
    shards_ = std::min<std::uint32_t>(shards_, keys_.size());
    for (std::uint32_t s = 0; s <= shards_; ++s)
      cuts_.push_back(keys_.size() * s / shards_);
  }

  /// Run the seed to its end: empty when every invariant held, else the
  /// first one broken.
  std::string run() {
    // The build: every node walks the join ladder.
    for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) join(n);
    const std::int64_t horizon = 30'000;  // us of faults, then a drain
    const auto subs = 1 + rng_.below(6);
    for (std::uint64_t k = 0; k < subs; ++k)
      at(static_cast<std::int64_t>(rng_.below(horizon)), {.kind = Ev::kOpen});
    if (!delay_only_) {
      for (auto k = rng_.below(4); k > 0; --k)
        at(rng_.below(horizon), {.kind = Ev::kCrash, .node = node_draw()});
      for (auto k = rng_.below(3); k > 0; --k)
        at(rng_.below(horizon), {.kind = Ev::kKill, .node = node_draw()});
      for (auto k = rng_.below(5); k > 0; --k)
        at(rng_.below(horizon), {.kind = Ev::kRejoin, .node = node_draw()});
    }
    const std::int64_t tick =
        std::clamp<std::int64_t>(cfg_.retry_backoff_us / 2, 500, 10'000);
    at(tick, {.kind = Ev::kTick});
    while (error_.empty() && !events_.empty()) {
      auto first = events_.begin();
      now_us_ = first->first.first;
      Event ev = std::move(first->second);
      events_.erase(first);
      if (now_us_ >= horizon) draining_ = true;
      if (now_us_ > horizon + 60'000'000)
        return "a submission never finished";
      step(ev, tick);
      check_ledgers();
      if (draining_ && opened_ == subs && all_terminal()) break;
    }
    if (error_.empty() && !all_terminal())
      error_ = "the run ended with a submission unfinished";
    return error_;
  }

  const Tally& tally() const { return tally_; }

 private:
  enum class Ev : std::uint8_t {
    kOpen, kChunk, kSeal, kTick, kToNode, kToCoordinator, kCrash, kDetect,
    kKill, kRejoin,
  };
  struct Event {
    Ev kind;
    std::uint32_t node = 0;
    std::size_t sub = 0;  ///< index into subs_
    std::uint32_t chunk = 0;
    std::uint32_t epoch = 0;
    std::uint32_t life = 0;  ///< the node's deaths when the frame left
    bool well_formed = true;
    std::vector<rank_t> ranks = {};
  };
  struct SimNode {
    bool up = false;         ///< its process runs and its link is open
    std::uint32_t epoch = 0; ///< learned from its join ladder
    std::uint32_t life = 0;  ///< deaths the coordinator declared so far
  };
  struct SimSub {
    std::uint64_t id = 0;
    std::vector<key_t> queries;
    std::vector<std::vector<std::uint32_t>> chunk_ids;
    std::vector<std::uint32_t> chunk_shard;
    std::vector<rank_t> out;
    std::vector<bool> claimed;
    bool terminal = false;
  };

  std::uint32_t node_draw() {
    return static_cast<std::uint32_t>(rng_.below(cfg_.num_nodes));
  }
  TimePoint now() const { return TimePoint{} + microseconds(now_us_); }
  void at(std::int64_t t, Event ev) {
    events_.emplace(std::make_pair(t, seq_++), std::move(ev));
  }
  void fail(const std::string& what) {
    if (error_.empty())
      error_ = "t=" + std::to_string(now_us_) + "us: " + what;
  }

  std::uint32_t shard_of(key_t q) const {
    if (replicate_) return net::kGlobalShard;
    std::uint32_t s = 0;
    while (s + 1 < shards_ && keys_[cuts_[s + 1]] <= q) ++s;
    return s;
  }
  bool holds(std::uint32_t node, std::uint32_t shard) const {
    return replicate_ || shard % cfg_.num_nodes == node;
  }
  bool live_holder(std::uint32_t shard) {
    for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n)
      if (holds(n, shard) &&
          core_->membership().status(n) == NodeStatus::kAlive)
        return true;
    return false;
  }
  rank_t reference(key_t q) const {
    return static_cast<rank_t>(
        std::upper_bound(keys_.begin(), keys_.end(), q) - keys_.begin());
  }
  /// What a node answers: upper_bound over the shard, at its offset.
  rank_t answer(std::uint32_t shard, key_t q) const {
    const std::size_t begin = replicate_ ? 0 : cuts_[shard];
    const std::size_t end = replicate_ ? keys_.size() : cuts_[shard + 1];
    return static_cast<rank_t>(
        std::upper_bound(keys_.begin() + begin, keys_.begin() + end, q) -
        keys_.begin());
  }

  /// A frame on the wire: dropped, duplicated or late as the schedule
  /// says, never lost or slow while draining.
  void transmit(Event ev) {
    const bool faults = !draining_ && !delay_only_;
    if (faults && rng_.uniform01() < drop_) return;
    const int copies = faults && rng_.uniform01() < duplicate_ ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      const std::int64_t half_backoff = cfg_.retry_backoff_us / 2;
      std::int64_t latency = 20 + rng_.below(100);
      if (delay_only_) latency = 1 + rng_.below(half_backoff - 1);
      else if (faults && rng_.below(4) == 0)
        latency += rng_.below(3 * cfg_.retry_backoff_us);
      at(now_us_ + latency, ev);
    }
  }

  void join(std::uint32_t n) {
    core_->membership().transition(n, NodeStatus::kJoining);
    if (!draining_ && !delay_only_ && now_us_ > 0 && rng_.below(4) == 0) {
      declare_dead(n);  // the ladder broke off: back to DEAD
      return;
    }
    core_->membership().transition(n, NodeStatus::kAck);
    core_->on_rejoin(n);
    if (now_us_ > 0) ++tally_.rejoins;
    nodes_[n].up = true;
    nodes_[n].epoch = core_->epoch(n);
  }

  void declare_dead(std::uint32_t n) {
    if (core_->on_node_dead(n, now(), &actions_)) {
      ++nodes_[n].life;
      ++tally_.deaths;
      // Often back soon, while frames of its old life are still about.
      if (!draining_ && rng_.below(2) == 0)
        at(now_us_ + rng_.below(3000), {.kind = Ev::kRejoin, .node = n});
    }
    nodes_[n].up = false;  // ClusterIndex closes the link
    perform();
  }

  void step(Event& ev, std::int64_t tick) {
    switch (ev.kind) {
      case Ev::kOpen: {
        open_submission();
        break;
      }
      case Ev::kChunk:
        core_->submit(subs_[ev.sub].id, subs_[ev.sub].chunk_shard[ev.chunk],
                      now(), &actions_);
        perform();
        break;
      case Ev::kSeal:
        core_->seal(subs_[ev.sub].id, &actions_);
        perform();
        break;
      case Ev::kTick:
        core_->on_tick(now(), &actions_);
        perform();
        at(now_us_ + tick + static_cast<std::int64_t>(rng_.below(tick / 4 + 1)),
           {.kind = Ev::kTick});
        break;
      case Ev::kToNode: {
        SimNode& node = nodes_[ev.node];
        // A frame reaches only the life it was sent to, while it runs.
        if (!node.up || node.life != ev.life) break;
        if (!holds(ev.node, subs_[ev.sub].chunk_shard[ev.chunk])) {
          fail("node " + std::to_string(ev.node) + " got a chunk of a shard "
               "it does not hold");
          break;
        }
        const SimSub& sub = subs_[ev.sub];
        Event reply{.kind = Ev::kToCoordinator, .node = ev.node, .sub = ev.sub,
                    .chunk = ev.chunk, .epoch = node.epoch, .life = node.life};
        for (const std::uint32_t id : sub.chunk_ids[ev.chunk])
          reply.ranks.push_back(
              answer(sub.chunk_shard[ev.chunk], sub.queries[id]));
        reply.well_formed =
            draining_ || delay_only_ || rng_.uniform01() >= lie_;
        transmit(std::move(reply));
        break;
      }
      case Ev::kToCoordinator: {
        const Coordinator::Reply verdict = core_->on_reply(
            ev.node, ev.epoch, subs_[ev.sub].id, ev.chunk, ev.well_formed,
            now(), &actions_);
        if (verdict == Coordinator::Reply::kClaimed &&
            ev.life != nodes_[ev.node].life)
          fail("claimed a reply from node " + std::to_string(ev.node) +
               " sent before it was declared dead");
        if (verdict == Coordinator::Reply::kBreach) {
          ++tally_.breaches;
          ++nodes_[ev.node].life;
          nodes_[ev.node].up = false;
        }
        if (verdict == Coordinator::Reply::kIgnored)
          ++(ev.life == nodes_[ev.node].life ? tally_.duplicates
                                             : tally_.stale);
        perform(&ev);
        break;
      }
      case Ev::kCrash:
        // Silent: found dead only when its heartbeats are overdue.
        if (nodes_[ev.node].up) {
          nodes_[ev.node].up = false;
          at(now_us_ + 1000 + rng_.below(20'000),
             {.kind = Ev::kDetect, .node = ev.node});
        }
        break;
      case Ev::kDetect:
      case Ev::kKill:
        declare_dead(ev.node);
        break;
      case Ev::kRejoin:
        if (core_->membership().status(ev.node) == NodeStatus::kDead)
          join(ev.node);
        break;
    }
  }

  void open_submission() {
    SimSub sub;
    sub.id = core_->open();
    const auto queries = rng_.below(40);
    const std::size_t max_chunk = 1 + rng_.below(8);
    std::map<std::uint32_t, std::vector<std::uint32_t>> lanes;
    for (std::uint32_t q = 0; q < queries; ++q) {
      sub.queries.push_back(static_cast<key_t>(rng_.below(1u << 16)));
      const std::uint32_t lane =
          replicate_ ? q % cfg_.num_nodes : shard_of(sub.queries.back());
      lanes[lane].push_back(q);
    }
    for (auto& [lane, ids] : lanes) {
      for (std::size_t b = 0; b < ids.size(); b += max_chunk) {
        sub.chunk_ids.emplace_back(
            ids.begin() + b, ids.begin() + std::min(ids.size(), b + max_chunk));
        sub.chunk_shard.push_back(replicate_ ? net::kGlobalShard : lane);
      }
    }
    sub.out.assign(queries, 0);
    sub.claimed.assign(sub.chunk_ids.size(), false);
    const std::size_t index = subs_.size();
    by_id_[sub.id] = index;
    // Chunks follow one by one, each a step of its own, then the seal.
    std::int64_t t = now_us_;
    for (std::uint32_t c = 0; c < sub.chunk_ids.size(); ++c) {
      t += rng_.below(100);
      at(t, {.kind = Ev::kChunk, .sub = index, .chunk = c});
    }
    at(t + rng_.below(100), {.kind = Ev::kSeal, .sub = index});
    subs_.push_back(std::move(sub));
    ++opened_;
  }

  /// Act on what the Coordinator decided, checking each decision.
  void perform(const Event* reply = nullptr) {
    for (const Action& a : actions_) {
      SimSub& sub = subs_[by_id_.at(a.sub)];
      if (sub.terminal) {
        fail("an action for a finished submission");
        return;
      }
      switch (a.kind) {
        case Kind::kSend: {
          const std::uint32_t shard = sub.chunk_shard[a.chunk];
          if (core_->membership().status(a.node) != NodeStatus::kAlive ||
              !holds(a.node, shard) || a.epoch != core_->epoch(a.node))
            fail("a send to node " + std::to_string(a.node) +
                 ", not a live holder of the chunk's shard");
          if (delay_only_ && a.cause != Coordinator::Cause::kFirst)
            fail("a delay-only schedule fired a retry");
          tally_.retries += a.cause == Coordinator::Cause::kRetry;
          tally_.failovers += a.cause == Coordinator::Cause::kFailover;
          transmit({.kind = Ev::kToNode, .node = a.node,
                    .sub = by_id_.at(a.sub), .chunk = a.chunk,
                    .epoch = a.epoch, .life = nodes_[a.node].life});
          break;
        }
        case Kind::kClaim: {
          if (reply == nullptr || sub.claimed[a.chunk]) {
            fail("chunk " + std::to_string(a.chunk) +
                 (reply == nullptr ? " claimed with no reply"
                                   : " claimed twice"));
            break;
          }
          sub.claimed[a.chunk] = true;
          ++tally_.claims;
          const auto& ids = sub.chunk_ids[a.chunk];
          for (std::size_t j = 0; j < ids.size(); ++j)
            sub.out[ids[j]] = reply->ranks[j];
          break;
        }
        case Kind::kComplete:
          sub.terminal = true;
          ++tally_.completes;
          if (!std::all_of(sub.claimed.begin(), sub.claimed.end(),
                           [](bool c) { return c; }))
            fail("completed with a chunk unclaimed");
          for (std::size_t q = 0; q < sub.queries.size(); ++q)
            if (sub.out[q] != reference(sub.queries[q]))
              fail("query " + std::to_string(q) + " got a wrong rank");
          break;
        case Kind::kFail:
          sub.terminal = true;
          ++tally_.fails;
          if (cfg_.failover && live_holder(sub.chunk_shard[a.chunk]))
            fail("failed naming node " + std::to_string(a.node) +
                 " while a live node holds the chunk's shard");
          break;
      }
    }
    actions_.clear();
  }

  void check_ledgers() {
    for (const SimSub& sub : subs_) {
      const auto* chunks = core_->chunks(sub.id);
      if (chunks == nullptr) continue;
      if (sub.terminal) fail("a finished submission is still in flight");
      for (const Coordinator::Chunk& c : *chunks) {
        if (c.hops > cfg_.num_nodes) fail("a chunk hopped past num_nodes");
        if (!c.done && c.attempts > 0 &&
            core_->membership().status(c.node) != NodeStatus::kAlive)
          fail("an open chunk sits on a dead node");
      }
    }
  }

  bool all_terminal() const {
    return std::all_of(subs_.begin(), subs_.end(),
                       [](const SimSub& s) { return s.terminal; });
  }

  Rng rng_;
  ClusterConfig cfg_;
  bool replicate_ = false;
  std::uint32_t shards_ = 1;
  bool delay_only_ = false;
  double drop_ = 0, duplicate_ = 0, lie_ = 0;
  std::vector<key_t> keys_;
  std::vector<std::size_t> cuts_;  ///< shard s is keys_[cuts_[s], cuts_[s+1])
  std::unique_ptr<Coordinator> core_;
  std::vector<SimNode> nodes_;
  std::vector<SimSub> subs_;
  std::map<std::uint64_t, std::size_t> by_id_;
  std::map<std::pair<std::int64_t, std::uint64_t>, Event> events_;
  std::uint64_t seq_ = 0;
  std::int64_t now_us_ = 0;
  bool draining_ = false;
  std::uint64_t opened_ = 0;
  Coordinator::Actions actions_;
  std::string error_;
  Tally tally_;
};

std::uint64_t seed_base() {
  if (const char* s = std::getenv("DICI_FAULT_SEED"))
    return std::strtoull(s, nullptr, 0);
  return 1;
}

TEST(CoordinatorSim, ThousandsOfSeedsKeepEveryInvariant) {
  constexpr std::uint64_t kSeeds = 5000;
  const std::uint64_t base = seed_base();
  int failures = 0;
  Tally total;
  for (std::uint64_t seed = base; seed < base + kSeeds && failures < 5;
       ++seed) {
    Sim sim(seed);
    const std::string error = sim.run();
    total.add(sim.tally());
    if (!error.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << ": " << error
                    << "\n  replay: DICI_FAULT_SEED=" << seed
                    << " ./cluster_coordinator_sim_test; then keep the seed "
                       "in kRegressionSeeds";
    }
  }
  // A sweep that never reached a path checked nothing there.
  std::printf("seeds %llu..%llu: %llu retries, %llu failovers, %llu claims, "
              "%llu duplicates, %llu stale replies, %llu breaches, %llu "
              "completes, %llu fails, %llu deaths, %llu re-joins\n",
              static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(base + kSeeds - 1),
              static_cast<unsigned long long>(total.retries),
              static_cast<unsigned long long>(total.failovers),
              static_cast<unsigned long long>(total.claims),
              static_cast<unsigned long long>(total.duplicates),
              static_cast<unsigned long long>(total.stale),
              static_cast<unsigned long long>(total.breaches),
              static_cast<unsigned long long>(total.completes),
              static_cast<unsigned long long>(total.fails),
              static_cast<unsigned long long>(total.deaths),
              static_cast<unsigned long long>(total.rejoins));
  for (const std::uint64_t n :
       {total.retries, total.failovers, total.duplicates, total.stale,
        total.breaches, total.completes, total.fails, total.rejoins})
    EXPECT_GT(n, 0u);
}

TEST(CoordinatorSim, RegressionSeeds) {
  for (const auto& [seed, what] : kRegressionSeeds)
    EXPECT_EQ(Sim(seed).run(), "") << "seed " << seed << " (" << what << ")";
}

}  // namespace
}  // namespace dici::cluster
