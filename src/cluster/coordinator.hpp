// Coordinator — every decision of the cluster coordinator, as one
// single-threaded state machine. ClusterIndex (cluster_engine.cpp) owns
// the threads, links and bytes; this class owns what they act on:
//   * the membership table, and each node's epoch (its link
//     incarnation: a death bumps it, so nothing the dead incarnation
//     sent is ever claimed);
//   * every in-flight submission's chunk ledger;
//   * the one routing policy, route(): where a chunk goes next, or that
//     it is written off.
// It reads no clock (time comes in as `now`), starts no thread, and
// never sees an Endpoint or a Frame. Each entry point appends Actions
// for its caller to perform. The caller serializes the calls:
// ClusterIndex under one mutex, the simulator
// (tests/cluster_coordinator_sim_test.cpp) on one thread.
//
// Policy: a chunk unanswered when due is re-sent to the same node, up
// to max_retries times with doubling backoff. Past that its node is
// suspect: with failover on and another live holder (kReplicate), the
// chunk hops there, at most num_nodes times, so two silent-but-alive
// nodes cannot ping-pong it forever; otherwise it keeps polling at the
// backoff cap. A node's death moves each of its chunks to a live holder
// whatever the hop count, or, with none left or failover off, writes
// the chunk off, which fails its submission at once, naming the node.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

#include "src/cluster/cluster_engine.hpp"
#include "src/cluster/membership.hpp"

namespace dici::cluster {

class Coordinator {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  enum class Cause : std::uint8_t { kFirst, kRetry, kFailover };

  struct Action {
    enum class Kind : std::uint8_t {
      kSend,      ///< send `chunk` of `sub` to `node`, stamped `epoch`
      kClaim,     ///< the reply passed in claims `chunk`: scatter it
      kComplete,  ///< every chunk of `sub` is claimed
      kFail,      ///< `chunk` was written off: `sub` fails naming `node`
    };
    Kind kind = Kind::kSend;
    Cause cause = Cause::kFirst;  ///< why a kSend is sent
    std::uint64_t sub = 0;
    std::uint32_t chunk = 0;
    std::uint32_t node = 0;
    std::uint32_t epoch = 0;  ///< kSend only
  };
  using Actions = std::vector<Action>;

  struct Chunk {
    std::uint32_t shard = 0;     ///< net::kGlobalShard under kReplicate
    std::uint32_t node = 0;      ///< current assignment
    std::uint32_t attempts = 0;  ///< sends to the current assignment
    std::uint32_t hops = 0;      ///< moves away from a suspect live node
    TimePoint next_retry{};
    bool done = false;  ///< claimed
  };

  enum class Reply : std::uint8_t {
    kClaimed,  ///< a kClaim was appended
    kIgnored,  ///< stale epoch, finished submission, or duplicate
    kBreach,   ///< malformed answer to an open chunk: the node is now dead
  };

  /// Every node starts kNull at epoch 1.
  explicit Coordinator(const ClusterConfig& config);

  /// Open a submission; its chunks follow through submit(), then seal().
  std::uint64_t open();
  /// Add `sub`'s next chunk (ids count up from 0) and route it: a kSend,
  /// or a kFail if no live node holds `shard`. No-op once `sub` failed.
  void submit(std::uint64_t sub, std::uint32_t shard, TimePoint now,
              Actions* out);
  /// `sub` has all its chunks: kComplete once each is claimed.
  void seal(std::uint64_t sub, Actions* out);

  /// A reply from `node`'s incarnation `epoch` to `chunk` of `sub`.
  /// `well_formed`: its query ids equal the chunk's request ids, which
  /// the caller checks against the request it retained.
  Reply on_reply(std::uint32_t node, std::uint32_t epoch, std::uint64_t sub,
                 std::uint32_t chunk, bool well_formed, TimePoint now,
                 Actions* out);
  /// Re-send, hop, or keep polling every unanswered chunk now due.
  void on_tick(TimePoint now, Actions* out);
  /// `node` is dead: DEAD, a new epoch, its chunks moved or written off.
  /// False, doing nothing, if it already was.
  bool on_node_dead(std::uint32_t node, TimePoint now, Actions* out);
  /// `node`'s join ladder got its build ack (a re-join, or the build's
  /// first join): ALIVE and routable. No chunk waits for this — one whose
  /// last holder died was written off then.
  void on_rejoin(std::uint32_t node);

  /// The table the join ladder walks through JOINING and ACK.
  Membership& membership() { return membership_; }
  std::uint32_t epoch(std::uint32_t node) const { return epochs_[node]; }
  /// An in-flight submission's ledger (null once it completed or failed).
  const std::vector<Chunk>* chunks(std::uint64_t sub) const;

 private:
  struct Submission {
    std::vector<Chunk> chunks;
    std::uint32_t open_chunks = 0;
    bool sealed = false;
  };
  using SubIter = std::map<std::uint64_t, Submission>::iterator;
  enum class Event : std::uint8_t { kNew, kDue, kDead };
  static constexpr std::uint32_t kNone = 0xffffffffu;  ///< no live holder

  bool alive(std::uint32_t node) const {
    return membership_.status(node) == NodeStatus::kAlive;
  }
  std::uint32_t pick_target(std::uint32_t shard, std::uint32_t exclude);
  bool route(SubIter it, std::uint32_t c, Event event, TimePoint now,
             Actions* out);
  void complete_if_done(SubIter it, Actions* out);

  std::uint32_t num_nodes_;
  bool replicate_;
  bool failover_;
  std::uint32_t max_retries_;
  std::uint32_t retry_backoff_us_;
  Membership membership_;
  std::vector<std::uint32_t> epochs_;
  std::map<std::uint64_t, Submission> subs_;  ///< oldest first
  std::uint64_t next_sub_ = 1;
  std::uint64_t cursor_ = 0;  ///< kReplicate's round-robin
};

}  // namespace dici::cluster
