// NodeService — the serving side of the cluster protocol — plus the
// coordinator's two ways of owning one: ClusterNode (a thread in this
// process) and, in process_node.hpp, ProcessNode (a spawned dici_node
// child). PR 8's header promised that forking the nodes into real
// processes "would change the transport kind and not one line of this
// protocol"; this file is where the promise is kept: the SAME
// NodeService::run() serves whether its endpoint is an in-process
// socketpair, a socketpair inherited across fork/exec, or a loopback
// TCP connection — the service owns a link and NOTHING else
// crosses its boundary.
//
// Bootstrap (both modes, one path): the service sends kJoinRequest,
// waits for kJoinAck, then waits for kNodeConfig — the coordinator's
// wire-carried configuration (kernel, heartbeat cadence, cluster
// size). A freshly exec'd process learns everything from the
// coordinator; an in-process node gets the identical frames, so there
// is no second code path to rot.
//
// Service loop (after the bootstrap):
//   recv(heartbeat interval) →
//     kClusterInfo  — mirror the coordinator's membership view
//     kBuildShard   — append the chunk to the shard's replica; on the
//                     last-flagged frame, finalize (build Eytzinger
//                     layouts if the kernel needs them) and kBuildAck
//     kQueryBatch   — resolve_batch over the named replica, add the
//                     shard's global rank offset, reply kRankBatch with
//                     the node's busy time
//     kShutdown / link closed — exit
//   and between frames, send kHeartbeat once per interval.
//
// kill() is the failure-injection hook. In-process it halts the loop
// dead — no reply, no heartbeat, no close; on a ProcessNode it is a
// real SIGKILL. Either way the coordinator sees what a kernel panic
// looks like from the other end of a wire and must recover through its
// own machinery (heartbeat timeout, or kClosed when a dead child's fds
// collapse).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/cluster/membership.hpp"
#include "src/index/eytzinger.hpp"
#include "src/index/fast_search.hpp"
#include "src/net/transport.hpp"
#include "src/util/types.hpp"

namespace dici::cluster {

/// The protocol's serving side over one endpoint. Single-threaded:
/// run() blocks on the caller's thread (ClusterNode gives it a thread;
/// dici_node's main() IS the thread).
class NodeService {
 public:
  /// `link` must outlive the service; the service does not own it so
  /// the two owners (ClusterNode, node_main) can manage lifetime their
  /// own way.
  NodeService(std::uint32_t id, net::Endpoint& link);

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  /// Join handshake + config bootstrap + serve loop. Returns when the
  /// link closes, kShutdown arrives, the protocol is breached, or
  /// kill() fires.
  void run();

  /// Failure injection for the in-process mode: the loop halts without
  /// a goodbye — no close, no reply to anything in flight. Idempotent,
  /// any thread.
  void kill() { killed_.store(true, std::memory_order_release); }

  /// Total keys across this node's replicas (test observability; racy
  /// during the build scatter, exact after the build ack).
  std::uint64_t replica_keys() const {
    return replica_keys_.load(std::memory_order_acquire);
  }

 private:
  /// One shard replica: deserialized key copy + its global rank offset
  /// (+ the BFS layout when the kernel probes Eytzinger order).
  struct Replica {
    std::vector<key_t> keys;
    rank_t global_offset = 0;
    std::unique_ptr<index::EytzingerLayout> layout;
    /// Next build chunk this replica expects: an already-appended chunk
    /// (a duplicated frame) is skipped, a skipped-ahead chunk (a
    /// dropped frame) breaks the stream — so a replica can never be
    /// silently assembled from damaged goods.
    std::uint32_t next_chunk = 0;
  };

  bool join();
  bool await_config();
  void serve();
  bool handle_build_shard(const net::Frame& frame);
  bool handle_query_batch(const net::Frame& frame);

  const std::uint32_t id_;
  net::Endpoint& link_;
  /// Highest link epoch seen from the coordinator, echoed on every send
  /// — so after a re-join the node's replies carry the fresh
  /// incarnation and the coordinator's stale-epoch filter passes them.
  /// Service-thread-only.
  std::uint32_t epoch_ = 0;
  std::atomic<bool> killed_{false};
  std::atomic<std::uint64_t> replica_keys_{0};

  // Configuration, all from the kNodeConfig frame (await_config).
  index::SearchKernel kernel_ = index::kDefaultSearchKernel;
  std::uint32_t heartbeat_interval_ms_ = 25;

  Membership membership_{1};  ///< service-thread-only mirror, resized
                              ///< once kNodeConfig names the cluster
  std::map<std::uint32_t, Replica> replicas_;  ///< service-thread-only
  /// The serve loop's decode and reply buffers, kept across batches so
  /// a batch reuses their capacity. Service-thread-only.
  net::QueryBatchMsg query_;
  net::RankBatchMsg reply_;
};

/// What the coordinator holds per node slot: something it can kill and
/// destroy, whether the serving loop is a thread here or a child
/// process. Destruction must stop the peer and release everything
/// (join the thread / reap the child — no zombies).
class NodePeer {
 public:
  virtual ~NodePeer() = default;
  /// Stop serving with no goodbye (thread halt or SIGKILL). Idempotent.
  virtual void kill() = 0;
  /// The child pid for process peers; -1 for in-process ones.
  virtual int pid() const { return -1; }
};

/// The in-process peer: a thread running NodeService over an owned
/// endpoint (the socket transport).
class ClusterNode final : public NodePeer {
 public:
  /// Spawns the service thread; it immediately runs the join handshake.
  ClusterNode(std::uint32_t id, std::unique_ptr<net::Endpoint> link);

  /// Joins the service thread. The coordinator must have closed (or
  /// shut down) the link first, or the loop exits on kShutdown/kClosed.
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  std::uint32_t id() const { return id_; }
  void kill() override { service_.kill(); }
  std::uint64_t replica_keys() const { return service_.replica_keys(); }

 private:
  const std::uint32_t id_;
  std::unique_ptr<net::Endpoint> link_;
  NodeService service_;
  std::thread thread_;
};

}  // namespace dici::cluster
