// ClusterEngine — Method C-3 on N nodes that share no memory.
//
// The paper's master/slave architecture with the shared memory removed.
// build() ships shard replicas to N nodes as kBuildShard frames. submit()
// routes a batch with the dispatch_master_rounds loop parallel-native
// uses, but each per-shard chunk leaves as a kQueryBatch frame on a
// net::Endpoint, and its answers come back as a kRankBatch frame whose
// ranks are scattered into the caller's out_ranks by query id. Three
// transports carry the same wire-v3 bytes through one FdEndpoint: a
// socketpair to node threads in this process (kSocket), a socketpair
// inherited by a spawned dici_node child (kFork), and loopback TCP to a
// spawned child (kTcp).
//
// Placement: kInterleave and kNodeLocal put shard s on node s % N (on a
// wire they are one assignment; both names are accepted so matrix cells
// sweep the axis uniformly). kReplicate ships every node the whole array
// and round-robins chunks across them (the paper's replicated strategy).
//
// Structure: one single-threaded Coordinator (coordinator.hpp, which
// documents the retry and failover policy) makes every decision. The
// index runs it, with these threads:
//   * the client's submitting thread encodes and sends each chunk;
//   * one receiver per node reads its link: a node silent past
//     heartbeat_timeout_ms, or whose link closes or breaks, is DEAD, and
//     each reply is claimed and scattered;
//   * one sweeper hands the Coordinator the clock, for retries.
// Each calls the Coordinator under the index's one mutex, then sends
// (under the link's own tx mutex) and scatters claimed ranks after
// releasing it. The only other lock is each submission's completion
// signal, which wait() blocks on. The claim makes a scatter exactly-once
// however many copies of a chunk are answered, and a reply is claimed
// only if its query ids equal the chunk's request's: a node that breaks
// that is failed like a dead one.
//
// Failure semantics: dropped, delayed, duplicated and corrupted frames
// (net/fault.hpp) converge to exact ranks through retries. When a node
// dies, its chunks move to a live replica holder (failover on, under
// kReplicate), or the submission fails with a NodeFailureError naming the
// node (kInterleave/kNodeLocal own each shard once, or failover is off).
// cluster_rejoin_node re-admits a DEAD node on a fresh link at a new
// epoch, so nothing its old incarnation sent is taken for current
// traffic. Build and re-join climb one join ladder and differ only in
// failure policy: the build aborts, a re-join returns false.
//
// What stays coordinator-side: SubmitOptions::delta (rank corrections
// are a post-pass over the returned ranks, so nodes stay delta-oblivious)
// and per-query wall latency (submit stamp to reply arrival).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cluster/membership.hpp"
#include "src/core/engine.hpp"
#include "src/index/fast_search.hpp"
#include "src/net/fault.hpp"
#include "src/net/transport.hpp"
#include "src/util/bytes.hpp"

namespace dici::cluster {

/// Thrown by wait()/drain() when a node died with the submission's
/// messages outstanding. Carries the node id so callers (and tests) can
/// name the culprit without parsing the message.
class NodeFailureError : public std::runtime_error {
 public:
  NodeFailureError(std::uint32_t node, const std::string& what)
      : std::runtime_error(what), node_(node) {}

  std::uint32_t node() const { return node_; }

 private:
  std::uint32_t node_;
};

struct ClusterConfig {
  /// Serving nodes (the coordinator is extra, reported as RunReport
  /// node 0 — so num_nodes here mirrors ExperimentConfig::num_slaves()).
  std::uint32_t num_nodes = 4;
  /// Shard count; 0 = one per node. Shard s lives on node s % num_nodes
  /// (ignored under kReplicate).
  std::uint32_t num_shards = 0;
  /// Query bytes the coordinator ingests per dispatch round.
  std::uint64_t batch_bytes = 64 * KiB;
  net::TransportKind transport = net::TransportKind::kSocket;
  index::SearchKernel kernel = index::kDefaultSearchKernel;
  index::Placement placement = index::Placement::kInterleave;
  /// Node -> coordinator heartbeat cadence.
  std::uint32_t heartbeat_interval_ms = 25;
  /// Silence past this marks a node DEAD and fails its in-flight
  /// batches. Must be at least 2x the interval (validated).
  std::uint32_t heartbeat_timeout_ms = 250;
  /// The dici_node binary the process transports (kFork/kTcp) spawn.
  /// Empty = the DICI_NODE_BIN env override if set, else "dici_node"
  /// next to the running executable (ProcessNode::default_binary).
  std::string node_binary;
  bool track_latency = false;
  /// Re-sends of an unanswered chunk to the SAME node before the
  /// coordinator gives up on that assignment and considers failover.
  /// 0 disables retries (first silence escalates immediately). At most
  /// core::kMaxRetries (checked by the constructor).
  std::uint32_t max_retries = 3;
  /// Base backoff before the first re-send; doubles per attempt
  /// (capped) — attempt k waits retry_backoff_us * 2^(k-1). In
  /// [core::kMinRetryBackoffUs, core::kMaxRetryBackoffUs] (checked by
  /// the constructor).
  std::uint32_t retry_backoff_us = 20'000;
  /// Re-route a dead (or retry-exhausted) node's unanswered chunks to a
  /// live replica holder when one exists. Off = the seed's fail-fast
  /// semantics: any death with chunks outstanding throws
  /// NodeFailureError.
  bool failover = true;
  /// Fault injection on every coordinator<->node link, applied at the
  /// coordinator's end (net::decorate_coordinator_end) whatever the
  /// transport. Off by default: FaultConfig::enabled() is false when all
  /// rates are zero. The build phase always runs healed; faults arm once
  /// serving starts.
  net::FaultConfig faults;
};

class ClusterEngine : public core::Engine {
 public:
  explicit ClusterEngine(const ClusterConfig& config);
  /// Derive from the shared ExperimentConfig (method must be C-3,
  /// single master; see cluster_config_from).
  explicit ClusterEngine(const core::ExperimentConfig& config);

  std::shared_ptr<const core::Index> build(
      std::span<const key_t> index_keys) const override;
  const char* name() const override {
    return core::backend_name(core::Backend::kCluster);
  }

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
};

/// The ExperimentConfig -> ClusterConfig mapping used by make_engine.
/// Rejects cluster-incompatible knob combos with field+value
/// diagnostics: method != C-3, num_masters != 1, non-default
/// flush_policy, heartbeat_timeout_ms < 2 * heartbeat_interval_ms.
ClusterConfig cluster_config_from(const core::ExperimentConfig& config);

/// Test hook: silence node `node` of a cluster-built Index as if its
/// machine lost power — the node thread parks without closing its link
/// or saying goodbye, so only the heartbeat timeout can detect it.
/// Aborts (field+value diagnostic) if `index` is not a cluster index
/// or `node` is out of range.
void cluster_kill_node_for_test(const core::Index& index, std::uint32_t node);

/// Re-admit a DEAD node: fresh transport link (epoch bumped), a new
/// node incarnation, the DEAD -> JOINING -> ACK -> ALIVE ladder walked
/// again, and the node's shard assignment re-shipped via chunked
/// kBuildShard — after which it serves queries and (under kReplicate)
/// takes failover traffic again. Returns false, with the node back in
/// DEAD, if the handshake or re-scatter fails (e.g. the link is
/// partitioned); true once the node is ALIVE and routable. Call from
/// one thread at a time per index (tests and operators, not the hot
/// path). Aborts if `index` is not a cluster index, `node` is out of
/// range, or the node is not DEAD.
bool cluster_rejoin_node(const core::Index& index, std::uint32_t node);

/// The coordinator's current membership view of `node` (test
/// observability — e.g. polling for kDead after a kill, or kAlive after
/// a re-join). Aborts on a non-cluster index or out-of-range node.
NodeStatus cluster_node_status(const core::Index& index, std::uint32_t node);

/// The pids of the spawned dici_node children backing a cluster built
/// with a process transport (kFork/kTcp) — empty for the in-process
/// transports. Test observability: after the index is destroyed, every
/// returned pid must be gone (kill(pid, 0) == ESRCH), or the reaper
/// leaked a zombie. Aborts on a non-cluster index.
std::vector<int> cluster_node_pids(const core::Index& index);

/// The live fault switchboard shared by every link of a cluster built
/// with ClusterConfig::faults enabled — arm()/heal()/partition() flip
/// injection at runtime, stats() counts what was done to the traffic.
/// Null when the cluster was built without fault injection.
std::shared_ptr<net::FaultController> cluster_fault_controller(
    const core::Index& index);

}  // namespace dici::cluster
