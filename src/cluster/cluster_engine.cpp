#include "src/cluster/cluster_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cluster/node.hpp"
#include "src/cluster/process_node.hpp"
#include "src/core/dispatch.hpp"
#include "src/index/delta.hpp"
#include "src/index/partitioner.hpp"
#include "src/net/fd_endpoint.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"

namespace dici::cluster {

using core::Backend;
using core::Client;
using core::DispatchBatch;
using core::Index;
using core::Method;
using core::NodeReport;
using core::RunReport;
using core::SubmitOptions;

ClusterEngine::ClusterEngine(const ClusterConfig& config) : config_(config) {
  DICI_CHECK_FMT(config_.num_nodes >= 1,
                 "ClusterConfig::num_nodes = %u: need at least one serving "
                 "node",
                 config_.num_nodes);
  DICI_CHECK_FMT(config_.batch_bytes >= sizeof(key_t),
                 "ClusterConfig::batch_bytes = %llu: a dispatch round must "
                 "hold at least one %zu-byte key",
                 static_cast<unsigned long long>(config_.batch_bytes),
                 sizeof(key_t));
  DICI_CHECK_FMT(index::search_kernel_valid(config_.kernel),
                 "ClusterConfig::kernel = %d: not a SearchKernel value",
                 static_cast<int>(config_.kernel));
  DICI_CHECK_FMT(index::placement_valid(config_.placement),
                 "ClusterConfig::placement = %d: not a Placement value",
                 static_cast<int>(config_.placement));
  DICI_CHECK_FMT(config_.heartbeat_interval_ms >= 1,
                 "ClusterConfig::heartbeat_interval_ms = %u: the failure "
                 "detector needs a nonzero heartbeat cadence",
                 config_.heartbeat_interval_ms);
  DICI_CHECK_FMT(
      config_.heartbeat_timeout_ms >= 2 * config_.heartbeat_interval_ms,
      "ClusterConfig::heartbeat_timeout_ms = %u with "
      "heartbeat_interval_ms = %u: the timeout must be at least twice the "
      "interval, or one delayed beat kills a healthy node",
      config_.heartbeat_timeout_ms, config_.heartbeat_interval_ms);
  core::check_retry_knobs("ClusterConfig", config_.max_retries,
                          config_.retry_backoff_us);
}

ClusterConfig cluster_config_from(const core::ExperimentConfig& config) {
  core::validate(config);
  core::check_native_supported(config);
  DICI_CHECK_FMT(config.method == Method::kC3,
                 "ExperimentConfig::method = %s: ClusterEngine ships sorted "
                 "shard arrays to its nodes (Method C-3)",
                 core::method_name(config.method));
  DICI_CHECK_FMT(config.num_masters == 1,
                 "ExperimentConfig::num_masters = %u: ClusterEngine maps "
                 "extra masters to extra Clients, not config knobs — "
                 "connect() one Client per master",
                 config.num_masters);
  ClusterConfig cluster;
  cluster.num_nodes = config.num_slaves();
  cluster.num_shards = config.num_slaves();
  cluster.batch_bytes = config.batch_bytes;
  cluster.transport = config.transport;
  cluster.kernel = config.kernel;
  cluster.placement = config.placement;
  cluster.heartbeat_interval_ms = config.heartbeat_interval_ms;
  cluster.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
  cluster.track_latency = config.track_latency;
  cluster.max_retries = config.max_retries;
  cluster.retry_backoff_us = config.retry_backoff_us;
  cluster.failover = config.failover;
  return cluster;
}

ClusterEngine::ClusterEngine(const core::ExperimentConfig& config)
    : ClusterEngine(cluster_config_from(config)) {}

namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

/// Build-phase patience: the deadline for the whole join ladder (every
/// node's join handshake, shard scatter and build ack) and for each tcp
/// child's connect. A node that misses it during build is a bug, and
/// build has no error channel — it aborts loudly.
constexpr auto kBuildTimeout = 30s;

/// Re-join patience, for the same ladder on one node. Unlike build, a
/// re-join has an error channel (it returns false and the node goes
/// back to DEAD), so it can afford to give up fast — e.g. when the
/// operator re-joins into a still-partitioned link.
constexpr auto kRejoinTimeout = 5s;

/// Keys per kBuildShard chunk. 4 MiB of payload per frame — far under
/// kMaxFramePayloadBytes, large enough that a build is a handful of
/// frames per shard.
constexpr std::size_t kBuildChunkKeys = 1u << 20;

/// failed_node sentinel: no failure recorded / no routable node.
constexpr std::uint32_t kNoFailure = 0xffffffffu;

/// Index-lifetime recovery accounting: re-join events and their wall
/// time. Held by shared_ptr so a Completion can harvest (exchange-to-
/// zero) after the index itself is gone; RunReport::merge adds, so
/// events are reported exactly once however many batches a stream runs.
struct RecoveryLedger {
  std::atomic<std::uint64_t> rejoins{0};
  std::atomic<std::uint64_t> recovery_ns{0};
};

/// One tracked dispatch message. The encoded request frame is RETAINED
/// until exactly one reply claims the chunk — that copy is what the
/// retry sweeper re-sends and what failover re-routes, and the chunk id
/// it carries is what dedupes however many answers the fault schedule
/// lets through. All fields are guarded by the owning submission's
/// chunk_mu.
struct Chunk {
  net::Frame frame;           ///< encoded kQueryBatch (each send stamps a copy)
  std::uint32_t shard = 0;    ///< kGlobalShard under kReplicate
  std::uint32_t queries = 0;  ///< queries the chunk carries (= a reply's ids)
  std::uint32_t node = 0;     ///< current assignment
  std::uint32_t attempts = 0; ///< sends on the current assignment
  std::uint32_t hops = 0;     ///< failover re-assignments so far
  Clock::time_point next_retry{};
  bool done = false;          ///< claimed by a reply, or written off
};

/// Completion record for one submitted batch. `outstanding` starts at 1
/// (the submitter's hold) plus one per chunk, plus one while sends
/// decided under chunk_mu are in flight (flush_sends); every chunk finishes
/// EXACTLY once — claimed by the first reply carrying its id, or
/// written off by the failure path when no replica survives — so the
/// countdown is immune to duplicated, delayed, and re-sent frames.
///
/// Locking: chunk_mu guards the chunk table, the per-node stat slots,
/// and the sent-side counters. Every decision to send (submitter,
/// sweeper, failover) and every reply claim happens under it, but no
/// send does: a send can block on a full link, and the node's receiver
/// needs chunk_mu to drain the replies that make room. Neither a link's
/// tx nor subs_mu_ is ever taken with chunk_mu held.
struct ClusterSubmission {
  ClusterSubmission(std::uint64_t id_, std::uint32_t num_nodes,
                    bool track_latency_)
      : id(id_), track_latency(track_latency_), node_queries(num_nodes, 0),
        node_busy_ns(num_nodes, 0), node_replies(num_nodes, 0),
        node_reply_bytes(num_nodes, 0), node_sent(num_nodes, 0),
        node_sent_bytes(num_nodes, 0),
        node_latency(track_latency_ ? num_nodes : 0) {}

  const std::uint64_t id;
  rank_t* out = nullptr;
  std::vector<rank_t> sink;  ///< backs `out` when the caller passed none

  bool track_latency = false;
  std::vector<double> queued_ns;  ///< per query id; empty = no prior wait

  /// Coordinator-side delta fold: nodes resolve base ranks only; the
  /// live-set correction is a post-pass in await() over the scattered
  /// results. query_copy holds the queries (in id order) because the
  /// caller's span dies with submit().
  std::shared_ptr<const index::DeltaSnapshot> delta;
  std::vector<key_t> query_copy;

  // --- Everything below here is guarded by chunk_mu -----------------------
  std::mutex chunk_mu;
  std::deque<Chunk> chunks;  ///< deque: stable addresses, indexed by chunk id

  std::vector<std::uint64_t> node_queries;
  std::vector<std::uint64_t> node_busy_ns;
  std::vector<std::uint64_t> node_replies;
  std::vector<std::uint64_t> node_reply_bytes;
  std::vector<std::uint64_t> node_sent;
  std::vector<std::uint64_t> node_sent_bytes;
  std::vector<Summary> node_latency;

  std::uint64_t messages = 0;    ///< frames actually sent (retries included)
  std::uint64_t wire_bytes = 0;  ///< request-hop serialized bytes
  std::uint64_t retries = 0;     ///< re-sends of unanswered chunks
  std::uint64_t failovers = 0;   ///< chunks re-routed to another replica
  // --- End of chunk_mu protection -----------------------------------------

  /// First node whose unrecoverable death touched this submission
  /// (kNoFailure = none). A recovered fault (retry or failover worked)
  /// never sets this.
  std::atomic<std::uint32_t> failed_node{kNoFailure};

  // Filled by the submitter before it releases its hold.
  std::uint64_t num_queries = 0;
  double dispatch_sec = 0.0;

  WallTimer timer;        ///< started at submit
  double wall_sec = 0.0;  ///< stamped by whoever completes last

  std::atomic<std::uint64_t> outstanding{1};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::atomic<bool> done_flag{false};

  void record_failure(std::uint32_t node) {
    std::uint32_t expected = kNoFailure;
    failed_node.compare_exchange_strong(expected, node,
                                        std::memory_order_acq_rel);
  }

  /// Drop `k` from the countdown; returns true when this call completed
  /// the submission (and has signalled the waiter).
  bool finish(std::uint64_t k) {
    if (outstanding.fetch_sub(k, std::memory_order_acq_rel) != k) return false;
    wall_sec = timer.elapsed_sec();
    {
      std::lock_guard lock(mu);
      done = true;
    }
    done_flag.store(true, std::memory_order_release);
    cv.notify_all();
    return true;
  }

  void await_done() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done; });
  }
};

/// One coordinator->node link. `tx` serializes senders; `dead` is set
/// under tx (so a sender is always entirely before the death — its
/// frame is on the wire — or entirely after, seeing `dead` and
/// skipping) but readable lock-free by the routing paths. `epoch` is
/// the link incarnation, bumped when a re-join replaces the endpoint;
/// every frame the coordinator sends is stamped with it, and the
/// receiver ignores rank frames from any other incarnation.
struct Link {
  std::unique_ptr<net::Endpoint> endpoint;
  std::mutex tx;
  std::atomic<bool> dead{false};
  std::atomic<std::uint32_t> epoch{1};
};

class ClusterIndex : public Index {
 public:
  ClusterIndex(const ClusterConfig& config, std::span<const key_t> index_keys)
      : Index(index_keys),
        config_(config),
        // The Index base checked the order while copying the keys.
        partitioner_(keys(), keys(),
                     index::clamp_parts(config.num_shards == 0
                                            ? config.num_nodes
                                            : config.num_shards,
                                        keys().size())),
        membership_(config.num_nodes),
        links_(config.num_nodes),
        nodes_(config.num_nodes),
        ledger_(std::make_shared<RecoveryLedger>()) {
    const std::uint32_t N = config_.num_nodes;
    if (config_.faults.enabled())
      controller_ = std::make_shared<net::FaultController>();  // healed
    std::vector<std::uint32_t> all(N);
    for (std::uint32_t i = 0; i < N; ++i) {
      all[i] = i;
      links_[i] = std::make_unique<Link>();
      std::string error;
      DICI_CHECK_FMT(attach_node(i, kBuildTimeout, &error),
                     "cluster build: %s", error.c_str());
    }
    const std::string failure = join_ladder(all, kBuildTimeout);
    DICI_CHECK_FMT(failure.empty(), "cluster build: %s", failure.c_str());
    broadcast_cluster_info();
    // The build ran on a clean wire; only now do the configured faults
    // start biting (build retries are deliberately not a thing).
    if (controller_ != nullptr && config_.faults.armed) controller_->arm();
    receivers_.resize(N);
    for (std::uint32_t i = 0; i < N; ++i)
      receivers_[i] = std::thread([this, i] { receiver_loop(i); });
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }

  ~ClusterIndex() override {
    // No client outlives the Index, so every submission has completed
    // (drained or failed). Stop the sweeper and receivers, wave the
    // nodes goodbye on a clean wire, and close the links — close
    // unblocks every recv on both ends.
    stop_.store(true, std::memory_order_release);
    if (controller_ != nullptr) controller_->heal();
    sweeper_.join();
    for (std::uint32_t i = 0; i < links_.size(); ++i) {
      std::lock_guard lock(links_[i]->tx);
      if (!links_[i]->dead.load(std::memory_order_acquire)) {
        (void)links_[i]->endpoint->send(
            net::encode_shutdown(net::kCoordinatorId), 10ms);
      }
    }
    for (auto& link : links_) link->endpoint->close();
    for (auto& receiver : receivers_)
      if (receiver.joinable()) receiver.join();
    nodes_.clear();  // joins each service thread / reaps each child
  }

  const char* backend() const override {
    return core::backend_name(Backend::kCluster);
  }

  const ClusterConfig& config() const { return config_; }

  NodeStatus node_status(std::uint32_t node) const {
    std::lock_guard lock(membership_mu_);
    return membership_.status(node);
  }

  std::shared_ptr<net::FaultController> fault_controller() const {
    return controller_;
  }

  /// Test hook: silence node `i` as if its machine lost power. A slot
  /// whose re-join never spawned a node has nothing to silence.
  void kill_node(std::uint32_t i) const {
    if (nodes_[i] != nullptr) nodes_[i]->kill();
  }

  /// The spawned children's pids (empty for in-process transports).
  std::vector<int> node_pids() const {
    std::vector<int> pids;
    for (const auto& node : nodes_)
      if (node != nullptr && node->pid() > 0) pids.push_back(node->pid());
    return pids;
  }

  bool rejoin_node(std::uint32_t i) const;

  std::unique_ptr<Client::Completion> submit_batch(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) const;

 private:
  class ClusterCompletion;

  std::uint32_t node_of_shard(std::uint32_t shard) const {
    return shard % config_.num_nodes;
  }

  /// The wire-carried node configuration (sent as kNodeConfig right
  /// after each join ack — same frame whether the node is a thread here
  /// or an exec'd dici_node).
  net::NodeConfigMsg node_config_msg() const {
    net::NodeConfigMsg msg;
    msg.kernel = static_cast<std::uint8_t>(config_.kernel);
    msg.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    msg.num_nodes = config_.num_nodes;
    return msg;
  }

  std::chrono::milliseconds send_timeout() const {
    return std::chrono::milliseconds(config_.heartbeat_timeout_ms);
  }

  /// Backoff before the (attempts+1)-th send of a chunk: base * 2^k,
  /// exponent capped so a long outage polls, not overflows.
  Clock::duration backoff_after(std::uint32_t attempts) const {
    const std::uint32_t shift = std::min(attempts == 0 ? 0u : attempts - 1, 6u);
    return std::chrono::microseconds(
        static_cast<std::uint64_t>(config_.retry_backoff_us) << shift);
  }

  /// One node slot, spawned per the configured transport: the
  /// coordinator's end of the link plus the peer handle it can kill and
  /// destroy. Shared by the constructor and re-join, so a re-joined
  /// process node is a genuinely fresh child. A null endpoint means the
  /// node never came up: the spawn failed, or a tcp child never
  /// connected back within `timeout` (diagnostic in *error).
  struct SpawnedNode {
    std::unique_ptr<net::Endpoint> endpoint;
    std::unique_ptr<NodePeer> peer;
  };

  SpawnedNode spawn_node(std::uint32_t i, Clock::duration timeout,
                         std::string* error) const {
    if (!net::transport_is_process(config_.transport)) {
      auto [coordinator_end, node_end] =
          net::make_transport_pair(config_.transport);
      return {std::move(coordinator_end),
              std::make_unique<ClusterNode>(i, std::move(node_end))};
    }
    const std::string binary = config_.node_binary.empty()
                                   ? ProcessNode::default_binary()
                                   : config_.node_binary;
    if (config_.transport == net::TransportKind::kFork) {
      int fds[2];
      net::cloexec_socketpair(fds);
      auto endpoint = std::make_unique<net::FdEndpoint>(fds[0]);
      auto peer = ProcessNode::spawn_fd(binary, i, fds[1], error);
      if (peer == nullptr) return {};
      return {std::move(endpoint), std::move(peer)};
    }
    net::TcpListener listener;
    auto peer = ProcessNode::spawn_connect(binary, i, listener.port(), error);
    if (peer == nullptr) return {};
    std::string accept_error;
    auto endpoint = listener.accept(timeout, &accept_error);
    if (endpoint == nullptr) {
      *error = "spawned node " + std::to_string(i) +
               " never connected back to the coordinator's listener (" +
               accept_error + ")";
    }
    return {std::move(endpoint), std::move(peer)};
  }

  /// Give node slot `i` a fresh node on a fresh link for the link's
  /// current epoch, fault-decorated at the coordinator's end when the
  /// config injects faults. False (diagnostic in *error) when the node
  /// never connected.
  bool attach_node(std::uint32_t i, Clock::duration timeout,
                   std::string* error) const {
    SpawnedNode spawned = spawn_node(i, timeout, error);
    nodes_[i] = std::move(spawned.peer);
    if (spawned.endpoint == nullptr) return false;
    if (controller_ != nullptr) {
      spawned.endpoint = net::decorate_coordinator_end(
          std::move(spawned.endpoint), controller_, config_.faults, i,
          links_[i]->epoch.load(std::memory_order_acquire));
    }
    // A fresh link is never shared yet: the build has no senders, and a
    // re-joining link is still `dead`, so no sender touches it until the
    // node is ALIVE again.
    std::lock_guard lock(links_[i]->tx);
    links_[i]->endpoint = std::move(spawned.endpoint);
    return true;
  }

  // --- The join ladder (build, and every re-join) -------------------------

  /// Receive node `i`'s next ladder frame before `deadline`, skipping
  /// heartbeats (recorded as liveness) and frames the wire damaged.
  /// Empty on success, else what went wrong.
  std::string recv_ladder_frame(std::uint32_t i, Clock::time_point deadline,
                                net::Frame* frame) const {
    for (;;) {
      const auto now = Clock::now();
      if (now >= deadline)
        return "node " + std::to_string(i) + " went silent";
      std::string error;
      switch (links_[i]->endpoint->recv(frame, deadline - now, &error)) {
        case net::Endpoint::RecvResult::kFrame:
          if (frame->header.msg_type() != net::MsgType::kHeartbeat)
            return {};
          {
            std::lock_guard lock(membership_mu_);
            membership_.record_alive(i, Clock::now());
          }
          continue;
        case net::Endpoint::RecvResult::kCorrupt:
          continue;
        case net::Endpoint::RecvResult::kTimeout:
          continue;  // the deadline check above reports it
        case net::Endpoint::RecvResult::kClosed:
          return "node " + std::to_string(i) + " closed its link";
        case net::Endpoint::RecvResult::kError:
          return "node " + std::to_string(i) + " broke the framing (" +
                 error + ")";
      }
    }
  }

  bool send_ladder_frame(std::uint32_t i, net::Frame frame,
                         Clock::time_point deadline) const {
    frame.header.epoch = links_[i]->epoch.load(std::memory_order_acquire);
    std::lock_guard lock(links_[i]->tx);
    const auto now = Clock::now();
    return now < deadline &&
           links_[i]->endpoint->send(frame, deadline - now) ==
               net::Endpoint::SendResult::kOk;
  }

  /// Walk `nodes` up the JOINING -> ACK -> ALIVE ladder on their current
  /// links within `timeout`: answer each join request with kJoinAck and
  /// kNodeConfig (the wire IS the configuration channel: an exec'd
  /// dici_node learns its kernel, cadence and cluster size from it, and
  /// an in-process node takes the identical path), ship each node's
  /// shard assignment as chunked kBuildShard frames, then collect each
  /// build ack. Each phase runs across every node before the next
  /// starts, so the nodes lay out their shards concurrently. Returns an
  /// empty string on success, else a diagnostic naming the node and the
  /// step: the build aborts on it, a re-join returns false.
  std::string join_ladder(std::span<const std::uint32_t> nodes,
                          Clock::duration timeout) const {
    const auto deadline = Clock::now() + timeout;
    net::Frame frame;
    std::string error;
    for (const std::uint32_t i : nodes) {
      std::string failure = recv_ladder_frame(i, deadline, &frame);
      if (!failure.empty()) return failure + " before its join request";
      net::JoinRequestMsg request;
      if (!net::decode_join_request(frame, &request, &error) ||
          request.node_id != i) {
        return "node " + std::to_string(i) + " sent " +
               net::msg_type_name(frame.header.msg_type()) +
               " instead of its join request (" + error + ")";
      }
      {
        std::lock_guard lock(membership_mu_);
        membership_.transition(i, NodeStatus::kJoining);
        membership_.record_alive(i, Clock::now());
      }
      const net::Frame ack = net::encode_join_ack(net::kCoordinatorId,
                                                  {i, config_.num_nodes});
      const net::Frame node_config =
          net::encode_node_config(net::kCoordinatorId, node_config_msg());
      if (!send_ladder_frame(i, ack, deadline) ||
          !send_ladder_frame(i, node_config, deadline))
        return "join ack to node " + std::to_string(i) + " failed to send";
      std::lock_guard lock(membership_mu_);
      membership_.transition(i, NodeStatus::kAck);
    }
    for (const std::uint32_t i : nodes) {
      bool sent = true;
      const std::uint32_t shards =
          for_each_build_shard(i, [&](net::BuildShardMsg&& msg) {
            sent = sent &&
                   send_ladder_frame(
                       i, net::encode_build_shard(net::kCoordinatorId, msg),
                       deadline);
          });
      if (!sent)
        return "shard scatter to node " + std::to_string(i) + " failed to send";
      std::lock_guard lock(membership_mu_);
      membership_.set_shards(i, shards);
    }
    for (const std::uint32_t i : nodes) {
      std::string failure = recv_ladder_frame(i, deadline, &frame);
      if (!failure.empty()) return failure + " before its build ack";
      net::BuildAckMsg ack;
      if (!net::decode_build_ack(frame, &ack, &error)) {
        return "node " + std::to_string(i) + " sent " +
               net::msg_type_name(frame.header.msg_type()) +
               " instead of its build ack (" + error + ")";
      }
      std::lock_guard lock(membership_mu_);
      membership_.transition(i, NodeStatus::kAlive);
      membership_.record_alive(i, Clock::now());
    }
    return {};
  }

  /// Best-effort cluster-info broadcast to the live nodes, after the
  /// build and after every re-join. Other nodes may be dead and the wire
  /// may be faulty: a lost broadcast only stales a node's mirror, never
  /// correctness.
  void broadcast_cluster_info() const {
    net::ClusterInfoMsg info;
    {
      std::lock_guard lock(membership_mu_);
      info.nodes = membership_.to_entries();
    }
    const net::Frame frame =
        net::encode_cluster_info(net::kCoordinatorId, info);
    for (std::uint32_t i = 0; i < config_.num_nodes; ++i) {
      net::Frame stamped = frame;
      stamped.header.epoch = links_[i]->epoch.load(std::memory_order_acquire);
      std::lock_guard lock(links_[i]->tx);
      if (links_[i]->dead.load(std::memory_order_acquire)) continue;
      (void)links_[i]->endpoint->send(stamped, 100ms);
    }
  }

  /// Split one shard replica into chunk-tagged kBuildShard messages.
  template <typename Emit>
  void emit_shard_chunks(std::uint32_t shard,
                         std::span<const key_t> shard_keys, rank_t offset,
                         bool final_shard_of_node, Emit&& emit) const {
    const std::size_t chunks =
        std::max<std::size_t>(1, (shard_keys.size() + kBuildChunkKeys - 1) /
                                     kBuildChunkKeys);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * kBuildChunkKeys;
      const std::size_t count =
          std::min(kBuildChunkKeys, shard_keys.size() - begin);
      net::BuildShardMsg msg;
      msg.shard = shard;
      msg.global_offset = offset + static_cast<rank_t>(begin);
      msg.chunk = static_cast<std::uint32_t>(c);
      msg.last = final_shard_of_node && c + 1 == chunks;
      msg.keys.assign(shard_keys.begin() + static_cast<std::ptrdiff_t>(begin),
                      shard_keys.begin() +
                          static_cast<std::ptrdiff_t>(begin + count));
      emit(std::move(msg));
    }
  }

  /// Enumerate node `i`'s full build-frame sequence (ship order, the
  /// node's final frame last-flagged); returns the shard-replica count
  /// of the assignment. A pure function of the node and the index, so a
  /// re-joined node is bit-identical to its first incarnation.
  template <typename Emit>
  std::uint32_t for_each_build_shard(std::uint32_t i, Emit&& emit) const {
    const std::uint32_t N = config_.num_nodes;
    if (config_.placement == index::Placement::kReplicate) {
      // The paper's replicated strategy: every node holds the whole
      // array (shipped as real bytes) and answers at offset 0.
      emit_shard_chunks(net::kGlobalShard, keys(), 0,
                        /*final_shard_of_node=*/true, emit);
      return 1;
    }
    // kInterleave / kNodeLocal: shard s lives on node s % N. On a wire
    // these are one assignment — a shipped replica is by construction
    // local to its node — so both placement names hit this path.
    const std::uint32_t S = partitioner_.parts();
    std::vector<std::uint32_t> shards;
    for (std::uint32_t s = i; s < S; s += N) shards.push_back(s);
    if (shards.empty()) {
      // More nodes than shards (tiny index): the node still needs its
      // "build complete" marker to ack. An empty last-flagged frame is
      // exactly that.
      net::BuildShardMsg msg;
      msg.shard = net::kGlobalShard;
      msg.last = true;
      emit(std::move(msg));
      return 0;
    }
    for (std::size_t j = 0; j < shards.size(); ++j) {
      const std::uint32_t s = shards[j];
      emit_shard_chunks(s, partitioner_.keys_of(s), partitioner_.start_of(s),
                        /*final_shard_of_node=*/j + 1 == shards.size(), emit);
    }
    return static_cast<std::uint32_t>(shards.size());
  }

  // --- Routing -------------------------------------------------------------

  /// Pick a live node holding `shard`, preferring anyone but `exclude`
  /// (the current, suspect assignment — pass kNoFailure for none).
  /// Under kReplicate every node holds everything, so the scan round-
  /// robins the survivors; otherwise the shard's sole owner is the only
  /// candidate. Returns kNoFailure when no (other) live holder exists.
  std::uint32_t pick_target(std::uint32_t shard, std::uint32_t exclude) const {
    const std::uint32_t N = config_.num_nodes;
    if (shard == net::kGlobalShard &&
        config_.placement == index::Placement::kReplicate) {
      const std::uint64_t start =
          round_robin_.fetch_add(1, std::memory_order_relaxed);
      std::uint32_t fallback = kNoFailure;
      for (std::uint32_t k = 0; k < N; ++k) {
        const auto n = static_cast<std::uint32_t>((start + k) % N);
        if (links_[n]->dead.load(std::memory_order_acquire)) continue;
        if (n == exclude) {
          fallback = n;  // the suspect may end up the only live holder
          continue;
        }
        return n;
      }
      return fallback;
    }
    const std::uint32_t owner = node_of_shard(shard);
    if (links_[owner]->dead.load(std::memory_order_acquire)) return kNoFailure;
    return owner == exclude ? kNoFailure : owner;
  }

  /// A chunk send decided under the submission's chunk_mu and performed
  /// after it is released (flush_sends).
  struct PendingSend {
    std::uint32_t node = 0;
    net::Frame frame;
  };

  /// Queue `frame` for `node` (chunk_mu held). The first
  /// send queued for a flush takes a countdown hold on the submission,
  /// so it cannot complete, and its report be read, before flush_sends
  /// has counted what went out.
  static void queue_send(ClusterSubmission& sub, std::uint32_t node,
                         net::Frame frame, std::vector<PendingSend>& sends) {
    if (sends.empty()) sub.outstanding.fetch_add(1, std::memory_order_relaxed);
    sends.push_back({node, std::move(frame)});
  }

  /// Send `sends` with the submission's chunk_mu released, count the
  /// frames that went out, and drop the hold queue_send took. A skipped
  /// or failed send leaves its chunk unanswered — the sweeper or the
  /// failure path covers it — so this can afford to be fire-and-forget.
  void flush_sends(ClusterSubmission& sub,
                   std::vector<PendingSend>& sends) const {
    if (sends.empty()) return;
    std::vector<std::uint64_t> sent_bytes(sends.size(), 0);
    for (std::size_t k = 0; k < sends.size(); ++k) {
      Link& link = *links_[sends[k].node];
      net::Frame& frame = sends[k].frame;
      frame.header.epoch = link.epoch.load(std::memory_order_acquire);
      std::lock_guard lock(link.tx);
      // A dead link's chunks are fail_node's to re-route.
      if (link.dead.load(std::memory_order_acquire)) continue;
      if (link.endpoint->send(frame, send_timeout()) ==
          net::Endpoint::SendResult::kOk)
        sent_bytes[k] = net::kFrameHeaderBytes + frame.payload.size();
    }
    {
      std::lock_guard lock(sub.chunk_mu);
      for (std::size_t k = 0; k < sends.size(); ++k) {
        if (sent_bytes[k] == 0) continue;
        sub.messages += 1;
        sub.wire_bytes += sent_bytes[k];
        sub.node_sent[sends[k].node] += 1;
        sub.node_sent_bytes[sends[k].node] += sent_bytes[k];
      }
    }
    sends.clear();
    if (sub.finish(1)) {
      std::lock_guard lock(subs_mu_);
      pending_.erase(sub.id);
    }
  }

  /// Write a chunk off as unrecoverable (chunk_mu held): no surviving
  /// replica holds its shard. The caller owns the finish(1).
  static void fail_chunk(ClusterSubmission& sub, Chunk& c,
                         std::uint32_t blame) {
    c.done = true;
    c.frame = {};
    sub.record_failure(blame);
  }

  // --- Failure path --------------------------------------------------------

  /// Mark node `i` DEAD and re-route (failover on) or write off
  /// (failover off / no surviving replica) its unanswered chunks in
  /// every in-flight submission. Runs on node i's receiver thread.
  void fail_node(std::uint32_t i) const {
    {
      // tx-mutex handshake with senders: after this block, any sender
      // that did not already put its frame on the wire will observe
      // `dead` and skip the send.
      std::lock_guard lock(links_[i]->tx);
      if (links_[i]->dead.exchange(true, std::memory_order_acq_rel))
        return;  // another path got here first
    }
    {
      std::lock_guard lock(membership_mu_);
      membership_.transition(i, NodeStatus::kDead);
    }
    links_[i]->endpoint->close();
    std::vector<std::shared_ptr<ClusterSubmission>> subs;
    {
      std::lock_guard lock(subs_mu_);
      subs.reserve(pending_.size());
      for (auto& [id, sub] : pending_) subs.push_back(sub);
    }
    for (const auto& sub : subs) {
      std::uint64_t finished = 0;
      std::vector<PendingSend> sends;
      {
        std::lock_guard lock(sub->chunk_mu);
        for (Chunk& c : sub->chunks) {
          if (c.done || c.node != i) continue;
          const std::uint32_t target =
              config_.failover ? pick_target(c.shard, i) : kNoFailure;
          if (target == kNoFailure || target == i) {
            fail_chunk(*sub, c, i);
            ++finished;
            continue;
          }
          c.node = target;
          c.attempts = 1;
          ++c.hops;
          sub->failovers += 1;
          c.next_retry = Clock::now() + backoff_after(1);
          queue_send(*sub, c.node, c.frame, sends);
        }
      }
      if (finished != 0 && sub->finish(finished)) {
        std::lock_guard lock(subs_mu_);
        pending_.erase(sub->id);
      }
      flush_sends(*sub, sends);
    }
  }

  // --- Serve phase ---------------------------------------------------------

  /// `reply` is the receiver thread's buffer: decode overwrites
  /// every field, so reusing it across replies keeps the ids' and ranks'
  /// capacity instead of allocating them per reply.
  void handle_rank_batch(std::uint32_t i, const net::Frame& frame,
                         net::RankBatchMsg* reply, std::string* error) const {
    net::RankBatchMsg& msg = *reply;
    if (!net::decode_rank_batch(frame, &msg, error)) {
      // The checksum passed, so this is a real protocol breach, not
      // wire damage: stop trusting the node.
      fail_node(i);
      return;
    }
    std::shared_ptr<ClusterSubmission> sub;
    {
      std::lock_guard lock(subs_mu_);
      const auto it = pending_.find(msg.submission);
      if (it == pending_.end()) return;  // reply to a completed/failed batch
      sub = it->second;
    }
    bool claimed = false;
    {
      std::lock_guard lock(sub->chunk_mu);
      if (msg.chunk >= sub->chunks.size()) return;
      Chunk& c = sub->chunks[msg.chunk];
      if (c.done) return;  // duplicate / late copy — already claimed
      // The ids index the caller's output array, and they come from
      // another process: a reply that answers a different number of
      // queries than its chunk carries, or names an id outside the
      // submission, is a protocol breach like a failed decode. Checked
      // before anything is written; the chunk stays unclaimed, so
      // fail_node re-routes or writes it off with the node's others.
      const bool breach =
          msg.ids.size() != c.queries ||
          std::any_of(msg.ids.begin(), msg.ids.end(), [&](std::uint32_t id) {
            return id >= sub->num_queries;
          });
      if (!breach) {
        c.done = true;
        c.frame = {};  // the retained request copy is no longer needed
        claimed = true;
        // The order-preserving merge: scatter by query id. The claim
        // under chunk_mu makes this exactly-once however many
        // duplicated or re-sent copies of the chunk were answered — and
        // whichever node answered, the ranks are global, so a failover
        // reply lands identically.
        for (std::size_t j = 0; j < msg.ids.size(); ++j)
          sub->out[msg.ids[j]] = msg.ranks[j];
        sub->node_queries[i] += msg.ids.size();
        sub->node_busy_ns[i] += msg.busy_ns;
        sub->node_replies[i] += 1;
        sub->node_reply_bytes[i] +=
            net::kFrameHeaderBytes + frame.payload.size();
        if (sub->track_latency) {
          // One arrival stamp for the whole reply (its queries' answers
          // all exist on the coordinator now), read against the submit
          // stamp.
          const double resolved_ns = sub->timer.elapsed_ns();
          if (sub->queued_ns.empty()) {
            sub->node_latency[i].add_n(resolved_ns, msg.ids.size());
          } else {
            for (const std::uint32_t id : msg.ids)
              sub->node_latency[i].add(resolved_ns + sub->queued_ns[id]);
          }
        }
      }
    }
    if (!claimed) {
      fail_node(i);  // chunk_mu released: fail_node takes it per submission
      return;
    }
    if (sub->finish(1)) {
      std::lock_guard lock(subs_mu_);
      pending_.erase(sub->id);
    }
  }

  void receiver_loop(std::uint32_t i) const {
    const auto interval =
        std::chrono::milliseconds(config_.heartbeat_interval_ms);
    const auto timeout =
        std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    auto last_seen = Clock::now();
    // One frame and one reply message for the thread's life, so each
    // recv and decode reuses their capacity (as NodeService::serve does).
    net::Frame frame;
    net::RankBatchMsg reply;
    std::string error;
    while (!stop_.load(std::memory_order_acquire)) {
      switch (links_[i]->endpoint->recv(&frame, interval, &error)) {
        case net::Endpoint::RecvResult::kFrame: {
          last_seen = Clock::now();
          {
            std::lock_guard lock(membership_mu_);
            membership_.record_alive(i, last_seen);
          }
          if (frame.header.msg_type() == net::MsgType::kRankBatch &&
              frame.header.epoch ==
                  links_[i]->epoch.load(std::memory_order_acquire)) {
            handle_rank_batch(i, frame, &reply, &error);
          }
          // Heartbeats carry only liveness (recorded above); any other
          // type — or a rank frame from a stale incarnation — is
          // ignorable noise.
          continue;
        }
        case net::Endpoint::RecvResult::kCorrupt:
          // A damaged frame still proves the node's transmitter is
          // alive; the frame itself is dropped and the sweeper's
          // retries cover whatever it carried.
          last_seen = Clock::now();
          {
            std::lock_guard lock(membership_mu_);
            membership_.record_alive(i, last_seen);
          }
          continue;
        case net::Endpoint::RecvResult::kTimeout:
          if (Clock::now() - last_seen > timeout) {
            fail_node(i);
            return;
          }
          continue;
        case net::Endpoint::RecvResult::kClosed:
          if (!stop_.load(std::memory_order_acquire)) fail_node(i);
          return;
        case net::Endpoint::RecvResult::kError:
          fail_node(i);
          return;
      }
    }
  }

  /// The retry sweeper: one coordinator thread that re-sends every
  /// unanswered chunk whose backoff deadline passed. Retries cover
  /// dropped/corrupted frames on a live link; exhausted retries
  /// escalate to failover — which is what lets a batch complete BEFORE
  /// the heartbeat verdict when a replica-holding node dies mid-stream.
  void sweeper_loop() const {
    const auto backoff = std::chrono::microseconds(config_.retry_backoff_us);
    const auto tick = std::clamp<Clock::duration>(
        backoff / 2, std::chrono::microseconds(500),
        std::chrono::milliseconds(10));
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(tick);
      if (stop_.load(std::memory_order_acquire)) return;
      std::vector<std::shared_ptr<ClusterSubmission>> subs;
      {
        std::lock_guard lock(subs_mu_);
        if (pending_.empty()) continue;
        subs.reserve(pending_.size());
        for (auto& [id, sub] : pending_) subs.push_back(sub);
      }
      for (const auto& sub : subs) {
        std::vector<PendingSend> sends;
        {
          std::lock_guard lock(sub->chunk_mu);
          const auto now = Clock::now();
          for (Chunk& c : sub->chunks) {
            if (c.done || now < c.next_retry) continue;
            if (c.attempts <= config_.max_retries) {
              // One more nudge at the same assignment.
              ++c.attempts;
              sub->retries += 1;
              c.next_retry = now + backoff_after(c.attempts);
              queue_send(*sub, c.node, c.frame, sends);
              continue;
            }
            // Retries exhausted: the assignment is suspect. Re-route to
            // another live replica holder when one exists (hop-capped so
            // two silent-but-alive nodes can't ping-pong a chunk
            // forever); otherwise keep polling the sole owner at the
            // backoff cap until the heartbeat verdict settles it.
            const std::uint32_t target =
                config_.failover && c.hops < config_.num_nodes
                    ? pick_target(c.shard, c.node)
                    : kNoFailure;
            if (target != kNoFailure && target != c.node) {
              c.node = target;
              c.attempts = 1;
              ++c.hops;
              sub->failovers += 1;
              c.next_retry = now + backoff_after(1);
            } else {
              sub->retries += 1;
              c.next_retry = now + backoff_after(config_.max_retries + 1);
            }
            queue_send(*sub, c.node, c.frame, sends);
          }
        }
        flush_sends(*sub, sends);
      }
    }
  }

  std::unique_ptr<Client> do_connect(
      std::shared_ptr<const Index> self) const override;

  ClusterConfig config_;
  index::RangePartitioner partitioner_;
  mutable std::mutex membership_mu_;
  mutable Membership membership_;
  mutable std::vector<std::unique_ptr<Link>> links_;
  mutable std::vector<std::unique_ptr<NodePeer>> nodes_;
  std::shared_ptr<net::FaultController> controller_;  ///< null: no faults
  std::shared_ptr<RecoveryLedger> ledger_;
  mutable std::mutex subs_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<ClusterSubmission>>
      pending_;
  mutable std::atomic<std::uint64_t> next_sub_id_{1};
  mutable std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<bool> stop_{false};
  mutable std::vector<std::thread> receivers_;
  std::thread sweeper_;
};

bool ClusterIndex::rejoin_node(std::uint32_t i) const {
  {
    std::lock_guard lock(membership_mu_);
    DICI_CHECK_FMT(membership_.status(i) == NodeStatus::kDead,
                   "cluster_rejoin_node: node %u is %s, not DEAD — only a "
                   "dead node can re-join",
                   i, node_status_name(membership_.status(i)));
  }
  WallTimer recovery;
  recovery.start();
  // Retire the old incarnation. The receiver exited right after it ran
  // fail_node (which set the DEAD status gating this call), and the old
  // node object's service thread is parked (killed) or gone — both
  // joins are quick.
  if (receivers_[i].joinable()) receivers_[i].join();
  nodes_[i].reset();

  links_[i]->epoch.fetch_add(1, std::memory_order_acq_rel);

  // The re-scatter runs on a healed wire, like the original build —
  // build frames have no retry layer, deliberately. Re-arm afterwards.
  const bool rearm = controller_ != nullptr && controller_->armed();
  if (controller_ != nullptr) controller_->heal();
  std::string error;
  const std::uint32_t one[] = {i};
  const bool ok = attach_node(i, kRejoinTimeout, &error) &&
                  join_ladder(one, kRejoinTimeout).empty();
  if (rearm) controller_->arm();
  if (!ok) {
    // Back to DEAD (legal from kJoining/kAck; no-op from kDead). The
    // fresh node object idles until the next attempt replaces it or the
    // index tears down.
    std::lock_guard lock(membership_mu_);
    membership_.transition(i, NodeStatus::kDead);
    return false;
  }
  {
    std::lock_guard lock(links_[i]->tx);
    links_[i]->dead.store(false, std::memory_order_release);
  }
  receivers_[i] = std::thread([this, i] { receiver_loop(i); });
  broadcast_cluster_info();
  ledger_->rejoins.fetch_add(1, std::memory_order_relaxed);
  ledger_->recovery_ns.fetch_add(
      static_cast<std::uint64_t>(recovery.elapsed_ns()),
      std::memory_order_relaxed);
  return true;
}

/// Waits one submission and assembles its RunReport — or throws
/// NodeFailureError when a node died under it with no surviving
/// replica. Self-contained: holds only the submission record and the
/// recovery ledger, safe to await during client teardown.
class ClusterIndex::ClusterCompletion : public Client::Completion {
 public:
  ClusterCompletion(std::shared_ptr<ClusterSubmission> sub,
                    std::shared_ptr<RecoveryLedger> ledger,
                    const ClusterConfig& config)
      : sub_(std::move(sub)), ledger_(std::move(ledger)),
        num_nodes_(config.num_nodes), batch_bytes_(config.batch_bytes) {}

  bool ready() const override {
    return sub_->done_flag.load(std::memory_order_acquire);
  }

  RunReport await() override {
    ClusterSubmission& sub = *sub_;
    sub.await_done();
    const std::uint32_t failed =
        sub.failed_node.load(std::memory_order_acquire);
    if (failed != kNoFailure) {
      throw NodeFailureError(
          failed, "cluster submission " + std::to_string(sub.id) +
                      " failed: node " + std::to_string(failed) +
                      " is DEAD (heartbeat timeout or link failure) and no "
                      "surviving replica holds its shards");
    }
    // Coordinator-side delta fold, after every rank has landed.
    if (sub.delta != nullptr)
      sub.delta->correct(sub.query_copy, sub.out);

    const std::uint32_t N = num_nodes_;
    RunReport report;
    report.method = Method::kC3;
    report.num_queries = sub.num_queries;
    report.num_nodes = N + 1;
    report.batch_bytes = batch_bytes_;
    report.raw_makespan = ns_to_ps(sub.wall_sec * 1e9);
    report.makespan = report.raw_makespan;
    // Frames that actually left the coordinator — retries and failover
    // re-sends included, so under faults messages > chunk count.
    report.messages = sub.messages;
    report.retries = sub.retries;
    report.failovers = sub.failovers;
    // Re-join events are index-lifetime, harvested exactly once by the
    // first successful await after they happen (merge adds them up).
    report.rejoins = ledger_->rejoins.exchange(0, std::memory_order_acq_rel);
    report.recovery_ns =
        ledger_->recovery_ns.exchange(0, std::memory_order_acq_rel);
    // Unlike ParallelNativeEngine (request hop only, to match the
    // simulator), wire_bytes here is MEASURED traffic on both hops —
    // these bytes actually crossed a transport.
    std::uint64_t reply_bytes = 0;
    std::uint64_t replies = 0;
    for (std::uint32_t i = 0; i < N; ++i) {
      reply_bytes += sub.node_reply_bytes[i];
      replies += sub.node_replies[i];
    }
    report.wire_bytes = sub.wire_bytes + reply_bytes;
    report.nodes.resize(N + 1);
    report.nodes[0].queries = sub.num_queries;
    report.nodes[0].busy = ns_to_ps(sub.dispatch_sec * 1e9);
    report.nodes[0].finish = report.raw_makespan;
    report.nodes[0].idle = report.raw_makespan > report.nodes[0].busy
                               ? report.raw_makespan - report.nodes[0].busy
                               : 0;
    report.nodes[0].nic.messages_sent = sub.messages;
    report.nodes[0].nic.bytes_sent = sub.wire_bytes;
    report.nodes[0].nic.messages_received = replies;
    report.nodes[0].nic.bytes_received = reply_bytes;
    double idle_sum = 0.0;
    for (std::uint32_t i = 0; i < N; ++i) {
      NodeReport& node = report.nodes[i + 1];
      node.queries = sub.node_queries[i];
      node.busy = sub.node_busy_ns[i] * 1000;  // ns -> ps
      node.finish = report.raw_makespan;
      node.idle = report.raw_makespan > node.busy
                      ? report.raw_makespan - node.busy
                      : 0;
      node.nic.messages_sent = sub.node_replies[i];
      node.nic.bytes_sent = sub.node_reply_bytes[i];
      node.nic.messages_received = sub.node_sent[i];
      node.nic.bytes_received = sub.node_sent_bytes[i];
      const double busy_sec = static_cast<double>(sub.node_busy_ns[i]) / 1e9;
      if (sub.wall_sec > 0.0)
        idle_sum += std::max(0.0, 1.0 - busy_sec / sub.wall_sec);
    }
    report.slave_idle_fraction = N > 0 ? idle_sum / N : 0.0;
    for (Summary& s : sub.node_latency) report.latency_ns.merge(s);
    return report;
  }

 private:
  std::shared_ptr<ClusterSubmission> sub_;
  std::shared_ptr<RecoveryLedger> ledger_;
  std::uint32_t num_nodes_;
  std::uint64_t batch_bytes_;
};

std::unique_ptr<Client::Completion> ClusterIndex::submit_batch(
    std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
    const SubmitOptions& options) const {
  const std::uint32_t N = config_.num_nodes;
  auto sub = std::make_shared<ClusterSubmission>(
      next_sub_id_.fetch_add(1, std::memory_order_relaxed), N,
      config_.track_latency);
  if (out_ranks != nullptr) {
    out_ranks->assign(queries.size(), 0);
    sub->out = out_ranks->data();
  } else {
    sub->sink.assign(queries.size(), 0);
    sub->out = sub->sink.data();
  }
  sub->num_queries = queries.size();
  if (options.delta != nullptr && !options.delta->empty()) {
    sub->delta = options.delta;
    sub->query_copy.assign(queries.begin(), queries.end());
  }
  if (config_.track_latency && !options.queued_ns.empty())
    sub->queued_ns.assign(options.queued_ns.begin(), options.queued_ns.end());

  // Registered BEFORE any frame leaves, so a node death during the
  // dispatch loop already finds (and re-routes or fails) this
  // submission — and the sweeper starts covering its chunks.
  {
    std::lock_guard lock(subs_mu_);
    pending_.emplace(sub->id, sub);
  }

  const bool replicate = config_.placement == index::Placement::kReplicate;
  const std::uint32_t lanes = replicate ? N : partitioner_.parts();
  std::uint64_t round_robin = 0;
  std::uint32_t next_chunk = 0;
  std::vector<PendingSend> sends;

  sub->timer.start();
  WallTimer dispatch_timer;
  dispatch_timer.start();
  core::dispatch_master_rounds(
      queries, config_.batch_bytes, lanes,
      [&](key_t q) -> std::uint32_t {
        // kReplicate balances by turn, not by key range: lanes are just
        // round groupings, the serving node is chosen per-chunk at
        // flush (so the rotation skips dead nodes).
        return replicate ? static_cast<std::uint32_t>(round_robin++ % N)
                         : partitioner_.route(q);
      },
      [&](std::uint32_t lane, DispatchBatch&& batch) {
        net::QueryBatchMsg msg;
        msg.submission = sub->id;
        msg.shard = replicate ? net::kGlobalShard : lane;
        msg.chunk = next_chunk++;
        msg.keys = std::move(batch.keys);
        msg.ids = std::move(batch.ids);
        net::Frame frame = net::encode_query_batch(net::kCoordinatorId, msg);
        {
          std::lock_guard lock(sub->chunk_mu);
          Chunk& c = sub->chunks.emplace_back();
          c.shard = msg.shard;
          c.queries = static_cast<std::uint32_t>(msg.keys.size());
          // Hold taken BEFORE the send so the countdown can never hit
          // zero while chunks are still being created; the submitter's
          // own hold keeps a failed first chunk from completing early.
          sub->outstanding.fetch_add(1, std::memory_order_relaxed);
          const std::uint32_t target = pick_target(c.shard, kNoFailure);
          if (target == kNoFailure) {
            // No live holder for this shard: submitting into a grave.
            fail_chunk(*sub, c, replicate ? 0 : node_of_shard(c.shard));
            sub->finish(1);  // cannot complete: the submitter's hold is out
            return;
          }
          c.node = target;
          c.attempts = 1;
          c.next_retry = Clock::now() + backoff_after(1);
          c.frame = frame;  // the retained copy retries and failover re-send
          queue_send(*sub, target, std::move(frame), sends);
        }
        flush_sends(*sub, sends);
      });
  sub->dispatch_sec = dispatch_timer.elapsed_sec();
  // Release the submitter's hold; completes immediately on zero work
  // (or when every chunk was written off at submit time).
  if (sub->finish(1)) {
    std::lock_guard lock(subs_mu_);
    pending_.erase(sub->id);
  }
  return std::make_unique<ClusterCompletion>(std::move(sub), ledger_,
                                             config_);
}

/// One master stream into the cluster. All the machinery lives in the
/// ClusterIndex (links are shared and tx-serialized), so the client is
/// just the do_submit forwarder plus the base ledger.
class ClusterClient : public Client {
 public:
  ClusterClient(std::shared_ptr<const Index> index,
                const ClusterIndex* cluster)
      : Client(std::move(index)), cluster_(cluster) {}

  const char* backend() const override {
    return core::backend_name(Backend::kCluster);
  }

 private:
  std::unique_ptr<Completion> do_submit(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) override {
    return cluster_->submit_batch(queries, out_ranks, options);
  }

  const ClusterIndex* cluster_;  // the index the base class keeps alive
};

std::unique_ptr<Client> ClusterIndex::do_connect(
    std::shared_ptr<const Index> self) const {
  return std::make_unique<ClusterClient>(std::move(self), this);
}

const ClusterIndex* as_cluster(const core::Index& index, const char* who) {
  const auto* cluster = dynamic_cast<const ClusterIndex*>(&index);
  DICI_CHECK_FMT(cluster != nullptr,
                 "%s: index backend is %s, not a cluster index", who,
                 index.backend());
  return cluster;
}

void check_node_range(const ClusterIndex& cluster, std::uint32_t node,
                      const char* who) {
  DICI_CHECK_FMT(node < cluster.config().num_nodes,
                 "%s: node %u out of range (cluster has %u nodes)", who, node,
                 cluster.config().num_nodes);
}

}  // namespace

std::shared_ptr<const core::Index> ClusterEngine::build(
    std::span<const key_t> index_keys) const {
  return std::make_shared<const ClusterIndex>(config_, index_keys);
}

void cluster_kill_node_for_test(const core::Index& index, std::uint32_t node) {
  const ClusterIndex* cluster =
      as_cluster(index, "cluster_kill_node_for_test");
  check_node_range(*cluster, node, "cluster_kill_node_for_test");
  cluster->kill_node(node);
}

bool cluster_rejoin_node(const core::Index& index, std::uint32_t node) {
  const ClusterIndex* cluster = as_cluster(index, "cluster_rejoin_node");
  check_node_range(*cluster, node, "cluster_rejoin_node");
  return cluster->rejoin_node(node);
}

NodeStatus cluster_node_status(const core::Index& index, std::uint32_t node) {
  const ClusterIndex* cluster = as_cluster(index, "cluster_node_status");
  check_node_range(*cluster, node, "cluster_node_status");
  return cluster->node_status(node);
}

std::vector<int> cluster_node_pids(const core::Index& index) {
  return as_cluster(index, "cluster_node_pids")->node_pids();
}

std::shared_ptr<net::FaultController> cluster_fault_controller(
    const core::Index& index) {
  return as_cluster(index, "cluster_fault_controller")->fault_controller();
}

}  // namespace dici::cluster
