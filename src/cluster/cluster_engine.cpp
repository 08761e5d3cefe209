#include "src/cluster/cluster_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cluster/coordinator.hpp"
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

/// Index-lifetime recovery accounting: re-join events and their wall
/// time. Held by shared_ptr so a Completion can harvest (exchange-to-
/// zero) after the index itself is gone; RunReport::merge adds, so
/// events are reported exactly once however many batches a stream runs.
struct RecoveryLedger {
  std::atomic<std::uint64_t> rejoins{0};
  std::atomic<std::uint64_t> recovery_ns{0};
};

/// A chunk's retained request: the encoded frame every retry and
/// failover sends again, and the query ids a reply must echo and its
/// ranks scatter by. Read-only once the Coordinator knows the chunk.
struct Retained {
  net::Frame frame;
  std::vector<std::uint32_t> ids;
};

/// The index's record of one submitted batch: where its ranks go, what
/// it retained, and what it cost. Its chunk ledger lives in the
/// Coordinator. The middle block is guarded by the index mutex, except
/// each node row's reply fields, which only that node's receiver
/// writes. await() reads it all after the completion signal.
struct ClusterSubmission {
  ClusterSubmission(std::uint32_t num_nodes, bool track_latency_)
      : track_latency(track_latency_), nodes(num_nodes),
        node_latency(track_latency_ ? num_nodes : 0) {}

  std::uint64_t id = 0;
  rank_t* out = nullptr;
  std::vector<rank_t> sink;  ///< backs `out` when the caller passed none

  bool track_latency = false;
  std::vector<double> queued_ns;  ///< per query id; empty = no prior wait

  /// Coordinator-side delta fold: nodes resolve base ranks only, and
  /// await() corrects the scattered results. query_copy holds the
  /// queries because the caller's span dies with submit().
  std::shared_ptr<const index::DeltaSnapshot> delta;
  std::vector<key_t> query_copy;

  std::deque<Retained> chunks;  ///< deque: stable addresses, by chunk id
  std::uint64_t messages = 0;    ///< frames sent (retries included)
  std::uint64_t wire_bytes = 0;  ///< request-hop serialized bytes
  std::uint64_t retries = 0;     ///< re-sends of unanswered chunks
  std::uint64_t failovers = 0;   ///< chunks re-routed to another replica
  /// The node a failure names. A recovered fault (retry or failover
  /// worked) never sets this.
  std::optional<std::uint32_t> failed_node;
  /// RunReport's node rows: nic.messages_received and bytes_received
  /// count sends; queries, busy and nic's sent side count replies.
  std::vector<NodeReport> nodes;
  std::vector<Summary> node_latency;  ///< node i's receiver only

  std::uint64_t num_queries = 0;
  double dispatch_sec = 0.0;  ///< written by the submitter before seal
  WallTimer timer;            ///< started at submit
  double wall_sec = 0.0;      ///< stamped by the last release()

  /// One hold for the Coordinator's verdict (kComplete or kFail) plus
  /// one per claimed reply still being scattered.
  std::atomic<std::uint32_t> holds{1};
  std::mutex mu;  ///< the completion signal await() blocks on
  std::condition_variable cv;
  std::atomic<bool> done{false};

  void release() {
    if (holds.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    wall_sec = timer.elapsed_sec();
    {
      std::lock_guard lock(mu);
      done.store(true, std::memory_order_release);
    }
    cv.notify_all();
  }

  void await_done() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done.load(std::memory_order_acquire); });
  }
};

/// One coordinator->node link. `tx` serializes its senders and guards
/// `epoch`, the incarnation the endpoint serves (0 once dead): a send
/// decided for another one is skipped, so it reaches neither a closed
/// link nor the fresh node a re-join put in its place.
struct Link {
  std::unique_ptr<net::Endpoint> endpoint;
  std::mutex tx;
  std::uint32_t epoch = 0;
};

/// What the Coordinator decided in one call, resolved under the index
/// mutex into what its caller performs after releasing it. Each thread
/// reuses its own, so the vectors keep their capacity.
struct Work {
  struct Send {
    std::shared_ptr<ClusterSubmission> sub;  ///< keeps `chunk` alive
    const Retained* chunk;
    std::uint32_t node;
    std::uint32_t epoch;
  };
  Coordinator::Actions actions;
  std::vector<Send> sends;
  std::vector<std::shared_ptr<ClusterSubmission>> verdicts;
};

/// Waits one submission and assembles its RunReport — or throws
/// NodeFailureError when a node died under it with no surviving
/// replica. Self-contained: holds only the submission record and the
/// recovery ledger, safe to await during client teardown.
class ClusterCompletion : public Client::Completion {
 public:
  ClusterCompletion(std::shared_ptr<ClusterSubmission> sub,
                    std::shared_ptr<RecoveryLedger> ledger,
                    std::uint64_t batch_bytes)
      : sub_(std::move(sub)), ledger_(std::move(ledger)),
        batch_bytes_(batch_bytes) {}

  bool ready() const override {
    return sub_->done.load(std::memory_order_acquire);
  }

  RunReport await() override {
    ClusterSubmission& sub = *sub_;
    sub.await_done();
    if (const auto failed = sub.failed_node) {
      throw NodeFailureError(
          *failed, "cluster submission " + std::to_string(sub.id) +
                       " failed: node " + std::to_string(*failed) +
                       " is DEAD (heartbeat timeout or link failure) and no "
                       "surviving replica holds its shards");
    }
    // Coordinator-side delta fold, after every rank has landed.
    if (sub.delta != nullptr)
      sub.delta->correct(sub.query_copy, sub.out);

    const auto N = static_cast<std::uint32_t>(sub.nodes.size());
    RunReport report;
    report.method = Method::kC3;
    report.num_queries = sub.num_queries;
    report.num_nodes = N + 1;
    report.batch_bytes = batch_bytes_;
    report.raw_makespan = ns_to_ps(sub.wall_sec * 1e9);
    report.makespan = report.raw_makespan;
    // Frames sent, retries and failover re-sends included, so under
    // faults messages > chunk count.
    report.messages = sub.messages;
    report.retries = sub.retries;
    report.failovers = sub.failovers;
    // Re-join events are index-lifetime, harvested exactly once by the
    // first successful await after they happen (merge adds them up).
    report.rejoins = ledger_->rejoins.exchange(0, std::memory_order_acq_rel);
    report.recovery_ns =
        ledger_->recovery_ns.exchange(0, std::memory_order_acq_rel);
    report.nodes.reserve(N + 1);  // keeps `coordinator` valid
    report.nodes.resize(1);
    NodeReport& coordinator = report.nodes[0];
    coordinator.queries = sub.num_queries;
    coordinator.busy = ns_to_ps(sub.dispatch_sec * 1e9);
    coordinator.nic.messages_sent = sub.messages;
    coordinator.nic.bytes_sent = sub.wire_bytes;
    double idle_sum = 0.0;
    for (const NodeReport& node : sub.nodes) {
      coordinator.nic.messages_received += node.nic.messages_sent;
      coordinator.nic.bytes_received += node.nic.bytes_sent;
      if (sub.wall_sec > 0.0)
        idle_sum += std::max(0.0, 1.0 - ps_to_sec(node.busy) / sub.wall_sec);
      report.nodes.push_back(node);
    }
    for (NodeReport& node : report.nodes) {
      node.finish = report.raw_makespan;
      node.idle = report.raw_makespan > node.busy
                      ? report.raw_makespan - node.busy
                      : 0;
    }
    // Unlike ParallelNativeEngine (request hop only, to match the
    // simulator), wire_bytes here is MEASURED traffic on both hops —
    // these bytes actually crossed a transport.
    report.wire_bytes = sub.wire_bytes + coordinator.nic.bytes_received;
    report.slave_idle_fraction = idle_sum / N;
    for (Summary& s : sub.node_latency) report.latency_ns.merge(s);
    return report;
  }

 private:
  std::shared_ptr<ClusterSubmission> sub_;
  std::shared_ptr<RecoveryLedger> ledger_;
  std::uint64_t batch_bytes_;
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
        core_(config),
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
    for (auto& link : links_) {
      std::lock_guard lock(link->tx);
      if (link->epoch != 0)
        (void)link->endpoint->send(net::encode_shutdown(net::kCoordinatorId),
                                   10ms);
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
    std::lock_guard lock(mu_);
    return core_.membership().status(node);
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
  /// Give node slot `i` a fresh node on a fresh link for the node's
  /// current epoch: spawned per the configured transport (so a re-joined
  /// process node is a genuinely fresh child), and fault-decorated at the
  /// coordinator's end when the config injects faults. False, with a
  /// diagnostic in *error, when the node never came up: the spawn failed,
  /// or a tcp child never connected back within `timeout`.
  bool attach_node(std::uint32_t i, Clock::duration timeout,
                   std::string* error) const {
    std::unique_ptr<net::Endpoint> endpoint;
    if (!net::transport_is_process(config_.transport)) {
      auto [coordinator_end, node_end] =
          net::make_transport_pair(config_.transport);
      endpoint = std::move(coordinator_end);
      nodes_[i] = std::make_unique<ClusterNode>(i, std::move(node_end));
    } else {
      const std::string binary = config_.node_binary.empty()
                                     ? ProcessNode::default_binary()
                                     : config_.node_binary;
      if (config_.transport == net::TransportKind::kFork) {
        int fds[2];
        net::cloexec_socketpair(fds);
        endpoint = std::make_unique<net::FdEndpoint>(fds[0]);
        nodes_[i] = ProcessNode::spawn_fd(binary, i, fds[1], error);
      } else {
        net::TcpListener listener;
        nodes_[i] =
            ProcessNode::spawn_connect(binary, i, listener.port(), error);
        std::string accept_error;
        if (nodes_[i] != nullptr &&
            (endpoint = listener.accept(timeout, &accept_error)) == nullptr)
          *error = "spawned node " + std::to_string(i) +
                   " never connected back to the coordinator's listener (" +
                   accept_error + ")";
      }
      if (nodes_[i] == nullptr || endpoint == nullptr) return false;
    }
    std::uint32_t epoch = 0;
    {
      std::lock_guard lock(mu_);
      epoch = core_.epoch(i);
    }
    if (controller_ != nullptr) {
      endpoint = net::decorate_coordinator_end(
          std::move(endpoint), controller_, config_.faults, i, epoch);
    }
    std::lock_guard lock(links_[i]->tx);
    links_[i]->endpoint = std::move(endpoint);
    links_[i]->epoch = epoch;
    return true;
  }

  /// Stop sending to node `i` and close its link, which ends its
  /// receiver's recv. Every path that kills a node ends here.
  void close_link(std::uint32_t i) const {
    {
      std::lock_guard lock(links_[i]->tx);
      links_[i]->epoch = 0;
    }
    links_[i]->endpoint->close();
  }

  // --- The join ladder (build, and every re-join) -------------------------

  /// Receive node `i`'s next ladder frame before `deadline`, skipping
  /// heartbeats and frames the wire damaged.
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
          continue;
        case net::Endpoint::RecvResult::kCorrupt:
        case net::Endpoint::RecvResult::kTimeout:  // checked above
          continue;
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
    std::lock_guard lock(links_[i]->tx);
    frame.header.epoch = links_[i]->epoch;
    const auto now = Clock::now();
    return now < deadline &&
           links_[i]->endpoint->send(frame, deadline - now) ==
               net::Endpoint::SendResult::kOk;
  }

  /// Walk `nodes` up the JOINING -> ACK -> ALIVE ladder on their current
  /// links within `timeout`: answer each join request with kJoinAck and
  /// kNodeConfig (the wire is the configuration channel, for an exec'd
  /// dici_node and an in-process node alike), ship each node's shards as
  /// kBuildShard frames, then collect each build ack. Each phase spans
  /// every node before the next starts, so the nodes lay out their
  /// shards concurrently. Empty on success, else a diagnostic naming the
  /// node and the step: the build aborts on it, a re-join returns false.
  std::string join_ladder(std::span<const std::uint32_t> nodes,
                          Clock::duration timeout) const {
    const auto deadline = Clock::now() + timeout;
    net::Frame frame;
    std::string error;
    const auto unexpected = [&](std::uint32_t i, const char* instead_of) {
      return "node " + std::to_string(i) + " sent " +
             net::msg_type_name(frame.header.msg_type()) + " instead of its " +
             instead_of + " (" + error + ")";
    };
    for (const std::uint32_t i : nodes) {
      std::string failure = recv_ladder_frame(i, deadline, &frame);
      if (!failure.empty()) return failure + " before its join request";
      net::JoinRequestMsg request;
      if (!net::decode_join_request(frame, &request, &error) ||
          request.node_id != i)
        return unexpected(i, "join request");
      {
        std::lock_guard lock(mu_);
        core_.membership().transition(i, NodeStatus::kJoining);
      }
      const net::Frame ack = net::encode_join_ack(net::kCoordinatorId,
                                                  {i, config_.num_nodes});
      const net::Frame node_config = net::encode_node_config(
          net::kCoordinatorId,
          {static_cast<std::uint8_t>(config_.kernel),
           config_.heartbeat_interval_ms, config_.num_nodes});
      if (!send_ladder_frame(i, ack, deadline) ||
          !send_ladder_frame(i, node_config, deadline))
        return "join ack to node " + std::to_string(i) + " failed to send";
      std::lock_guard lock(mu_);
      core_.membership().transition(i, NodeStatus::kAck);
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
      std::lock_guard lock(mu_);
      core_.membership().set_shards(i, shards);
    }
    for (const std::uint32_t i : nodes) {
      std::string failure = recv_ladder_frame(i, deadline, &frame);
      if (!failure.empty()) return failure + " before its build ack";
      net::BuildAckMsg ack;
      if (!net::decode_build_ack(frame, &ack, &error))
        return unexpected(i, "build ack");
      std::lock_guard lock(mu_);
      core_.on_rejoin(i);
    }
    return {};
  }

  /// Best-effort cluster-info broadcast to the live nodes, after the
  /// build and every re-join: a lost one only stales a node's mirror.
  void broadcast_cluster_info() const {
    net::ClusterInfoMsg info;
    {
      std::lock_guard lock(mu_);
      info.nodes = core_.membership().to_entries();
    }
    net::Frame frame = net::encode_cluster_info(net::kCoordinatorId, info);
    for (auto& link : links_) {
      std::lock_guard lock(link->tx);
      if (link->epoch == 0) continue;
      frame.header.epoch = link->epoch;
      (void)link->endpoint->send(frame, 100ms);
    }
  }

  /// Enumerate node `i`'s build frames in ship order, its final frame
  /// last-flagged, and return its shard-replica count. A pure function
  /// of the node and the index, so a re-joined node is bit-identical to
  /// its first incarnation.
  template <typename Emit>
  std::uint32_t for_each_build_shard(std::uint32_t i, Emit&& emit) const {
    struct Replica {
      std::uint32_t shard;
      std::span<const key_t> keys;
      rank_t offset;
    };
    std::vector<Replica> replicas;
    if (config_.placement == index::Placement::kReplicate) {
      // The paper's replicated strategy: every node holds the whole
      // array (shipped as real bytes) and answers at offset 0.
      replicas.push_back({net::kGlobalShard, keys(), 0});
    } else {
      // kInterleave / kNodeLocal: shard s lives on node s % N. On a wire
      // these are one assignment — a shipped replica is by construction
      // local to its node — so both placement names take this path.
      for (std::uint32_t s = i; s < partitioner_.parts();
           s += config_.num_nodes)
        replicas.push_back(
            {s, partitioner_.keys_of(s), partitioner_.start_of(s)});
    }
    const auto count = static_cast<std::uint32_t>(replicas.size());
    // More nodes than shards (tiny index): the node still needs its
    // "build complete" marker to ack, and an empty frame is exactly that.
    if (replicas.empty()) replicas.push_back({net::kGlobalShard, {}, 0});
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const Replica& replica = replicas[r];
      const std::size_t frames = std::max<std::size_t>(
          1, (replica.keys.size() + kBuildChunkKeys - 1) / kBuildChunkKeys);
      for (std::size_t c = 0; c < frames; ++c) {
        const std::size_t begin = c * kBuildChunkKeys;
        const auto part = replica.keys.subspan(
            begin, std::min(kBuildChunkKeys, replica.keys.size() - begin));
        net::BuildShardMsg msg;
        msg.shard = replica.shard;
        msg.global_offset = replica.offset + static_cast<rank_t>(begin);
        msg.chunk = static_cast<std::uint32_t>(c);
        msg.last = r + 1 == replicas.size() && c + 1 == frames;
        msg.keys.assign(part.begin(), part.end());
        emit(std::move(msg));
      }
    }
    return count;
  }

  // --- Acting on the Coordinator's decisions ------------------------------

  /// Turn `work.actions` into work (index mutex held): count each send
  /// and retire each finished submission from subs_. (A claim is the
  /// receiver's to take: it holds the reply.) A chunk's first send stamps
  /// the epoch into its retained frame, so that send, and every later one
  /// to the same incarnation, goes out without a copy.
  void resolve(Work& work) const {
    using Kind = Coordinator::Action::Kind;
    for (const Coordinator::Action& a : work.actions) {
      const auto it = subs_.find(a.sub);
      const std::shared_ptr<ClusterSubmission>& sub = it->second;
      switch (a.kind) {
        case Kind::kSend: {
          Retained& chunk = sub->chunks[a.chunk];
          if (a.cause == Coordinator::Cause::kFirst)
            chunk.frame.header.epoch = a.epoch;
          sub->retries += a.cause == Coordinator::Cause::kRetry;
          sub->failovers += a.cause == Coordinator::Cause::kFailover;
          const std::uint64_t bytes =
              net::kFrameHeaderBytes + chunk.frame.payload.size();
          sub->messages += 1;
          sub->wire_bytes += bytes;
          sub->nodes[a.node].nic.messages_received += 1;
          sub->nodes[a.node].nic.bytes_received += bytes;
          work.sends.push_back({sub, &chunk, a.node, a.epoch});
          break;
        }
        case Kind::kClaim:
          break;
        case Kind::kFail:
          sub->failed_node = a.node;
          [[fallthrough]];
        case Kind::kComplete:
          work.verdicts.push_back(sub);
          subs_.erase(it);
          break;
      }
    }
    work.actions.clear();
  }

  /// Perform what resolve() collected, with the index mutex released:
  /// drop the verdicts' holds, then send. A skipped or failed send
  /// leaves its chunk unanswered, for the sweeper or the failure path.
  void perform(Work& work) const {
    for (const auto& sub : work.verdicts) sub->release();
    work.verdicts.clear();
    for (const Work::Send& send : work.sends) {
      const net::Frame* frame = &send.chunk->frame;
      net::Frame stamped;
      if (frame->header.epoch != send.epoch) {
        stamped = *frame;  // first sent to another incarnation
        stamped.header.epoch = send.epoch;
        frame = &stamped;
      }
      Link& link = *links_[send.node];
      std::lock_guard lock(link.tx);
      if (link.epoch == send.epoch)
        (void)link.endpoint->send(
            *frame, std::chrono::milliseconds(config_.heartbeat_timeout_ms));
    }
    work.sends.clear();
  }

  /// Declare node `i` dead: the Coordinator moves or writes off its
  /// chunks in every in-flight submission, and its link closes.
  void fail_node(std::uint32_t i) const {
    Work work;
    {
      std::lock_guard lock(mu_);
      core_.on_node_dead(i, Clock::now(), &work.actions);
      resolve(work);
    }
    close_link(i);
    perform(work);
  }

  // --- Serve phase ---------------------------------------------------------

  /// Claim and scatter one kRankBatch from node `i`. `reply` is the
  /// receiver thread's buffer: decode overwrites every field, so reusing
  /// it keeps the ids' and ranks' capacity. False when the reply broke
  /// the protocol, which fails the node and ends its receiver.
  bool handle_rank_batch(std::uint32_t i, const net::Frame& frame,
                         net::RankBatchMsg* reply, Work* work,
                         std::string* error) const {
    net::RankBatchMsg& msg = *reply;
    if (!net::decode_rank_batch(frame, &msg, error)) {
      // The checksum passed, so this is a real protocol breach, not
      // wire damage: stop trusting the node.
      fail_node(i);
      return false;
    }
    const auto now = Clock::now();
    Coordinator::Reply verdict;
    std::shared_ptr<ClusterSubmission> claimed;
    const Retained* request = nullptr;
    {
      std::lock_guard lock(mu_);
      // The ranks land at out[id], and the reply comes from another
      // process: it is well formed only if it answers exactly its
      // chunk's queries, in the order they were sent.
      const auto it = subs_.find(msg.submission);
      if (it != subs_.end() && msg.chunk < it->second->chunks.size())
        request = &it->second->chunks[msg.chunk];
      verdict = core_.on_reply(i, frame.header.epoch, msg.submission,
                               msg.chunk,
                               request != nullptr && request->ids == msg.ids,
                               now, &work->actions);
      if (verdict == Coordinator::Reply::kClaimed) {
        claimed = it->second;
        claimed->holds.fetch_add(1, std::memory_order_relaxed);
      }
      resolve(*work);  // may retire `it`, if the claim completed it
    }
    // The claim makes this exactly-once however many copies of the
    // chunk were answered, and it scatters by the chunk's own ids.
    if (claimed != nullptr) {
      ClusterSubmission& sub = *claimed;
      const std::vector<std::uint32_t>& ids = request->ids;
      for (std::size_t j = 0; j < ids.size(); ++j)
        sub.out[ids[j]] = msg.ranks[j];
      NodeReport& row = sub.nodes[i];
      row.queries += ids.size();
      row.busy += msg.busy_ns * 1000;  // ns -> ps
      row.nic.messages_sent += 1;
      row.nic.bytes_sent += net::kFrameHeaderBytes + frame.payload.size();
      if (sub.track_latency) {
        // One arrival stamp for the whole reply (its queries' answers
        // all exist on the coordinator now), read against the submit
        // stamp.
        const double resolved_ns = sub.timer.elapsed_ns();
        if (sub.queued_ns.empty()) {
          sub.node_latency[i].add_n(resolved_ns, ids.size());
        } else {
          for (const std::uint32_t id : ids)
            sub.node_latency[i].add(resolved_ns + sub.queued_ns[id]);
        }
      }
      sub.release();
    }
    perform(*work);
    if (verdict != Coordinator::Reply::kBreach) return true;
    close_link(i);  // the Coordinator already moved the node's chunks
    return false;
  }

  void receiver_loop(std::uint32_t i) const {
    const auto interval =
        std::chrono::milliseconds(config_.heartbeat_interval_ms);
    const auto timeout =
        std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    auto last_seen = Clock::now();
    // One frame, reply message and work list for the thread's life, so
    // each recv, decode and claim reuses their capacity.
    net::Frame frame;
    net::RankBatchMsg reply;
    Work work;
    std::string error;
    while (!stop_.load(std::memory_order_acquire)) {
      switch (links_[i]->endpoint->recv(&frame, interval, &error)) {
        case net::Endpoint::RecvResult::kFrame:
          last_seen = Clock::now();
          // Heartbeats carry only liveness, recorded above; any other
          // type is ignorable noise.
          if (frame.header.msg_type() == net::MsgType::kRankBatch &&
              !handle_rank_batch(i, frame, &reply, &work, &error))
            return;
          continue;
        case net::Endpoint::RecvResult::kCorrupt:
          // A damaged frame still proves the node's transmitter is
          // alive; the frame itself is dropped and the sweeper's
          // retries cover whatever it carried.
          last_seen = Clock::now();
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

  /// The retry sweeper: hands the Coordinator the clock, which re-sends
  /// every unanswered chunk whose backoff ran out. Exhausted retries
  /// escalate to failover, which lets a batch complete BEFORE the
  /// heartbeat verdict when a replica-holding node dies mid-stream.
  void sweeper_loop() const {
    const auto backoff = std::chrono::microseconds(config_.retry_backoff_us);
    const auto tick = std::clamp<Clock::duration>(
        backoff / 2, std::chrono::microseconds(500),
        std::chrono::milliseconds(10));
    Work work;
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(tick);
      {
        std::lock_guard lock(mu_);
        core_.on_tick(Clock::now(), &work.actions);
        resolve(work);
      }
      perform(work);
    }
  }

  std::unique_ptr<Client> do_connect(
      std::shared_ptr<const Index> self) const override;

  ClusterConfig config_;
  index::RangePartitioner partitioner_;
  /// The coordinator's one lock: it guards core_, subs_, and each
  /// submission's retained chunks and send counters.
  mutable std::mutex mu_;
  mutable Coordinator core_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<ClusterSubmission>>
      subs_;
  mutable std::vector<std::unique_ptr<Link>> links_;
  mutable std::vector<std::unique_ptr<NodePeer>> nodes_;
  std::shared_ptr<net::FaultController> controller_;  ///< null: no faults
  std::shared_ptr<RecoveryLedger> ledger_;
  std::atomic<bool> stop_{false};
  mutable std::vector<std::thread> receivers_;
  std::thread sweeper_;
};

bool ClusterIndex::rejoin_node(std::uint32_t i) const {
  {
    std::lock_guard lock(mu_);
    const NodeStatus status = core_.membership().status(i);
    DICI_CHECK_FMT(status == NodeStatus::kDead,
                   "cluster_rejoin_node: node %u is %s, not DEAD — only a "
                   "dead node can re-join",
                   i, node_status_name(status));
  }
  WallTimer recovery;
  recovery.start();
  // Retire the old incarnation: its receiver exited right after it
  // failed the node, and its node is parked (killed) or gone, so both
  // joins are quick. The death already bumped the epoch.
  if (receivers_[i].joinable()) receivers_[i].join();
  nodes_[i].reset();

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
    fail_node(i);  // back to DEAD, the fresh link closed
    return false;
  }
  receivers_[i] = std::thread([this, i] { receiver_loop(i); });
  broadcast_cluster_info();
  ledger_->rejoins.fetch_add(1, std::memory_order_relaxed);
  ledger_->recovery_ns.fetch_add(
      static_cast<std::uint64_t>(recovery.elapsed_ns()),
      std::memory_order_relaxed);
  return true;
}

std::unique_ptr<Client::Completion> ClusterIndex::submit_batch(
    std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
    const SubmitOptions& options) const {
  const std::uint32_t N = config_.num_nodes;
  auto sub = std::make_shared<ClusterSubmission>(N, config_.track_latency);
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
  {
    std::lock_guard lock(mu_);
    sub->id = core_.open();
    subs_.emplace(sub->id, sub);
  }

  const bool replicate = config_.placement == index::Placement::kReplicate;
  const std::uint32_t lanes = replicate ? N : partitioner_.parts();
  std::uint64_t round_robin = 0;
  std::uint32_t next_chunk = 0;
  Work work;

  sub->timer.start();
  WallTimer dispatch_timer;
  dispatch_timer.start();
  core::dispatch_master_rounds(
      queries, config_.batch_bytes, lanes,
      [&](key_t q) -> std::uint32_t {
        // kReplicate balances by turn, not by key range: lanes are just
        // round groupings, and the Coordinator picks each chunk's node.
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
        Retained chunk{net::encode_query_batch(net::kCoordinatorId, msg),
                       std::move(msg.ids)};
        const auto now = Clock::now();
        {
          std::lock_guard lock(mu_);
          sub->chunks.push_back(std::move(chunk));
          core_.submit(sub->id, msg.shard, now, &work.actions);
          resolve(work);
        }
        perform(work);
      });
  sub->dispatch_sec = dispatch_timer.elapsed_sec();
  {
    // Completes at once on zero work, or when every chunk is already
    // claimed.
    std::lock_guard lock(mu_);
    core_.seal(sub->id, &work.actions);
    resolve(work);
  }
  perform(work);
  return std::make_unique<ClusterCompletion>(std::move(sub), ledger_,
                                             config_.batch_bytes);
}

/// One master stream into the cluster: a do_submit forwarder, since all
/// the machinery lives in the shared ClusterIndex.
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

/// `index` as a cluster index, checking `node` (if given) is in range.
const ClusterIndex* as_cluster(const core::Index& index, const char* who,
                               std::uint32_t node = 0) {
  const auto* cluster = dynamic_cast<const ClusterIndex*>(&index);
  DICI_CHECK_FMT(cluster != nullptr,
                 "%s: index backend is %s, not a cluster index", who,
                 index.backend());
  DICI_CHECK_FMT(node < cluster->config().num_nodes,
                 "%s: node %u out of range (cluster has %u nodes)", who, node,
                 cluster->config().num_nodes);
  return cluster;
}

}  // namespace

std::shared_ptr<const core::Index> ClusterEngine::build(
    std::span<const key_t> index_keys) const {
  return std::make_shared<const ClusterIndex>(config_, index_keys);
}

void cluster_kill_node_for_test(const core::Index& index, std::uint32_t node) {
  as_cluster(index, "cluster_kill_node_for_test", node)->kill_node(node);
}

bool cluster_rejoin_node(const core::Index& index, std::uint32_t node) {
  return as_cluster(index, "cluster_rejoin_node", node)->rejoin_node(node);
}

NodeStatus cluster_node_status(const core::Index& index, std::uint32_t node) {
  return as_cluster(index, "cluster_node_status", node)->node_status(node);
}

std::vector<int> cluster_node_pids(const core::Index& index) {
  return as_cluster(index, "cluster_node_pids")->node_pids();
}

std::shared_ptr<net::FaultController> cluster_fault_controller(
    const core::Index& index) {
  return as_cluster(index, "cluster_fault_controller")->fault_controller();
}

}  // namespace dici::cluster
