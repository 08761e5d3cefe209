#include "src/cluster/node.hpp"

#include <algorithm>
#include <chrono>

#include "src/index/batched_search.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"

namespace dici::cluster {

using namespace std::chrono_literals;

namespace {

/// How patiently a node waits for the coordinator during the join
/// handshake and on sends. Generous: a stalled coordinator is a test
/// bug, not a production mode — the node gives up and exits, and the
/// coordinator's own timeout machinery reports it DEAD.
constexpr auto kControlTimeout = 10s;

}  // namespace

NodeService::NodeService(std::uint32_t id, net::Endpoint& link)
    : id_(id), link_(link) {}

void NodeService::run() {
  if (!join()) return;
  if (!await_config()) return;
  serve();
}

bool NodeService::join() {
  // Join handshake: announce, then wait for the ack before anything.
  const net::Frame join = net::encode_join_request(id_, {id_});
  if (link_.send(join, kControlTimeout) != net::Endpoint::SendResult::kOk)
    return false;
  net::Frame frame;
  std::string error;
  if (link_.recv(&frame, kControlTimeout, &error) !=
      net::Endpoint::RecvResult::kFrame)
    return false;
  net::JoinAckMsg ack;
  if (!net::decode_join_ack(frame, &ack, &error) || ack.node_id != id_)
    return false;
  epoch_ = std::max(epoch_, frame.header.epoch);
  return true;
}

bool NodeService::await_config() {
  // The coordinator sends kNodeConfig right after the ack — the wire IS
  // the configuration channel, for exec'd children and in-process nodes
  // alike. Anything else here is a protocol breach.
  for (;;) {
    net::Frame frame;
    std::string error;
    switch (link_.recv(&frame, kControlTimeout, &error)) {
      case net::Endpoint::RecvResult::kFrame:
        break;
      case net::Endpoint::RecvResult::kCorrupt:
        continue;  // wire damage ate one frame; keep waiting
      default:
        return false;
    }
    if (frame.header.msg_type() != net::MsgType::kNodeConfig) return false;
    net::NodeConfigMsg msg;
    if (!net::decode_node_config(frame, &msg, &error)) return false;
    // The wire promised only a byte; the kernel menu decides validity.
    const auto kernel = static_cast<index::SearchKernel>(msg.kernel);
    if (!index::search_kernel_valid(kernel)) return false;
    if (msg.num_nodes == 0) return false;
    epoch_ = std::max(epoch_, frame.header.epoch);
    kernel_ = kernel;
    heartbeat_interval_ms_ = std::max<std::uint32_t>(1u, msg.heartbeat_interval_ms);
    membership_ = Membership(msg.num_nodes);
    return true;
  }
}

void NodeService::serve() {
  const auto interval = std::chrono::milliseconds(heartbeat_interval_ms_);
  auto last_heartbeat = std::chrono::steady_clock::now() - interval;
  // One frame for the whole loop, so each recv reuses its payload's
  // capacity.
  net::Frame frame;
  std::string error;
  for (;;) {
    if (killed_.load(std::memory_order_acquire)) return;  // silent hang
    const auto now = std::chrono::steady_clock::now();
    if (now - last_heartbeat >= interval) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now.time_since_epoch())
                          .count();
      net::Frame beat = net::encode_heartbeat(
          id_, {static_cast<std::uint64_t>(ns)});
      beat.header.epoch = epoch_;
      if (link_.send(beat, kControlTimeout) !=
          net::Endpoint::SendResult::kOk)
        return;
      last_heartbeat = now;
    }

    switch (link_.recv(&frame, interval, &error)) {
      case net::Endpoint::RecvResult::kTimeout:
        continue;  // loop sends the next heartbeat
      case net::Endpoint::RecvResult::kCorrupt:
        continue;  // wire damage ate one frame; the stream stays framed
      case net::Endpoint::RecvResult::kClosed:
      case net::Endpoint::RecvResult::kError:
        return;
      case net::Endpoint::RecvResult::kFrame:
        break;
    }
    if (killed_.load(std::memory_order_acquire)) return;
    epoch_ = std::max(epoch_, frame.header.epoch);

    switch (frame.header.msg_type()) {
      case net::MsgType::kClusterInfo: {
        net::ClusterInfoMsg info;
        if (net::decode_cluster_info(frame, &info, &error))
          membership_.apply_entries(info.nodes);
        break;
      }
      case net::MsgType::kBuildShard:
        if (!handle_build_shard(frame)) return;
        break;
      case net::MsgType::kQueryBatch:
        if (!handle_query_batch(frame)) return;
        break;
      case net::MsgType::kHeartbeat:
        break;  // coordinator liveness; nothing to do
      case net::MsgType::kShutdown:
        return;
      default:
        // A frame type a serving node never receives mid-serve
        // (kNodeConfig included — bootstrap only): protocol breach —
        // stop answering and let the coordinator's timeout name us dead.
        return;
    }
  }
}

bool NodeService::handle_build_shard(const net::Frame& frame) {
  net::BuildShardMsg msg;
  std::string error;
  if (!net::decode_build_shard(frame, &msg, &error)) return false;
  if (!msg.keys.empty()) {
    // Chunks of one shard arrive in order; the first carries the
    // shard's global offset, the rest append.
    auto [it, inserted] = replicas_.try_emplace(msg.shard);
    Replica& replica = it->second;
    if (inserted) replica.global_offset = msg.global_offset;
    if (msg.chunk < replica.next_chunk) return true;   // duplicate: drop
    if (msg.chunk > replica.next_chunk) return false;  // gap: stream broken
    ++replica.next_chunk;
    replica.keys.insert(replica.keys.end(), msg.keys.begin(), msg.keys.end());
    replica_keys_.fetch_add(msg.keys.size(), std::memory_order_acq_rel);
  }
  if (msg.last) {
    // Finalize: the kernels that probe BFS order need the layout built
    // once per replica, exactly like PlacedShards does for the parallel
    // backend's shard copies.
    if (index::kernel_layout(kernel_) == index::KeyLayout::kEytzinger) {
      for (auto& [shard, replica] : replicas_)
        if (replica.layout == nullptr)
          replica.layout =
              std::make_unique<index::EytzingerLayout>(replica.keys);
    }
    net::BuildAckMsg ack;
    ack.shards_received = static_cast<std::uint32_t>(replicas_.size());
    ack.replica_keys = replica_keys_.load(std::memory_order_acquire);
    net::Frame reply = net::encode_build_ack(id_, ack);
    reply.header.epoch = epoch_;
    if (link_.send(reply, kControlTimeout) != net::Endpoint::SendResult::kOk)
      return false;
  }
  return true;
}

bool NodeService::handle_query_batch(const net::Frame& frame) {
  std::string error;
  if (!net::decode_query_batch(frame, &query_, &error)) return false;
  const auto it = replicas_.find(query_.shard);
  // A batch for a shard this node never received is a coordinator bug —
  // an in-process invariant, so fail loud rather than silent-drop.
  DICI_CHECK_FMT(it != replicas_.end(),
                 "cluster node %u: query batch for shard %u, but this node "
                 "holds %zu replicas and none by that id",
                 id_, query_.shard, replicas_.size());
  const Replica& replica = it->second;

  WallTimer busy;
  reply_.submission = query_.submission;
  reply_.shard = query_.shard;
  reply_.chunk = query_.chunk;  // the claim ticket: echoes which dispatch
                                // chunk these answers settle
  reply_.ids.swap(query_.ids);  // the ids go back as they came
  reply_.ranks.resize(query_.keys.size());
  index::resolve_batch(kernel_, replica.keys, replica.layout.get(),
                       query_.keys, reply_.ranks.data());
  for (rank_t& r : reply_.ranks) r += replica.global_offset;
  reply_.busy_ns = static_cast<std::uint64_t>(busy.elapsed_ns());

  net::Frame out = net::encode_rank_batch(id_, reply_);
  out.header.epoch = epoch_;
  return link_.send(out, kControlTimeout) == net::Endpoint::SendResult::kOk;
}

// --- ClusterNode (the in-process peer) ------------------------------------

ClusterNode::ClusterNode(std::uint32_t id, std::unique_ptr<net::Endpoint> link)
    : id_(id), link_(std::move(link)), service_(id, *link_) {
  DICI_CHECK(link_ != nullptr);
  thread_ = std::thread([this] { service_.run(); });
}

ClusterNode::~ClusterNode() {
  link_->close();
  thread_.join();
}

}  // namespace dici::cluster
