#include "src/net/wire.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "src/util/assert.hpp"

namespace dici::net {
namespace {

// The wire is little-endian, and every codec below copies integers and
// arrays with memcpy in host order. That is the wire order only on a
// little-endian host; a big-endian port needs byte swaps here first.
static_assert(std::endian::native == std::endian::little,
              "wire codecs memcpy host-order integers; add byte swaps to "
              "build on a big-endian host");

void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t len) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + len);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_bytes(out, &v, sizeof(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof(v));
}

void put_u32_array(std::vector<std::uint8_t>& out,
                   std::span<const std::uint32_t> values) {
  put_u32(out, static_cast<std::uint32_t>(values.size()));
  put_bytes(out, values.data(), values.size_bytes());
}

// Byte offsets of the header fields, in wire order.
constexpr std::size_t kMagicAt = 0;
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kTypeAt = 6;
constexpr std::size_t kSrcAt = 8;
constexpr std::size_t kPayloadBytesAt = 12;
constexpr std::size_t kSeqAt = 16;
constexpr std::size_t kEpochAt = 24;
constexpr std::size_t kChecksumAt = 28;
static_assert(kChecksumAt + 4 == kFrameHeaderBytes);

template <typename T>
void store(std::uint8_t* out, std::size_t at, T v) {
  std::memcpy(out + at, &v, sizeof(v));
}

template <typename T>
T load(const std::uint8_t* in, std::size_t at) {
  T v{};
  std::memcpy(&v, in + at, sizeof(v));
  return v;
}

// CRC32C, reflected, polynomial 0x1EDC6F41 (0x82F63B78 bit-reversed),
// with the customary all-ones initial value and final inversion: the
// checksum of iSCSI, ext4 and SSE4.2's crc32 instruction.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

using ChecksumFn = std::uint32_t (*)(std::span<const std::uint8_t>);

ChecksumFn pick_checksum() {
  return crc32c_sse42_available() ? crc32c_sse42 : crc32c_portable;
}

/// Sequential bounds-checked reader over a frame payload. Every read_*
/// returns false once the payload is exhausted; callers chain them and
/// report one diagnostic at the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool read_u8(std::uint8_t* v) { return read_bytes(v, sizeof(*v)); }
  bool read_u32(std::uint32_t* v) { return read_bytes(v, sizeof(*v)); }
  bool read_u64(std::uint64_t* v) { return read_bytes(v, sizeof(*v)); }

  /// Length-prefixed u32 array. The count is checked against the bytes
  /// actually remaining BEFORE the vector is sized, so a garbage count
  /// can't drive a huge allocation.
  bool read_u32_array(std::vector<std::uint32_t>* out) {
    std::uint32_t count = 0;
    if (!read_u32(&count)) return false;
    if (remaining() / 4 < count) return fail();
    out->resize(count);
    return read_bytes(out->data(), std::size_t{count} * 4);
  }

  bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool read_bytes(void* out, std::size_t len) {
    if (len > remaining()) return fail();
    if (len != 0) std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool fail() {
    ok_ = false;
    return false;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

bool known_type(std::uint16_t type) {
  return type >= static_cast<std::uint16_t>(MsgType::kJoinRequest) &&
         type <= static_cast<std::uint16_t>(MsgType::kNodeConfig);
}

Frame make_frame(std::uint32_t src, MsgType type,
                 std::vector<std::uint8_t> payload) {
  DICI_CHECK_FMT(payload.size() <= kMaxFramePayloadBytes,
                 "wire: payload_bytes=%zu exceeds frame cap %u (type=%s)",
                 payload.size(), kMaxFramePayloadBytes, msg_type_name(type));
  Frame frame;
  frame.header.type = static_cast<std::uint16_t>(type);
  frame.header.src = src;
  frame.header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  frame.payload = std::move(payload);
  frame.header.checksum = wire_checksum(frame.payload);
  return frame;
}

/// Shared prologue of every message decoder: type check + payload/header
/// length agreement, so payload parsers can trust frame.payload.
bool check_frame(const Frame& frame, MsgType want, std::string* error) {
  if (frame.header.msg_type() != want) {
    *error = std::string("wire: expected ") + msg_type_name(want) + ", got " +
             msg_type_name(frame.header.msg_type());
    return false;
  }
  if (frame.payload.size() != frame.header.payload_bytes) {
    *error = std::string("wire: ") + msg_type_name(want) +
             " payload length mismatch: header says " +
             std::to_string(frame.header.payload_bytes) + ", buffer holds " +
             std::to_string(frame.payload.size());
    return false;
  }
  return true;
}

bool finish(const Reader& reader, MsgType type, std::string* error) {
  if (!reader.ok()) {
    *error = std::string("wire: truncated ") + msg_type_name(type) + " payload";
    return false;
  }
  if (!reader.exhausted()) {
    *error = std::string("wire: ") + msg_type_name(type) + " payload has " +
             std::to_string(reader.remaining()) + " trailing bytes";
    return false;
  }
  return true;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kJoinRequest:
      return "join_request";
    case MsgType::kJoinAck:
      return "join_ack";
    case MsgType::kClusterInfo:
      return "cluster_info";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kBuildShard:
      return "build_shard";
    case MsgType::kBuildAck:
      return "build_ack";
    case MsgType::kQueryBatch:
      return "query_batch";
    case MsgType::kRankBatch:
      return "rank_batch";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kNodeConfig:
      return "node_config";
  }
  return "unknown";
}

std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = ~0u;
  for (const std::uint8_t b : bytes)
    crc = kCrc32cTable[(crc ^ b) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

#if defined(__x86_64__)

bool crc32c_sse42_available() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t crc = ~0u;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#else

bool crc32c_sse42_available() { return false; }

std::uint32_t crc32c_sse42(std::span<const std::uint8_t> bytes) {
  DICI_CHECK_FMT(false, "crc32c_sse42 called on a host without SSE4.2 (%zu "
                 "bytes)", bytes.size());
  return 0;
}

#endif

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload) {
  static const ChecksumFn checksum = pick_checksum();
  return checksum(payload);
}

void encode_frame_header(const FrameHeader& header, std::uint8_t* out) {
  store(out, kMagicAt, header.magic);
  store(out, kVersionAt, header.version);
  store(out, kTypeAt, header.type);
  store(out, kSrcAt, header.src);
  store(out, kPayloadBytesAt, header.payload_bytes);
  store(out, kSeqAt, header.seq);
  store(out, kEpochAt, header.epoch);
  store(out, kChecksumAt, header.checksum);
}

bool decode_frame_header(std::span<const std::uint8_t> bytes,
                         FrameHeader* header, std::string* error) {
  if (bytes.size() < kFrameHeaderBytes) {
    *error = "wire: short frame header: " + std::to_string(bytes.size()) +
             " of " + std::to_string(kFrameHeaderBytes) + " bytes";
    return false;
  }
  const std::uint8_t* in = bytes.data();
  FrameHeader h;
  h.magic = load<std::uint32_t>(in, kMagicAt);
  h.version = load<std::uint16_t>(in, kVersionAt);
  h.type = load<std::uint16_t>(in, kTypeAt);
  h.src = load<std::uint32_t>(in, kSrcAt);
  h.payload_bytes = load<std::uint32_t>(in, kPayloadBytesAt);
  h.seq = load<std::uint64_t>(in, kSeqAt);
  h.epoch = load<std::uint32_t>(in, kEpochAt);
  h.checksum = load<std::uint32_t>(in, kChecksumAt);
  if (h.magic != kWireMagic) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "wire: bad magic 0x%08x", h.magic);
    *error = buf;
    return false;
  }
  if (h.version != kWireVersion) {
    *error = "wire: version mismatch: peer speaks v" +
             std::to_string(h.version) + ", we speak v" +
             std::to_string(kWireVersion);
    return false;
  }
  if (!known_type(h.type)) {
    *error = "wire: unknown message type " + std::to_string(h.type);
    return false;
  }
  if (h.payload_bytes > kMaxFramePayloadBytes) {
    *error = "wire: oversized frame: payload_bytes=" +
             std::to_string(h.payload_bytes) + " exceeds cap " +
             std::to_string(kMaxFramePayloadBytes);
    return false;
  }
  *header = h;
  return true;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  DICI_CHECK(frame.payload.size() == frame.header.payload_bytes);
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes + frame.payload.size());
  encode_frame_header(frame.header, bytes.data());
  if (!frame.payload.empty()) {
    std::memcpy(bytes.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return bytes;
}

bool decode_frame(std::span<const std::uint8_t> bytes, Frame* frame,
                  std::string* error) {
  FrameHeader header;
  if (!decode_frame_header(bytes, &header, error)) return false;
  const std::size_t want = kFrameHeaderBytes + header.payload_bytes;
  if (bytes.size() != want) {
    *error = "wire: frame length mismatch: header promises " +
             std::to_string(want) + " bytes, buffer holds " +
             std::to_string(bytes.size());
    return false;
  }
  frame->header = header;
  frame->payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  return true;
}

bool frame_checksum_ok(const Frame& frame) {
  return wire_checksum(frame.payload) == frame.header.checksum;
}

// --- Control messages -----------------------------------------------------

Frame encode_join_request(std::uint32_t src, const JoinRequestMsg& msg) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, msg.node_id);
  return make_frame(src, MsgType::kJoinRequest, std::move(payload));
}

bool decode_join_request(const Frame& frame, JoinRequestMsg* msg,
                         std::string* error) {
  if (!check_frame(frame, MsgType::kJoinRequest, error)) return false;
  Reader reader(frame.payload);
  reader.read_u32(&msg->node_id);
  return finish(reader, MsgType::kJoinRequest, error);
}

Frame encode_join_ack(std::uint32_t src, const JoinAckMsg& msg) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, msg.node_id);
  put_u32(payload, msg.num_nodes);
  return make_frame(src, MsgType::kJoinAck, std::move(payload));
}

bool decode_join_ack(const Frame& frame, JoinAckMsg* msg, std::string* error) {
  if (!check_frame(frame, MsgType::kJoinAck, error)) return false;
  Reader reader(frame.payload);
  reader.read_u32(&msg->node_id);
  reader.read_u32(&msg->num_nodes);
  return finish(reader, MsgType::kJoinAck, error);
}

Frame encode_cluster_info(std::uint32_t src, const ClusterInfoMsg& msg) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, static_cast<std::uint32_t>(msg.nodes.size()));
  for (const ClusterInfoEntry& entry : msg.nodes) {
    put_u32(payload, entry.node_id);
    payload.push_back(entry.status);
    put_u32(payload, entry.shards);
  }
  return make_frame(src, MsgType::kClusterInfo, std::move(payload));
}

bool decode_cluster_info(const Frame& frame, ClusterInfoMsg* msg,
                         std::string* error) {
  if (!check_frame(frame, MsgType::kClusterInfo, error)) return false;
  Reader reader(frame.payload);
  std::uint32_t count = 0;
  if (!reader.read_u32(&count) || reader.remaining() / 9 < count) {
    *error = "wire: truncated cluster_info payload";
    return false;
  }
  msg->nodes.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    reader.read_u32(&msg->nodes[i].node_id);
    reader.read_u8(&msg->nodes[i].status);
    reader.read_u32(&msg->nodes[i].shards);
  }
  return finish(reader, MsgType::kClusterInfo, error);
}

Frame encode_heartbeat(std::uint32_t src, const HeartbeatMsg& msg) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, msg.send_ns);
  return make_frame(src, MsgType::kHeartbeat, std::move(payload));
}

bool decode_heartbeat(const Frame& frame, HeartbeatMsg* msg,
                      std::string* error) {
  if (!check_frame(frame, MsgType::kHeartbeat, error)) return false;
  Reader reader(frame.payload);
  reader.read_u64(&msg->send_ns);
  return finish(reader, MsgType::kHeartbeat, error);
}

Frame encode_node_config(std::uint32_t src, const NodeConfigMsg& msg) {
  std::vector<std::uint8_t> payload;
  payload.push_back(msg.kernel);
  put_u32(payload, msg.heartbeat_interval_ms);
  put_u32(payload, msg.num_nodes);
  return make_frame(src, MsgType::kNodeConfig, std::move(payload));
}

bool decode_node_config(const Frame& frame, NodeConfigMsg* msg,
                        std::string* error) {
  if (!check_frame(frame, MsgType::kNodeConfig, error)) return false;
  Reader reader(frame.payload);
  reader.read_u8(&msg->kernel);
  reader.read_u32(&msg->heartbeat_interval_ms);
  reader.read_u32(&msg->num_nodes);
  return finish(reader, MsgType::kNodeConfig, error);
}

// --- Build messages -------------------------------------------------------

Frame encode_build_shard(std::uint32_t src, const BuildShardMsg& msg) {
  std::vector<std::uint8_t> payload;
  payload.reserve(17 + 4 * msg.keys.size());
  put_u32(payload, msg.shard);
  put_u32(payload, msg.global_offset);
  put_u32(payload, msg.chunk);
  payload.push_back(msg.last ? 1 : 0);
  put_u32_array(payload, msg.keys);
  return make_frame(src, MsgType::kBuildShard, std::move(payload));
}

bool decode_build_shard(const Frame& frame, BuildShardMsg* msg,
                        std::string* error) {
  if (!check_frame(frame, MsgType::kBuildShard, error)) return false;
  Reader reader(frame.payload);
  std::uint8_t last = 0;
  reader.read_u32(&msg->shard);
  reader.read_u32(&msg->global_offset);
  reader.read_u32(&msg->chunk);
  reader.read_u8(&last);
  reader.read_u32_array(&msg->keys);
  if (!finish(reader, MsgType::kBuildShard, error)) return false;
  // One spelling per message: a flag byte other than 0/1 would decode
  // to a value that re-encodes differently.
  if (last > 1) {
    *error = "wire: build_shard last flag is " + std::to_string(last) +
             ", must be 0 or 1";
    return false;
  }
  msg->last = last != 0;
  return true;
}

Frame encode_build_ack(std::uint32_t src, const BuildAckMsg& msg) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, msg.shards_received);
  put_u64(payload, msg.replica_keys);
  return make_frame(src, MsgType::kBuildAck, std::move(payload));
}

bool decode_build_ack(const Frame& frame, BuildAckMsg* msg,
                      std::string* error) {
  if (!check_frame(frame, MsgType::kBuildAck, error)) return false;
  Reader reader(frame.payload);
  reader.read_u32(&msg->shards_received);
  reader.read_u64(&msg->replica_keys);
  return finish(reader, MsgType::kBuildAck, error);
}

// --- Serving messages -----------------------------------------------------

Frame encode_query_batch(std::uint32_t src, const QueryBatchMsg& msg) {
  DICI_CHECK(msg.keys.size() == msg.ids.size());
  std::vector<std::uint8_t> payload;
  payload.reserve(24 + 8 * msg.keys.size());
  put_u64(payload, msg.submission);
  put_u32(payload, msg.shard);
  put_u32(payload, msg.chunk);
  put_u32_array(payload, msg.keys);
  put_u32_array(payload, msg.ids);
  return make_frame(src, MsgType::kQueryBatch, std::move(payload));
}

bool decode_query_batch(const Frame& frame, QueryBatchMsg* msg,
                        std::string* error) {
  if (!check_frame(frame, MsgType::kQueryBatch, error)) return false;
  Reader reader(frame.payload);
  reader.read_u64(&msg->submission);
  reader.read_u32(&msg->shard);
  reader.read_u32(&msg->chunk);
  reader.read_u32_array(&msg->keys);
  reader.read_u32_array(&msg->ids);
  if (!finish(reader, MsgType::kQueryBatch, error)) return false;
  if (msg->keys.size() != msg->ids.size()) {
    *error = "wire: query_batch keys/ids length mismatch: " +
             std::to_string(msg->keys.size()) + " vs " +
             std::to_string(msg->ids.size());
    return false;
  }
  return true;
}

Frame encode_rank_batch(std::uint32_t src, const RankBatchMsg& msg) {
  DICI_CHECK(msg.ids.size() == msg.ranks.size());
  std::vector<std::uint8_t> payload;
  payload.reserve(32 + 8 * msg.ids.size());
  put_u64(payload, msg.submission);
  put_u32(payload, msg.shard);
  put_u32(payload, msg.chunk);
  put_u64(payload, msg.busy_ns);
  put_u32_array(payload, msg.ids);
  put_u32_array(payload, msg.ranks);
  return make_frame(src, MsgType::kRankBatch, std::move(payload));
}

bool decode_rank_batch(const Frame& frame, RankBatchMsg* msg,
                       std::string* error) {
  if (!check_frame(frame, MsgType::kRankBatch, error)) return false;
  Reader reader(frame.payload);
  reader.read_u64(&msg->submission);
  reader.read_u32(&msg->shard);
  reader.read_u32(&msg->chunk);
  reader.read_u64(&msg->busy_ns);
  reader.read_u32_array(&msg->ids);
  reader.read_u32_array(&msg->ranks);
  if (!finish(reader, MsgType::kRankBatch, error)) return false;
  if (msg->ids.size() != msg->ranks.size()) {
    *error = "wire: rank_batch ids/ranks length mismatch: " +
             std::to_string(msg->ids.size()) + " vs " +
             std::to_string(msg->ranks.size());
    return false;
  }
  return true;
}

Frame encode_shutdown(std::uint32_t src) {
  return make_frame(src, MsgType::kShutdown, {});
}

}  // namespace dici::net
