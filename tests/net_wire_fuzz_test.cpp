// Deterministic mutation fuzzer for the wire decoders: a fixed-seed,
// fixed-iteration gtest (no libFuzzer), so every run — the ASan job's
// included — replays exactly the same inputs.
//
// Seeds are valid wire-v3 encodes of all ten MsgTypes. Each input
// stacks 1-4 seeded mutations on one of them: bit flips, byte
// overwrites, truncation, extension, and inflated length/count fields;
// a second pass also rewrites the header's version field (to v2, the
// previous wire, to the next version, or to a random value). The
// oracle:
//
//  * decode_frame_header, decode_frame and every decode_* either return
//    false with a non-empty diagnostic, or hand back a message that
//    re-encodes to exactly the payload it was decoded from (a decoder
//    that accepts a non-canonical encoding fails here);
//  * a header with the right magic and any other version is refused
//    with the version diagnostic, naming the version it carries;
//  * wire_checksum agrees with the portable CRC32C on every payload
//    that frames;
//  * FdEndpoint over a socketpair, fed the same bytes and then EOF,
//    returns what the bytes dictate frame by frame — kFrame or kCorrupt
//    for a whole frame (by its checksum), kError for a header that fails
//    the bounds checks, kClosed once the stream ends mid-frame — and
//    every recv returns at once instead of waiting out its timeout.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/net/fd_endpoint.hpp"
#include "src/net/wire.hpp"
#include "src/util/rng.hpp"

namespace dici::net {
namespace {

using namespace std::chrono_literals;
using Bytes = std::vector<std::uint8_t>;

/// One valid frame of every message type: the mutation seeds.
std::vector<Frame> seed_frames() {
  return {
      encode_join_request(3, {.node_id = 3}),
      encode_join_ack(kCoordinatorId, {.node_id = 3, .num_nodes = 4}),
      encode_cluster_info(
          kCoordinatorId,
          {.nodes = {{.node_id = 0, .status = 3, .shards = 2},
                     {.node_id = 1, .status = 4, .shards = 1}}}),
      encode_heartbeat(1, {.send_ns = 123456789}),
      encode_build_shard(kCoordinatorId, {.shard = 1,
                                          .global_offset = 100,
                                          .chunk = 2,
                                          .last = true,
                                          .keys = {1, 5, 9, 12}}),
      encode_build_ack(2, {.shards_received = 2, .replica_keys = 4096}),
      encode_query_batch(kCoordinatorId, {.submission = 7,
                                          .shard = 1,
                                          .chunk = 2,
                                          .keys = {3, 4, 5},
                                          .ids = {0, 1, 2}}),
      encode_rank_batch(1, {.submission = 7,
                            .shard = 1,
                            .chunk = 2,
                            .busy_ns = 999,
                            .ids = {0, 1, 2},
                            .ranks = {10, 11, 12}}),
      encode_shutdown(kCoordinatorId),
      encode_node_config(kCoordinatorId, {.kernel = 1,
                                          .heartbeat_interval_ms = 25,
                                          .num_nodes = 4}),
  };
}

std::uint32_t get_u32(const Bytes& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[at + i]} << (8 * i);
  return v;
}

void put_u32(Bytes& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// A lie about a length or count: off by one, doubled, maxed, large
/// enough that count * 4 wraps 32 bits, or random.
std::uint32_t inflate(std::uint32_t current, Rng& rng) {
  switch (rng.below(6)) {
    case 0: return current + 1;
    case 1: return current - 1;
    case 2: return current * 2 + 1;
    case 3: return 0xffffffffu;
    case 4: return 0x40000001u;
    default: return static_cast<std::uint32_t>(rng.next());
  }
}

/// Byte offsets of FrameHeader::version and ::payload_bytes in an
/// encoded frame.
constexpr std::size_t kVersionFieldOffset = 4;
constexpr std::size_t kLengthFieldOffset = 12;

std::uint16_t get_u16(const Bytes& bytes, std::size_t at) {
  return static_cast<std::uint16_t>(bytes[at] | (bytes[at + 1] << 8));
}

/// A version other than ours: the previous wire, the next one, or any.
std::uint16_t foreign_version(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return kWireVersion - 1;
    case 1: return kWireVersion + 1;
    case 2: return 0;
    default: {
      const auto v = static_cast<std::uint16_t>(rng.below(1u << 16));
      return v == kWireVersion ? 0xffff : v;
    }
  }
}

void mutate(Bytes& bytes, Rng& rng) {
  switch (rng.below(6)) {
    case 0:  // bit flip
      if (!bytes.empty())
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1:  // byte overwrite
      if (!bytes.empty())
        bytes[rng.below(bytes.size())] =
            static_cast<std::uint8_t>(rng.below(256));
      break;
    case 2:  // truncation
      bytes.resize(rng.below(bytes.size() + 1));
      break;
    case 3:  // extension
      for (std::uint64_t n = rng.between(1, 16); n > 0; --n)
        bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
      break;
    case 4:  // the header's length prefix
      if (bytes.size() >= kLengthFieldOffset + 4)
        put_u32(bytes, kLengthFieldOffset,
                inflate(get_u32(bytes, kLengthFieldOffset), rng));
      break;
    default:  // a u32 inside the payload: every count field is one
      if (bytes.size() >= kFrameHeaderBytes + 4) {
        const std::size_t at =
            kFrameHeaderBytes + rng.below(bytes.size() - kFrameHeaderBytes - 3);
        put_u32(bytes, at, inflate(get_u32(bytes, at), rng));
      }
      break;
  }
}

Bytes mutated(const Frame& seed, Rng& rng) {
  Bytes bytes = encode_frame(seed);
  for (std::uint64_t n = rng.between(1, 4); n > 0; --n) mutate(bytes, rng);
  return bytes;
}

/// Empty when the decoder behaved; otherwise what went wrong.
template <typename Msg, typename Decode, typename Encode>
std::string check_decoder(const char* name, const Frame& frame,
                          Decode decode, Encode encode) {
  Msg msg;
  std::string error;
  if (!decode(frame, &msg, &error))
    return error.empty() ? std::string(name) + " rejected without a diagnostic"
                         : "";
  if (encode(frame.header.src, msg).payload != frame.payload)
    return std::string(name) + " accepted a payload it does not re-encode to";
  return "";
}

std::string check_decoders(std::span<const std::uint8_t> bytes) {
  FrameHeader header;
  std::string error;
  if (!decode_frame_header(bytes, &header, &error) && error.empty())
    return "decode_frame_header rejected without a diagnostic";
  if (bytes.size() >= kFrameHeaderBytes) {
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    std::memcpy(&version, bytes.data() + kVersionFieldOffset, sizeof(version));
    if (magic == kWireMagic && version != kWireVersion &&
        error.find("version mismatch: peer speaks v" +
                   std::to_string(version) + ",") == std::string::npos)
      return "a v" + std::to_string(version) +
             " header was not refused by version: '" + error + "'";
  }
  Frame frame;
  error.clear();
  if (!decode_frame(bytes, &frame, &error))
    return error.empty() ? "decode_frame rejected without a diagnostic" : "";
  if (wire_checksum(frame.payload) != crc32c_portable(frame.payload))
    return "wire_checksum disagrees with the portable CRC32C";
  // Every decoder sees every framed input: the matching one must be
  // canonical, the others must refuse the type.
  for (const std::string& failure : {
           check_decoder<JoinRequestMsg>("decode_join_request", frame,
                                         decode_join_request,
                                         encode_join_request),
           check_decoder<JoinAckMsg>("decode_join_ack", frame,
                                     decode_join_ack, encode_join_ack),
           check_decoder<ClusterInfoMsg>("decode_cluster_info", frame,
                                         decode_cluster_info,
                                         encode_cluster_info),
           check_decoder<HeartbeatMsg>("decode_heartbeat", frame,
                                       decode_heartbeat, encode_heartbeat),
           check_decoder<NodeConfigMsg>("decode_node_config", frame,
                                        decode_node_config,
                                        encode_node_config),
           check_decoder<BuildShardMsg>("decode_build_shard", frame,
                                        decode_build_shard,
                                        encode_build_shard),
           check_decoder<BuildAckMsg>("decode_build_ack", frame,
                                      decode_build_ack, encode_build_ack),
           check_decoder<QueryBatchMsg>("decode_query_batch", frame,
                                        decode_query_batch,
                                        encode_query_batch),
           check_decoder<RankBatchMsg>("decode_rank_batch", frame,
                                       decode_rank_batch, encode_rank_batch),
       })
    if (!failure.empty()) return failure;
  return "";
}

std::string hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

constexpr std::uint64_t kFuzzSeed = 20050410;

TEST(WireFuzz, DecodersAreTotalAndCanonical) {
  constexpr int kInputsPerSeed = 10000;
  Rng rng(kFuzzSeed);
  const std::vector<Frame> seeds = seed_frames();
  // The seeds themselves pass: the oracle is not vacuous.
  for (const Frame& seed : seeds)
    ASSERT_EQ(check_decoders(encode_frame(seed)), "")
        << msg_type_name(seed.header.msg_type());
  for (const Frame& seed : seeds) {
    for (int i = 0; i < kInputsPerSeed; ++i) {
      const Bytes bytes = mutated(seed, rng);
      const std::string failure = check_decoders(bytes);
      ASSERT_EQ(failure, "") << msg_type_name(seed.header.msg_type())
                             << " input " << i << ": " << hex(bytes);
    }
  }
}

TEST(WireFuzz, ForeignVersionsAreRefusedByVersion) {
  // The version field rewritten, then 0-3 of the mutations above on
  // top: whatever else is wrong, a frame with our magic and another
  // version must be refused by its version (check_decoders' oracle).
  constexpr int kInputsPerSeed = 2000;
  Rng rng(kFuzzSeed + 2);
  int refused = 0;
  for (const Frame& seed : seed_frames()) {
    for (int i = 0; i < kInputsPerSeed; ++i) {
      Bytes bytes = encode_frame(seed);
      const std::uint16_t version = foreign_version(rng);
      bytes[kVersionFieldOffset] = static_cast<std::uint8_t>(version);
      bytes[kVersionFieldOffset + 1] = static_cast<std::uint8_t>(version >> 8);
      for (std::uint64_t n = rng.below(4); n > 0; --n) mutate(bytes, rng);
      const std::string failure = check_decoders(bytes);
      ASSERT_EQ(failure, "") << msg_type_name(seed.header.msg_type())
                             << " input " << i << ": " << hex(bytes);
      if (bytes.size() >= kFrameHeaderBytes &&
          get_u16(bytes, kVersionFieldOffset) != kWireVersion)
        ++refused;
    }
  }
  // Most inputs keep their foreign version (a later mutation can put
  // ours back, or cut the header short): the oracle saw real work.
  EXPECT_GT(refused, 10 * kInputsPerSeed / 2);
}

/// What FdEndpoint::recv must return for the stream `rest` followed by
/// EOF, and how many bytes that call consumes.
Endpoint::RecvResult expected_recv(std::span<const std::uint8_t> rest,
                                   std::size_t* consumed) {
  *consumed = 0;
  FrameHeader header;
  std::string error;
  if (rest.size() < kFrameHeaderBytes) return Endpoint::RecvResult::kClosed;
  if (!decode_frame_header(rest, &header, &error))
    return Endpoint::RecvResult::kError;
  const std::size_t total = kFrameHeaderBytes + header.payload_bytes;
  if (rest.size() < total) return Endpoint::RecvResult::kClosed;
  Frame frame;
  frame.header = header;
  frame.payload.assign(rest.begin() + kFrameHeaderBytes,
                       rest.begin() + static_cast<std::ptrdiff_t>(total));
  *consumed = total;
  return frame_checksum_ok(frame) ? Endpoint::RecvResult::kFrame
                                  : Endpoint::RecvResult::kCorrupt;
}

TEST(WireFuzz, FdEndpointFramingNeverHangs) {
  constexpr int kInputsPerSeed = 200;
  constexpr auto kTimeout = 2000ms;
  Rng rng(kFuzzSeed + 1);
  for (const Frame& seed : seed_frames()) {
    for (int i = 0; i < kInputsPerSeed; ++i) {
      Bytes bytes = mutated(seed, rng);
      // Half the inputs are followed by an intact frame, so a damaged
      // frame that keeps its boundary must leave the next one readable.
      if (rng.below(2) == 0) {
        const Bytes intact = encode_frame(seed);
        bytes.insert(bytes.end(), intact.begin(), intact.end());
      }
      int fds[2];
      cloexec_socketpair(fds);
      FdEndpoint receiver(fds[0]);
      ASSERT_EQ(::send(fds[1], bytes.data(), bytes.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(bytes.size()));
      ::shutdown(fds[1], SHUT_WR);  // EOF: the stream ends here

      std::size_t pos = 0;
      for (int frame_no = 0;; ++frame_no) {
        std::size_t consumed = 0;
        const auto want =
            expected_recv(std::span(bytes).subspan(pos), &consumed);
        Frame frame;
        std::string error;
        const auto start = std::chrono::steady_clock::now();
        const auto got = receiver.recv(&frame, kTimeout, &error);
        const auto waited = std::chrono::steady_clock::now() - start;
        ASSERT_EQ(got, want) << msg_type_name(seed.header.msg_type())
                             << " input " << i << " frame " << frame_no
                             << ": " << hex(bytes);
        // Every byte was already written and the writer is shut, so any
        // measurable wait means recv sat on its timeout.
        ASSERT_LT(waited, kTimeout / 4) << "input " << i << ": " << hex(bytes);
        if (got == Endpoint::RecvResult::kError ||
            got == Endpoint::RecvResult::kCorrupt) {
          EXPECT_FALSE(error.empty());
        }
        if (consumed == 0) break;  // kClosed or kError end the stream
        pos += consumed;
      }
      ::close(fds[1]);
    }
  }
}

}  // namespace
}  // namespace dici::net
