// Wire format totality: every message round-trips bit-exactly, and
// every malformed input — truncated, oversized, garbage magic, future
// version, length-field lies — is REJECTED with a diagnostic, never an
// out-of-bounds read, huge allocation, or abort. The CRC32C seal gives
// its known answers on both of its paths. Plus the transport seam:
// socket, fork, and tcp endpoints carry identical encode_frame bytes,
// reassemble frames however the bytes are split across reads, survive
// a two-thread race under TSan, time out under backpressure without
// tearing a frame (even when the cut falls inside a header), and
// convert close() into explicit results instead of hangs.
#include "src/net/wire.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "src/net/fd_endpoint.hpp"
#include "src/net/transport.hpp"
#include "src/util/rng.hpp"

namespace dici::net {
namespace {

using namespace std::chrono_literals;

/// All three kinds as in-process pairs (make_transport_pair gives kFork
/// its socketpair and kTcp its loopback connection without spawning
/// anything, so the byte-level contract is testable right here).
constexpr TransportKind kAllKinds[] = {TransportKind::kSocket,
                                       TransportKind::kFork,
                                       TransportKind::kTcp};

// --- Round trips ----------------------------------------------------------

TEST(Wire, HeaderRoundTrip) {
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(MsgType::kQueryBatch);
  header.src = 7;
  header.payload_bytes = 1234;
  header.seq = 0xdeadbeefcafeull;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_frame_header(header, buf);
  FrameHeader out;
  std::string error;
  ASSERT_TRUE(decode_frame_header(buf, &out, &error)) << error;
  EXPECT_EQ(out.magic, kWireMagic);
  EXPECT_EQ(out.version, kWireVersion);
  EXPECT_EQ(out.msg_type(), MsgType::kQueryBatch);
  EXPECT_EQ(out.src, 7u);
  EXPECT_EQ(out.payload_bytes, 1234u);
  EXPECT_EQ(out.seq, 0xdeadbeefcafeull);
}

TEST(Wire, EveryMessageTypeRoundTrips) {
  std::string error;
  {
    const Frame f = encode_join_request(3, {.node_id = 3});
    JoinRequestMsg m;
    ASSERT_TRUE(decode_join_request(f, &m, &error)) << error;
    EXPECT_EQ(m.node_id, 3u);
    EXPECT_EQ(f.header.src, 3u);
  }
  {
    const Frame f =
        encode_join_ack(kCoordinatorId, {.node_id = 2, .num_nodes = 8});
    JoinAckMsg m;
    ASSERT_TRUE(decode_join_ack(f, &m, &error)) << error;
    EXPECT_EQ(m.node_id, 2u);
    EXPECT_EQ(m.num_nodes, 8u);
  }
  {
    ClusterInfoMsg info;
    info.nodes = {{0, 3, 2}, {1, 4, 0}, {2, 1, 5}};
    const Frame f = encode_cluster_info(kCoordinatorId, info);
    ClusterInfoMsg m;
    ASSERT_TRUE(decode_cluster_info(f, &m, &error)) << error;
    ASSERT_EQ(m.nodes.size(), 3u);
    EXPECT_EQ(m.nodes[1].node_id, 1u);
    EXPECT_EQ(m.nodes[1].status, 4);
    EXPECT_EQ(m.nodes[2].shards, 5u);
  }
  {
    const Frame f = encode_heartbeat(4, {.send_ns = 99'000'001});
    HeartbeatMsg m;
    ASSERT_TRUE(decode_heartbeat(f, &m, &error)) << error;
    EXPECT_EQ(m.send_ns, 99'000'001u);
  }
  {
    BuildShardMsg msg;
    msg.shard = 6;
    msg.global_offset = 40'000;
    msg.chunk = 3;
    msg.last = true;
    msg.keys = {1, 5, 9, 1u << 30};
    const Frame f = encode_build_shard(kCoordinatorId, msg);
    BuildShardMsg m;
    ASSERT_TRUE(decode_build_shard(f, &m, &error)) << error;
    EXPECT_EQ(m.shard, 6u);
    EXPECT_EQ(m.global_offset, 40'000u);
    EXPECT_EQ(m.chunk, 3u);
    EXPECT_TRUE(m.last);
    EXPECT_EQ(m.keys, msg.keys);
  }
  {
    const Frame f =
        encode_build_ack(5, {.shards_received = 2, .replica_keys = 777});
    BuildAckMsg m;
    ASSERT_TRUE(decode_build_ack(f, &m, &error)) << error;
    EXPECT_EQ(m.shards_received, 2u);
    EXPECT_EQ(m.replica_keys, 777u);
  }
  {
    QueryBatchMsg msg;
    msg.submission = 41;
    msg.shard = kGlobalShard;
    msg.chunk = 17;
    msg.keys = {10, 20, 30};
    msg.ids = {2, 0, 1};
    const Frame f = encode_query_batch(kCoordinatorId, msg);
    QueryBatchMsg m;
    ASSERT_TRUE(decode_query_batch(f, &m, &error)) << error;
    EXPECT_EQ(m.submission, 41u);
    EXPECT_EQ(m.shard, kGlobalShard);
    EXPECT_EQ(m.chunk, 17u);
    EXPECT_EQ(m.keys, msg.keys);
    EXPECT_EQ(m.ids, msg.ids);
  }
  {
    RankBatchMsg msg;
    msg.submission = 41;
    msg.shard = 3;
    msg.chunk = 17;
    msg.busy_ns = 5555;
    msg.ids = {2, 0, 1};
    msg.ranks = {7, 8, 9};
    const Frame f = encode_rank_batch(1, msg);
    RankBatchMsg m;
    ASSERT_TRUE(decode_rank_batch(f, &m, &error)) << error;
    EXPECT_EQ(m.chunk, 17u);
    EXPECT_EQ(m.busy_ns, 5555u);
    EXPECT_EQ(m.ids, msg.ids);
    EXPECT_EQ(m.ranks, msg.ranks);
  }
  {
    const Frame f = encode_shutdown(kCoordinatorId);
    EXPECT_EQ(f.header.msg_type(), MsgType::kShutdown);
    EXPECT_TRUE(f.payload.empty());
  }
  {
    NodeConfigMsg msg;
    msg.kernel = 2;
    msg.heartbeat_interval_ms = 15;
    msg.num_nodes = 6;
    const Frame f = encode_node_config(kCoordinatorId, msg);
    EXPECT_EQ(f.header.msg_type(), MsgType::kNodeConfig);
    NodeConfigMsg m;
    ASSERT_TRUE(decode_node_config(f, &m, &error)) << error;
    EXPECT_EQ(f.payload.size(), 9u);  // kernel byte + two u32 fields
    EXPECT_EQ(m.kernel, 2);
    EXPECT_EQ(m.heartbeat_interval_ms, 15u);
    EXPECT_EQ(m.num_nodes, 6u);
  }
}

TEST(Wire, NodeConfigRejectsTruncationAndTrailingBytes) {
  NodeConfigMsg msg;
  msg.kernel = 1;
  msg.num_nodes = 4;
  std::string error;
  {
    Frame f = encode_node_config(kCoordinatorId, msg);
    f.payload.pop_back();  // truncated mid-field
    f.header.payload_bytes = static_cast<std::uint32_t>(f.payload.size());
    NodeConfigMsg out;
    EXPECT_FALSE(decode_node_config(f, &out, &error));
    EXPECT_FALSE(error.empty());
  }
  {
    Frame f = encode_node_config(kCoordinatorId, msg);
    f.payload.push_back(0xcd);  // stray byte after a valid message
    f.header.payload_bytes = static_cast<std::uint32_t>(f.payload.size());
    NodeConfigMsg out;
    EXPECT_FALSE(decode_node_config(f, &out, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  }
  {
    // The older 13-byte layout, which carried an interleave width after
    // the kernel byte, is rejected rather than misread.
    Frame f = encode_node_config(kCoordinatorId, msg);
    f.payload.insert(f.payload.begin() + 1, {16, 0, 0, 0});
    f.header.payload_bytes = static_cast<std::uint32_t>(f.payload.size());
    ASSERT_EQ(f.payload.size(), 13u);
    NodeConfigMsg out;
    EXPECT_FALSE(decode_node_config(f, &out, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  }
}

TEST(Wire, WholeFrameBufferRoundTrip) {
  QueryBatchMsg msg;
  msg.submission = 9;
  msg.keys = {1, 2, 3, 4, 5};
  msg.ids = {0, 1, 2, 3, 4};
  const Frame f = encode_query_batch(kCoordinatorId, msg);
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());
  Frame out;
  std::string error;
  ASSERT_TRUE(decode_frame(bytes, &out, &error)) << error;
  EXPECT_EQ(out.header.msg_type(), MsgType::kQueryBatch);
  EXPECT_EQ(out.payload, f.payload);
}

// --- Rejections (the totality contract) -----------------------------------

TEST(Wire, RejectsShortHeader) {
  std::uint8_t buf[kFrameHeaderBytes] = {};
  FrameHeader h;
  std::string error;
  EXPECT_FALSE(decode_frame_header({buf, kFrameHeaderBytes - 1}, &h, &error));
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST(Wire, RejectsGarbageMagic) {
  Frame f = encode_heartbeat(0, {});
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[0] ^= 0xff;  // corrupt the magic
  Frame out;
  std::string error;
  EXPECT_FALSE(decode_frame(bytes, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Wire, RejectsVersionMismatchNamingBothVersions) {
  Frame f = encode_heartbeat(0, {});
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[4] = 0x7f;  // version low byte
  Frame out;
  std::string error;
  EXPECT_FALSE(decode_frame(bytes, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_NE(error.find("127"), std::string::npos) << error;  // theirs
  EXPECT_NE(error.find("we speak v" + std::to_string(kWireVersion)),
            std::string::npos)
      << error;  // ours
}

TEST(Wire, RejectsV2Header) {
  // A v2 peer seals with FNV-1a. Its header must be refused by version,
  // before any payload is read, rather than pass framing and fail as a
  // checksum mismatch on every frame.
  Frame f = encode_heartbeat(0, {});
  f.header.version = 2;
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  Frame out;
  std::string error;
  EXPECT_FALSE(decode_frame(bytes, &out, &error));
  EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("v2"), std::string::npos) << error;
  EXPECT_NE(error.find("v3"), std::string::npos) << error;
}

TEST(Wire, RejectsUnknownMessageType) {
  Frame f = encode_heartbeat(0, {});
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[6] = 0x66;  // type low byte -> unknown
  Frame out;
  std::string error;
  EXPECT_FALSE(decode_frame(bytes, &out, &error));
  EXPECT_NE(error.find("type"), std::string::npos) << error;
}

TEST(Wire, RejectsOversizedPayloadLength) {
  Frame f = encode_heartbeat(0, {});
  std::vector<std::uint8_t> bytes = encode_frame(f);
  // Lie in the length prefix: 256 MiB payload.
  const std::uint32_t huge = 256u << 20;
  bytes[12] = static_cast<std::uint8_t>(huge);
  bytes[13] = static_cast<std::uint8_t>(huge >> 8);
  bytes[14] = static_cast<std::uint8_t>(huge >> 16);
  bytes[15] = static_cast<std::uint8_t>(huge >> 24);
  FrameHeader h;
  std::string error;
  EXPECT_FALSE(
      decode_frame_header({bytes.data(), kFrameHeaderBytes}, &h, &error));
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(Wire, RejectsTruncatedPayload) {
  QueryBatchMsg msg;
  msg.keys = {1, 2, 3, 4};
  msg.ids = {0, 1, 2, 3};
  Frame f = encode_query_batch(0, msg);
  f.payload.erase(f.payload.end() - 3, f.payload.end());  // mid-array
  f.header.payload_bytes = static_cast<std::uint32_t>(f.payload.size());
  QueryBatchMsg out;
  std::string error;
  EXPECT_FALSE(decode_query_batch(f, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Wire, RejectsLyingElementCountWithoutAllocating) {
  // A count field claiming 1 billion keys inside a 30-byte payload must
  // be rejected by arithmetic (remaining/4 < count), not by attempting
  // a 4 GB resize.
  QueryBatchMsg msg;
  msg.keys = {1, 2};
  msg.ids = {0, 1};
  Frame f = encode_query_batch(0, msg);
  // keys count lives right after submission(8) + shard(4) + chunk(4).
  const std::uint32_t lie = 1'000'000'000;
  f.payload[16] = static_cast<std::uint8_t>(lie);
  f.payload[17] = static_cast<std::uint8_t>(lie >> 8);
  f.payload[18] = static_cast<std::uint8_t>(lie >> 16);
  f.payload[19] = static_cast<std::uint8_t>(lie >> 24);
  QueryBatchMsg out;
  std::string error;
  EXPECT_FALSE(decode_query_batch(f, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Wire, RejectsTrailingBytes) {
  Frame f = encode_build_ack(1, {.shards_received = 1, .replica_keys = 10});
  f.payload.push_back(0xab);  // one stray byte after a valid message
  f.header.payload_bytes = static_cast<std::uint32_t>(f.payload.size());
  BuildAckMsg out;
  std::string error;
  EXPECT_FALSE(decode_build_ack(f, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(Wire, RejectsNonCanonicalBuildShardLastFlag) {
  // Found by net_wire_fuzz_test: a last-flag byte of 0x11 decoded as
  // true and re-encoded as 0x01, so one message had many spellings.
  BuildShardMsg msg;
  msg.shard = 1;
  msg.last = true;
  Frame f = encode_build_shard(kCoordinatorId, msg);
  f.payload[12] = 0x11;  // shard, global_offset, chunk, then the flag
  BuildShardMsg out;
  std::string error;
  EXPECT_FALSE(decode_build_shard(f, &out, &error));
  EXPECT_NE(error.find("last flag is 17"), std::string::npos) << error;
}

TEST(Wire, RejectsWrongTypeForDecoder) {
  const Frame f = encode_heartbeat(0, {});
  JoinAckMsg out;
  std::string error;
  EXPECT_FALSE(decode_join_ack(f, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Wire, RejectsHeaderPayloadLengthDisagreement) {
  Frame f = encode_heartbeat(0, {});
  f.header.payload_bytes += 4;  // header lies about the payload size
  HeartbeatMsg out;
  std::string error;
  EXPECT_FALSE(decode_heartbeat(f, &out, &error));
  EXPECT_FALSE(error.empty());
}

// --- Checksums (CRC32C, wire v3) and epochs (wire v2) ---------------------

TEST(Wire, EncodersSealAVerifiableChecksum) {
  QueryBatchMsg msg;
  msg.submission = 11;
  msg.keys = {4, 8, 15, 16, 23, 42};
  msg.ids = {0, 1, 2, 3, 4, 5};
  Frame f = encode_query_batch(kCoordinatorId, msg);
  EXPECT_EQ(f.header.checksum, wire_checksum(f.payload));
  EXPECT_TRUE(frame_checksum_ok(f));
  // seq and epoch are stamped OUTSIDE the sum: changing them must not
  // invalidate a sealed frame (the transport stamps seq per send, the
  // coordinator re-stamps epoch per retry).
  f.header.seq = 999;
  f.header.epoch = 7;
  EXPECT_TRUE(frame_checksum_ok(f));
  // One flipped payload bit is caught.
  f.payload[f.payload.size() / 2] ^= 0x01;
  EXPECT_FALSE(frame_checksum_ok(f));
}

std::span<const std::uint8_t> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Wire, Crc32cKnownAnswer) {
  // The CRC32C check value (RFC 3720, B.4) and two of its test vectors.
  EXPECT_EQ(crc32c_portable(as_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c_portable({}), 0u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  const std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c_portable(zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32c_portable(ones), 0x62A8AB43u);
  EXPECT_EQ(wire_checksum(as_bytes("123456789")), 0xE3069283u);
  if (!crc32c_sse42_available()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  EXPECT_EQ(crc32c_sse42(as_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c_sse42({}), 0u);
  EXPECT_EQ(crc32c_sse42(zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32c_sse42(ones), 0x62A8AB43u);
}

TEST(Wire, Crc32cPathsAgree) {
  // Every length up to 64 (each tail length of the 8-byte steps), plus
  // a dispatch-sized and a build-sized buffer, at every start offset
  // within a word, so no alignment is assumed.
  if (!crc32c_sse42_available()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  Rng rng(3);
  std::vector<std::uint8_t> buffer((4u << 20) + 8);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng.below(256));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(64u << 10);
  lengths.push_back(4u << 20);
  for (const std::size_t n : lengths) {
    for (std::size_t start = 0; start < 8; ++start) {
      const std::span<const std::uint8_t> bytes(buffer.data() + start, n);
      ASSERT_EQ(crc32c_sse42(bytes), crc32c_portable(bytes))
          << "length " << n << " start " << start;
    }
  }
}

TEST(Wire, EmptyPayloadChecksumHolds) {
  const Frame f = encode_shutdown(kCoordinatorId);
  EXPECT_TRUE(frame_checksum_ok(f));
}

TEST(Transport, EpochSurvivesTheWireAndSeqIsStamped) {
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    Frame f = encode_heartbeat(3, {.send_ns = 1});
    f.header.epoch = 42;
    ASSERT_EQ(coordinator->send(f, 1s), Endpoint::SendResult::kOk);
    Frame got;
    std::string error;
    ASSERT_EQ(node->recv(&got, 1s, &error), Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    // The endpoint stamps ONLY seq; the caller's epoch and the sealed
    // checksum cross untouched.
    EXPECT_EQ(got.header.epoch, 42u) << transport_name(kind);
    EXPECT_EQ(got.header.seq, 0u) << transport_name(kind);
    EXPECT_TRUE(frame_checksum_ok(got)) << transport_name(kind);
  }
}

// --- Transports carry identical bytes -------------------------------------

Frame test_frame(std::uint64_t i) {
  QueryBatchMsg msg;
  msg.submission = i;
  msg.shard = static_cast<std::uint32_t>(i % 5);
  for (std::uint32_t j = 0; j < 16; ++j) {
    msg.keys.push_back(static_cast<key_t>(i * 16 + j));
    msg.ids.push_back(j);
  }
  return encode_query_batch(kCoordinatorId, msg);
}

TEST(Transport, BothKindsCarryIdenticalFrames) {
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    for (std::uint64_t i = 0; i < 100; ++i) {
      ASSERT_EQ(coordinator->send(test_frame(i), 1s),
                Endpoint::SendResult::kOk)
          << transport_name(kind);
      Frame got;
      std::string error;
      ASSERT_EQ(node->recv(&got, 1s, &error), Endpoint::RecvResult::kFrame)
          << transport_name(kind) << ": " << error;
      // The received frame re-encodes to the same bytes the sender
      // serialized (with the endpoint's seq stamped in).
      Frame sent = test_frame(i);
      sent.header.seq = got.header.seq;
      EXPECT_EQ(encode_frame(sent), encode_frame(got));
      EXPECT_EQ(got.header.seq, i);  // monotonic from 0
      QueryBatchMsg m;
      ASSERT_TRUE(decode_query_batch(got, &m, &error)) << error;
      EXPECT_EQ(m.submission, i);
    }
    const SendStats stats = coordinator->send_stats();
    EXPECT_EQ(stats.messages, 100u);
    EXPECT_GT(stats.bytes, 100 * kFrameHeaderBytes);
  }
}

TEST(Transport, CorruptPayloadIsReportedAndStreamStaysClean) {
  // A frame whose payload was damaged after sealing (what the fault
  // injector's corrupt mode does) must surface as kCorrupt — consumed,
  // diagnosed, and the NEXT frame must arrive intact.
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    Frame damaged = test_frame(0);
    damaged.payload[3] ^= 0xff;  // post-seal damage
    ASSERT_EQ(coordinator->send(damaged, 1s), Endpoint::SendResult::kOk);
    ASSERT_EQ(coordinator->send(test_frame(1), 1s), Endpoint::SendResult::kOk);
    Frame got;
    std::string error;
    EXPECT_EQ(node->recv(&got, 1s, &error), Endpoint::RecvResult::kCorrupt)
        << transport_name(kind);
    ASSERT_EQ(node->recv(&got, 1s, &error), Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    QueryBatchMsg m;
    ASSERT_TRUE(decode_query_batch(got, &m, &error)) << error;
    EXPECT_EQ(m.submission, 1u) << transport_name(kind);
  }
}

TEST(Transport, RecvTimesOutOnSilence) {
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    Frame frame;
    std::string error;
    EXPECT_EQ(node->recv(&frame, 10ms, &error),
              Endpoint::RecvResult::kTimeout)
        << transport_name(kind);
  }
}

TEST(Transport, CloseUnblocksPeerAndDrainsBufferedFrames) {
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    ASSERT_EQ(coordinator->send(test_frame(0), 1s), Endpoint::SendResult::kOk);
    coordinator->close();
    // The frame sent before the close still arrives (ordered drain)...
    Frame frame;
    std::string error;
    ASSERT_EQ(node->recv(&frame, 1s, &error), Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    // ...then the close is observed.
    EXPECT_EQ(node->recv(&frame, 1s, &error), Endpoint::RecvResult::kClosed)
        << transport_name(kind);
    // And sending into a closed link reports closed, not a hang. TCP
    // may accept a frame or two into the socket buffer before the
    // peer's RST lands, so "closed" is eventual, never more than a few
    // sends away.
    Endpoint::SendResult result = Endpoint::SendResult::kOk;
    for (int i = 0; i < 64 && result == Endpoint::SendResult::kOk; ++i) {
      result = node->send(test_frame(1), 10ms);
      if (result == Endpoint::SendResult::kOk)
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_NE(result, Endpoint::SendResult::kOk) << transport_name(kind);
  }
}

TEST(Transport, BackpressureTimesOutWhenReceiverStalls) {
  // Nobody ever receives: the kernel's socket buffers fill, then send
  // must time out (the dead-node case — without this, a wedged node
  // would hang the dispatcher forever). 256 KiB frames overrun even
  // loopback TCP's autotuned buffers within a few dozen sends.
  QueryBatchMsg msg;
  msg.keys.resize(64 * 1024, 7);
  msg.ids.resize(msg.keys.size(), 1);
  const Frame big = encode_query_batch(kCoordinatorId, msg);
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    Endpoint::SendResult result = Endpoint::SendResult::kOk;
    for (int i = 0; i < 256 && result == Endpoint::SendResult::kOk; ++i)
      result = coordinator->send(big, 20ms);
    EXPECT_EQ(result, Endpoint::SendResult::kTimeout) << transport_name(kind);
  }
}

// --- FdEndpoint against a raw peer ---------------------------------------
// Frame bytes written straight to a socket, split wherever a test wants,
// so reassembly and the sender's timed-out tails are exercised at exact
// byte positions rather than wherever the kernel happens to cut.

constexpr TransportKind kSocketKinds[] = {TransportKind::kSocket,
                                          TransportKind::kTcp};

/// An FdEndpoint whose peer is a bare socket the test drives itself.
/// TCP gets fixed buffer sizes (no autotuning), so a stalled link takes
/// about the same number of bytes on every round.
struct RawLink {
  std::unique_ptr<FdEndpoint> endpoint;
  int endpoint_fd = -1;  ///< owned by `endpoint`
  int raw = -1;          ///< owned here

  RawLink() = default;
  RawLink(const RawLink&) = delete;
  RawLink& operator=(const RawLink&) = delete;
  ~RawLink() {
    endpoint.reset();
    if (raw >= 0) ::close(raw);
  }
};

void set_int_option(int fd, int level, int name, int value) {
  ASSERT_EQ(::setsockopt(fd, level, name, &value, sizeof(value)), 0)
      << std::strerror(errno);
}

void open_raw_link(TransportKind kind, RawLink* link) {
  if (kind != TransportKind::kTcp) {
    int fds[2];
    cloexec_socketpair(fds);
    link->endpoint_fd = fds[0];
    link->endpoint = std::make_unique<FdEndpoint>(fds[0]);
    link->raw = fds[1];
    return;
  }
  constexpr int kBufferBytes = 128 << 10;
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  set_int_option(listener, SOL_SOCKET, SO_RCVBUF, kBufferBytes);
  set_int_option(listener, SOL_SOCKET, SO_SNDBUF, kBufferBytes);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  link->raw = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(link->raw, 0);
  set_int_option(link->raw, SOL_SOCKET, SO_RCVBUF, kBufferBytes);
  set_int_option(link->raw, SOL_SOCKET, SO_SNDBUF, kBufferBytes);
  set_int_option(link->raw, IPPROTO_TCP, TCP_NODELAY, 1);
  ASSERT_EQ(::connect(link->raw, reinterpret_cast<sockaddr*>(&addr), len), 0)
      << std::strerror(errno);
  const int accepted = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  ::close(listener);
  ASSERT_GE(accepted, 0);
  set_int_option(accepted, IPPROTO_TCP, TCP_NODELAY, 1);
  link->endpoint_fd = accepted;
  link->endpoint = std::make_unique<FdEndpoint>(accepted);
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Everything the raw peer can read until the link has been quiet for
/// 50 ms, appended to *into; the byte count read.
std::size_t drain_raw(int fd, std::vector<std::uint8_t>* into) {
  std::vector<std::uint8_t> chunk(64 << 10);
  std::size_t total = 0;
  for (;;) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) return total;
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
    if (n <= 0) return total;
    if (into != nullptr)
      into->insert(into->end(), chunk.begin(), chunk.begin() + n);
    total += static_cast<std::size_t>(n);
  }
}

void expect_test_frame(const Frame& got, std::uint64_t i, TransportKind kind) {
  QueryBatchMsg m;
  std::string error;
  ASSERT_TRUE(decode_query_batch(got, &m, &error))
      << transport_name(kind) << ": " << error;
  EXPECT_EQ(m.submission, i) << transport_name(kind);
  EXPECT_EQ(m.keys.size(), 16u) << transport_name(kind);
  EXPECT_EQ(m.keys.front(), static_cast<key_t>(i * 16)) << transport_name(kind);
}

TEST(FdEndpoint, SeveralFramesAndAPartialInOneRead) {
  for (const TransportKind kind : kSocketKinds) {
    RawLink link;
    ASSERT_NO_FATAL_FAILURE(open_raw_link(kind, &link));
    std::vector<std::uint8_t> bytes;
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::vector<std::uint8_t> frame = encode_frame(test_frame(i));
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    // Three whole frames and the first 50 bytes of the fourth, header
    // included, in one write; the rest of the fourth later.
    const std::size_t frame_bytes = bytes.size() / 4;
    const std::size_t first = 3 * frame_bytes + 50;
    ASSERT_NO_FATAL_FAILURE(write_all(link.raw, bytes.data(), first));
    Frame got;
    std::string error;
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_EQ(link.endpoint->recv(&got, 1s, &error),
                Endpoint::RecvResult::kFrame)
          << transport_name(kind) << ": " << error;
      expect_test_frame(got, i, kind);
    }
    EXPECT_EQ(link.endpoint->recv(&got, 20ms, &error),
              Endpoint::RecvResult::kTimeout)
        << transport_name(kind);
    ASSERT_NO_FATAL_FAILURE(
        write_all(link.raw, bytes.data() + first, bytes.size() - first));
    ASSERT_EQ(link.endpoint->recv(&got, 1s, &error),
              Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    expect_test_frame(got, 3, kind);
  }
}

TEST(FdEndpoint, FrameArrivingAByteAtATime) {
  for (const TransportKind kind : kSocketKinds) {
    RawLink link;
    ASSERT_NO_FATAL_FAILURE(open_raw_link(kind, &link));
    const std::vector<std::uint8_t> bytes = encode_frame(test_frame(5));
    std::thread writer([&] {
      for (const std::uint8_t b : bytes) {
        ASSERT_EQ(::send(link.raw, &b, 1, MSG_NOSIGNAL), 1);
        std::this_thread::sleep_for(50us);
      }
    });
    Frame got;
    std::string error;
    const auto result = link.endpoint->recv(&got, 5s, &error);
    writer.join();
    ASSERT_EQ(result, Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    expect_test_frame(got, 5, kind);
    EXPECT_EQ(link.endpoint->recv(&got, 10ms, &error),
              Endpoint::RecvResult::kTimeout)
        << transport_name(kind);
  }
}

TEST(FdEndpoint, CarriesABuildSizedFrame) {
  // A 4 MiB build chunk outgrows the receive buffer; the small frames
  // around it must still arrive in order and intact.
  BuildShardMsg build;
  build.shard = 2;
  build.chunk = 1;
  build.keys.resize((4u << 20) / sizeof(key_t));
  for (std::size_t i = 0; i < build.keys.size(); ++i)
    build.keys[i] = static_cast<key_t>(i * 2654435761u);
  const Frame big = encode_build_shard(kCoordinatorId, build);
  for (const TransportKind kind : kSocketKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    std::thread sender([&, &coordinator = coordinator] {
      EXPECT_EQ(coordinator->send(test_frame(0), 5s),
                Endpoint::SendResult::kOk);
      EXPECT_EQ(coordinator->send(big, 5s), Endpoint::SendResult::kOk);
      EXPECT_EQ(coordinator->send(big, 5s), Endpoint::SendResult::kOk);
      EXPECT_EQ(coordinator->send(test_frame(1), 5s),
                Endpoint::SendResult::kOk);
    });
    Frame got;
    std::string error;
    ASSERT_EQ(node->recv(&got, 5s, &error), Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    expect_test_frame(got, 0, kind);
    for (int copy = 0; copy < 2; ++copy) {
      ASSERT_EQ(node->recv(&got, 5s, &error), Endpoint::RecvResult::kFrame)
          << transport_name(kind) << ": " << error;
      BuildShardMsg m;
      ASSERT_TRUE(decode_build_shard(got, &m, &error)) << error;
      EXPECT_EQ(m.shard, 2u);
      EXPECT_EQ(m.keys, build.keys) << transport_name(kind);
    }
    ASSERT_EQ(node->recv(&got, 5s, &error), Endpoint::RecvResult::kFrame)
        << transport_name(kind) << ": " << error;
    expect_test_frame(got, 1, kind);
    sender.join();
  }
}

TEST(Transport, TimedOutSendNeverTearsAFrame) {
  // A send that times out with its frame half written must not leave
  // the half on the wire: the next frame would be read as the rest of
  // it, the stream would lose its framing, and the peer would drop the
  // link as a protocol breach. Fill the link until a send times out,
  // then drain: every frame that arrives is whole, and a frame sent
  // after the timeout arrives intact.
  QueryBatchMsg msg;
  msg.keys.resize(64 * 1024, 7);
  msg.ids.resize(msg.keys.size(), 1);
  const Frame big = encode_query_batch(kCoordinatorId, msg);
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    Endpoint::SendResult result = Endpoint::SendResult::kOk;
    for (int i = 0; i < 256 && result == Endpoint::SendResult::kOk; ++i)
      result = coordinator->send(big, 20ms);
    ASSERT_EQ(result, Endpoint::SendResult::kTimeout) << transport_name(kind);

    // Drain on another thread while one more frame goes out: every
    // arrival must decode, up to and including that frame.
    std::string error;
    bool intact = true;
    std::uint64_t last = 0;
    std::thread reader([&] {
      for (;;) {
        Frame got;
        QueryBatchMsg m;
        if (node->recv(&got, 2s, &error) != Endpoint::RecvResult::kFrame ||
            !decode_query_batch(got, &m, &error)) {
          intact = false;
          return;
        }
        if (m.keys.size() != msg.keys.size()) {
          last = m.submission;
          return;
        }
      }
    });
    EXPECT_EQ(coordinator->send(test_frame(7), 2s), Endpoint::SendResult::kOk)
        << transport_name(kind);
    reader.join();
    EXPECT_TRUE(intact) << transport_name(kind) << ": " << error;
    EXPECT_EQ(last, 7u) << transport_name(kind);
  }

  // The cut can also fall inside a header: the link takes the rest of a
  // timed-out frame's tail and then only the first bytes of the next
  // frame's 32-byte header. Steer a stalled link to that point: size a
  // filler frame so the tail it leaves is ~16 bytes short of what the
  // link takes in one round, then send a small frame into it. The send
  // after that must complete the stream, and every frame on it must
  // arrive whole.
  for (const TransportKind kind : kSocketKinds) {
    RawLink link;
    ASSERT_NO_FATAL_FAILURE(open_raw_link(kind, &link));
    // What a drained link takes from one send before it stalls.
    const std::vector<std::uint8_t> junk(8u << 20, 0);
    const ssize_t probe = ::send(link.endpoint_fd, junk.data(), junk.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
    ASSERT_GT(probe, 0) << std::strerror(errno);
    ASSERT_EQ(drain_raw(link.raw, nullptr), static_cast<std::size_t>(probe));
    std::size_t take = static_cast<std::size_t>(probe);

    std::vector<std::uint8_t> stream;  // every byte the peer received
    std::size_t end = 0;  // stream offset where the next frame starts
    std::uint64_t frames = 0;
    // Send one frame with a short timeout, then drain the link. Returns
    // the offset the frame starts at, and keeps `end` right when the
    // endpoint drops a frame none of which went out.
    const auto send_and_drain = [&](const Frame& frame) {
      const std::size_t start = end;
      end += kFrameHeaderBytes + frame.payload.size();
      const auto result = link.endpoint->send(frame, 20ms);
      const std::size_t drained = drain_raw(link.raw, &stream);
      if (result == Endpoint::SendResult::kTimeout) take = drained;
      if (result != Endpoint::SendResult::kOk && stream.size() <= start)
        end = start;
      else
        ++frames;
      return start;
    };
    bool cut_in_header = false;
    for (std::uint32_t round = 0; round < 16 && !cut_in_header; ++round) {
      const std::size_t owed = end - stream.size();
      const std::size_t want = 2 * take - 16 > owed ? 2 * take - 16 - owed : 0;
      BuildShardMsg filler;
      filler.chunk = round;
      filler.keys.resize(want > 49 ? (want - 49) / 4 : 0, round);
      send_and_drain(encode_build_shard(kCoordinatorId, filler));
      const std::size_t start = send_and_drain(test_frame(round));
      const std::size_t arrived =
          stream.size() > start ? stream.size() - start : 0;
      cut_in_header = arrived > 0 && arrived < kFrameHeaderBytes;
    }
    ASSERT_TRUE(cut_in_header)
        << transport_name(kind) << ": no send was cut inside a header";
    ASSERT_EQ(link.endpoint->send(test_frame(99), 2s),
              Endpoint::SendResult::kOk)
        << transport_name(kind);
    ++frames;
    drain_raw(link.raw, &stream);

    std::size_t pos = 0;
    std::uint64_t whole = 0;
    Frame got;
    std::string error;
    while (pos < stream.size()) {
      FrameHeader header;
      ASSERT_TRUE(decode_frame_header(
          std::span(stream).subspan(pos), &header, &error))
          << transport_name(kind) << " at byte " << pos << ": " << error;
      const std::size_t total = kFrameHeaderBytes + header.payload_bytes;
      ASSERT_LE(pos + total, stream.size()) << transport_name(kind);
      ASSERT_TRUE(decode_frame(std::span(stream).subspan(pos, total), &got,
                               &error))
          << error;
      EXPECT_TRUE(frame_checksum_ok(got)) << transport_name(kind);
      pos += total;
      ++whole;
    }
    EXPECT_EQ(whole, frames) << transport_name(kind);
    expect_test_frame(got, 99, kind);
  }
}


TEST(Transport, RacedBidirectionalTrafficStaysOrderedAndIntact) {
  // The TSan case: four threads (one sender + one receiver per side)
  // hammer one link in both directions. Per direction, frames must
  // arrive in order with payloads intact.
  for (const TransportKind kind : kAllKinds) {
    auto [coordinator, node] = make_transport_pair(kind);
    constexpr std::uint64_t kFrames = 2000;
    std::atomic<bool> fail{false};

    auto sender = [&](Endpoint* endpoint) {
      for (std::uint64_t i = 0; i < kFrames; ++i) {
        if (endpoint->send(test_frame(i), 5s) != Endpoint::SendResult::kOk) {
          fail.store(true);
          return;
        }
      }
    };
    auto receiver = [&](Endpoint* endpoint) {
      std::string error;
      for (std::uint64_t i = 0; i < kFrames; ++i) {
        Frame frame;
        if (endpoint->recv(&frame, 5s, &error) !=
            Endpoint::RecvResult::kFrame) {
          fail.store(true);
          return;
        }
        QueryBatchMsg msg;
        if (!decode_query_batch(frame, &msg, &error) || msg.submission != i ||
            frame.header.seq != i) {
          fail.store(true);
          return;
        }
      }
    };
    std::thread t1(sender, coordinator.get());
    std::thread t2(receiver, node.get());
    std::thread t3(sender, node.get());
    std::thread t4(receiver, coordinator.get());
    t1.join();
    t2.join();
    t3.join();
    t4.join();
    EXPECT_FALSE(fail.load()) << transport_name(kind);
  }
}

TEST(Transport, TcpAcceptTimesOutWhenNobodyConnects) {
  // A spawned child that dies before connecting back must cost the
  // coordinator its accept deadline, not hang it.
  TcpListener listener;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(listener.accept(20ms, &error), nullptr);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
}

TEST(Transport, ParseAndNameRoundTrip) {
  for (const TransportKind kind : kAllKinds) {
    TransportKind parsed{};
    EXPECT_TRUE(transport_parse(transport_name(kind), &parsed))
        << transport_name(kind);
    EXPECT_EQ(parsed, kind) << transport_name(kind);
  }
  TransportKind kind{};
  EXPECT_FALSE(transport_parse("carrier-pigeon", &kind));
  EXPECT_FALSE(transport_parse("ring", &kind));  // retired transport
  EXPECT_STREQ(transport_name(TransportKind::kSocket), "socket");
  EXPECT_STREQ(transport_name(TransportKind::kFork), "fork");
  EXPECT_STREQ(transport_name(TransportKind::kTcp), "tcp");
  EXPECT_FALSE(transport_is_process(TransportKind::kSocket));
  EXPECT_TRUE(transport_is_process(TransportKind::kFork));
  EXPECT_TRUE(transport_is_process(TransportKind::kTcp));
}

}  // namespace
}  // namespace dici::net
