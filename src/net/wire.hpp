// The cluster wire format: versioned, length-prefixed, bounds-checked.
//
// Everything two cluster nodes say to each other travels as one Frame —
// a fixed 32-byte header followed by `payload_bytes` of message payload.
// Every field and array is little-endian and written one field at a
// time (never a struct memcpy, so padding and layout never reach the
// wire); arrays are copied in bulk, and the codecs refuse to build on
// a big-endian host rather than byte-swap. This
// is the point where net/link.hpp's LinkModel stops being a model:
// every byte counted here actually crosses a transport
// (net/transport.hpp), whether that transport is a UNIX-domain socket
// or loopback TCP.
//
// Decode discipline: a frame arrives from outside the receiver's trust
// domain, so every decoder is TOTAL — truncated payloads, oversized
// counts, garbage magic, and future versions are all rejected with a
// diagnostic string, never an out-of-bounds read or an abort
// (net_wire_test pins each rejection). Encoders are in-process and
// DICI_CHECK their own invariants instead.
//
// v2 added two header fields:
//   checksum — a seal over the payload, computed by make_frame at encode
//              time and verified by every transport recv. A frame whose
//              bytes were damaged in flight keeps a VALID header (the
//              stream stays framed) but fails the checksum, so the
//              receiver can drop exactly that frame and keep serving —
//              the retry layer re-sends it. Header fields themselves
//              (seq, epoch) are stamped after sealing and are
//              deliberately outside the sum.
//   epoch    — the link's incarnation number. The coordinator bumps it
//              when a DEAD node re-joins on a fresh link and stamps it
//              into everything it sends; a node echoes the newest epoch
//              it has seen, so a reply from a pre-death incarnation can
//              never be mistaken for current traffic.
//
// v3 keeps v2's layout and changes only the checksum, from byte-serial
// FNV-1a to CRC32C (wire_checksum). The version is bumped so a v2 peer
// is refused by its header with a version diagnostic, not frame by
// frame as a stream of checksum failures.
//
// Message vocabulary (the pocv2/Pilevisor cluster-port pattern):
//   control  — kJoinRequest/kJoinAck (the join handshake),
//              kNodeConfig (the coordinator's bootstrap config: a
//              freshly exec'd dici_node process learns its kernel,
//              heartbeat cadence, and cluster size from this frame
//              rather than from argv or a shared struct — in-process
//              nodes get the identical frame so both modes run one
//              bootstrap path),
//              kClusterInfo (the broadcast node table),
//              kHeartbeat, kShutdown
//   build    — kBuildShard (a shard replica's keys scattered to its
//              node, chunked + last-flagged), kBuildAck
//   serve    — kQueryBatch (one dispatched message: submission id,
//              shard, keys + query ids), kRankBatch (the reply: ids +
//              global ranks + the node's busy time)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/types.hpp"

namespace dici::net {

inline constexpr std::uint32_t kWireMagic = 0x44494349;  // "DICI"
inline constexpr std::uint16_t kWireVersion = 3;

/// Hard cap a decoder accepts for one frame's payload. Large enough for
/// any build chunk or dispatch batch this system sends (encoders chunk
/// below it), small enough that a garbage length field can never make a
/// receiver allocate gigabytes.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 16u << 20;

/// The sender id carried in FrameHeader::src for the coordinator (the
/// master process); serving nodes use their 0-based node id.
inline constexpr std::uint32_t kCoordinatorId = 0xffffffffu;

/// QueryBatchMsg::shard value meaning "resolve on your full replica"
/// (Placement::kReplicate ships whole-array copies, so a node answers
/// any query with a global upper_bound at offset 0).
inline constexpr std::uint32_t kGlobalShard = 0xffffffffu;

enum class MsgType : std::uint16_t {
  kJoinRequest = 1,
  kJoinAck = 2,
  kClusterInfo = 3,
  kHeartbeat = 4,
  kBuildShard = 5,
  kBuildAck = 6,
  kQueryBatch = 7,
  kRankBatch = 8,
  kShutdown = 9,
  kNodeConfig = 10,
};

const char* msg_type_name(MsgType type);

/// The fixed preamble of every frame. `payload_bytes` is the length
/// prefix a receiver trusts only after bounds-checking; `seq` is the
/// sender's monotonic frame counter (assigned by Endpoint::send), for
/// ordering diagnostics in error messages; `epoch` is the link
/// incarnation (see the header comment); `checksum` seals the payload.
struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t type = 0;
  std::uint32_t src = kCoordinatorId;
  std::uint32_t payload_bytes = 0;
  std::uint64_t seq = 0;
  std::uint32_t epoch = 0;
  std::uint32_t checksum = 0;

  MsgType msg_type() const { return static_cast<MsgType>(type); }
};

inline constexpr std::size_t kFrameHeaderBytes = 32;

/// CRC32C (Castagnoli) over a payload — the integrity seal carried in
/// FrameHeader::checksum. Not cryptographic: the threat model is flipped
/// bits on a link (or the fault injector imitating them), not an
/// adversary forging frames. Runs crc32c_sse42 where the CPU has it
/// (decided once, on first use) and crc32c_portable elsewhere; both
/// give the same value for every input.
std::uint32_t wire_checksum(std::span<const std::uint8_t> payload);

/// The two CRC32C paths behind wire_checksum, callable directly so a
/// test can hold each to the known answers. crc32c_sse42 may be called
/// only when crc32c_sse42_available().
std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes);
std::uint32_t crc32c_sse42(std::span<const std::uint8_t> bytes);
bool crc32c_sse42_available();

/// One decoded (or to-be-encoded) message: header + raw payload bytes.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// --- Header codec (the length prefix every transport reads first) ---------

/// Serialize `header` into exactly kFrameHeaderBytes at `out`.
void encode_frame_header(const FrameHeader& header, std::uint8_t* out);

/// Total decode of a header: false (with a diagnostic in *error) on
/// short input, wrong magic, version mismatch, unknown message type, or
/// a payload length past kMaxFramePayloadBytes.
bool decode_frame_header(std::span<const std::uint8_t> bytes,
                         FrameHeader* header, std::string* error);

/// Serialize header + payload into one contiguous buffer: the bytes a
/// transport puts on the wire for this frame (FdEndpoint sends the same
/// bytes from the header and the payload in place, without this copy).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Total decode of a whole buffered frame (header checks above, plus
/// "buffer holds exactly header + payload_bytes"). Framing only — the
/// checksum is verified separately (frame_checksum_ok) so a transport
/// can distinguish "stream poisoned" (kError) from "this one frame was
/// damaged, drop it and keep reading" (kCorrupt).
bool decode_frame(std::span<const std::uint8_t> bytes, Frame* frame,
                  std::string* error);

/// Does the frame's payload match the checksum its header carries?
bool frame_checksum_ok(const Frame& frame);

// --- Control messages -----------------------------------------------------

struct JoinRequestMsg {
  std::uint32_t node_id = 0;
};

struct JoinAckMsg {
  std::uint32_t node_id = 0;
  std::uint32_t num_nodes = 0;  ///< cluster size the node is joining
};

/// One row of the broadcast cluster-info table. Status values are
/// cluster::NodeStatus, carried as a byte (membership.hpp owns the
/// enum; the wire only promises a byte it range-checks on decode).
struct ClusterInfoEntry {
  std::uint32_t node_id = 0;
  std::uint8_t status = 0;
  std::uint32_t shards = 0;  ///< shard replicas assigned to the node
};

struct ClusterInfoMsg {
  std::vector<ClusterInfoEntry> nodes;
};

struct HeartbeatMsg {
  std::uint64_t send_ns = 0;  ///< sender steady-clock, diagnostics only
};

/// The coordinator's bootstrap configuration, sent right after kJoinAck
/// (join and re-join alike). `kernel` is core::SearchKernel carried as a
/// byte — like ClusterInfoEntry::status the wire promises only a byte;
/// the node validates it against the kernel menu before building.
struct NodeConfigMsg {
  std::uint8_t kernel = 0;
  std::uint32_t heartbeat_interval_ms = 0;
  std::uint32_t num_nodes = 0;
};

// --- Build messages (the shard scatter) -----------------------------------

struct BuildShardMsg {
  std::uint32_t shard = 0;
  rank_t global_offset = 0;  ///< rank of the shard's first key
  std::uint32_t chunk = 0;   ///< 0-based chunk index within the shard —
                             ///< lets a node drop duplicated chunks and
                             ///< detect gaps during a faulty re-scatter
  bool last = false;         ///< final build frame for this node
  std::vector<key_t> keys;
};

struct BuildAckMsg {
  std::uint32_t shards_received = 0;
  std::uint64_t replica_keys = 0;  ///< total keys the node now holds
};

// --- Serving messages (the scatter-gather hot path) -----------------------

struct QueryBatchMsg {
  std::uint64_t submission = 0;  ///< coordinator's submission id
  std::uint32_t shard = 0;       ///< kGlobalShard = full-replica resolve
  std::uint32_t chunk = 0;       ///< chunk index within the submission —
                                 ///< echoed in the reply so the retry
                                 ///< layer can claim each chunk exactly
                                 ///< once however many copies answer
  std::vector<key_t> keys;
  std::vector<std::uint32_t> ids;  ///< query indexes within the submission
};

struct RankBatchMsg {
  std::uint64_t submission = 0;
  std::uint32_t shard = 0;
  std::uint32_t chunk = 0;    ///< echo of QueryBatchMsg::chunk
  std::uint64_t busy_ns = 0;  ///< node-side resolve time for this batch
  std::vector<std::uint32_t> ids;
  std::vector<rank_t> ranks;  ///< global ranks (shard offset applied)
};

// Encoders fill a Frame with the right type and payload, and seal the
// payload checksum; `src` is the sender id stamped into the header. seq
// is left 0 (Endpoint::send assigns it) and epoch is left 0 (the
// membership layer stamps the link incarnation) — both are outside the
// checksum, so stamping them does not break the seal.
Frame encode_join_request(std::uint32_t src, const JoinRequestMsg& msg);
Frame encode_join_ack(std::uint32_t src, const JoinAckMsg& msg);
Frame encode_cluster_info(std::uint32_t src, const ClusterInfoMsg& msg);
Frame encode_heartbeat(std::uint32_t src, const HeartbeatMsg& msg);
Frame encode_node_config(std::uint32_t src, const NodeConfigMsg& msg);
Frame encode_build_shard(std::uint32_t src, const BuildShardMsg& msg);
Frame encode_build_ack(std::uint32_t src, const BuildAckMsg& msg);
Frame encode_query_batch(std::uint32_t src, const QueryBatchMsg& msg);
Frame encode_rank_batch(std::uint32_t src, const RankBatchMsg& msg);
Frame encode_shutdown(std::uint32_t src);

// Total decoders: type check, then bounds-checked payload parse. false
// fills *error with a message naming what was malformed.
bool decode_join_request(const Frame& frame, JoinRequestMsg* msg,
                         std::string* error);
bool decode_join_ack(const Frame& frame, JoinAckMsg* msg, std::string* error);
bool decode_cluster_info(const Frame& frame, ClusterInfoMsg* msg,
                         std::string* error);
bool decode_heartbeat(const Frame& frame, HeartbeatMsg* msg,
                      std::string* error);
bool decode_node_config(const Frame& frame, NodeConfigMsg* msg,
                        std::string* error);
bool decode_build_shard(const Frame& frame, BuildShardMsg* msg,
                        std::string* error);
bool decode_build_ack(const Frame& frame, BuildAckMsg* msg,
                      std::string* error);
bool decode_query_batch(const Frame& frame, QueryBatchMsg* msg,
                        std::string* error);
bool decode_rank_batch(const Frame& frame, RankBatchMsg* msg,
                       std::string* error);

}  // namespace dici::net
