// The transport seam: how serialized frames physically move between a
// cluster coordinator and a node.
//
// An Endpoint is one side of a bidirectional, ordered, reliable link
// that carries whole wire.hpp Frames. Every transport is the same
// FdEndpoint (fd_endpoint.hpp) over a SOCK_STREAM descriptor; what
// TransportKind chooses is where the node end lives and how the
// descriptor pair comes to exist:
//
//  * kSocket — a UNIX-domain socketpair (SOCK_STREAM) with both ends in
//              the coordinator's process: the node is a thread here, and
//              the kernel carries the bytes between the two ends.
//  * kFork   — the same socketpair, but the node end is inherited
//              across fork/exec by a spawned dici_node process
//              (src/cluster/process_node.hpp). Identical bytes and
//              syscall cost to kSocket; what changes is that the peer
//              can now REALLY die (SIGKILL closes its fds, the
//              coordinator sees kClosed).
//  * kTcp    — loopback TCP: the coordinator listens on 127.0.0.1:0,
//              spawns the child with `--connect host:port`, and accepts
//              with a deadline (fd_endpoint.hpp's TcpListener). The
//              rung below multi-host: same connector code would reach a
//              remote address.
//
// All three move the same bytes per frame (a 32-byte header, then the
// payload; see fd_endpoint.hpp) through the same bounds-checked
// decoders. Failure semantics are explicit results, never
// exceptions: a send to a full/dead peer times out or reports closed,
// which the membership layer converts into a DEAD node and a failed
// batch instead of a hang.
//
// Threading contract: one sender thread and one receiver thread per
// endpoint side at a time (the cluster serializes multi-client sends
// with a per-node mutex above this seam). close() may race anything.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "src/net/wire.hpp"

namespace dici::net {

enum class TransportKind : std::uint8_t {
  kSocket,  ///< UNIX-domain socketpair, both ends in-process
  kFork,    ///< socketpair inherited by a fork/exec'd dici_node child
  kTcp,     ///< loopback TCP listener/connector to a dici_node child
};

const char* transport_name(TransportKind kind);
/// Parse "socket" / "fork" / "tcp"; false on anything else.
bool transport_parse(const std::string& text, TransportKind* kind);
/// The valid spellings, for diagnostics and CLI help.
inline constexpr const char* kTransportChoices = "socket|fork|tcp";
/// Parse or abort with a field+value diagnostic enumerating the valid
/// set (the DICI_CHECK_FMT house style) — for config/CLI surfaces where
/// an unknown transport is a caller bug, not a recoverable condition.
TransportKind transport_from_flag(const std::string& text, const char* field);

/// Do the two ends of this transport live in different processes (the
/// node end served by a spawned dici_node child)?
constexpr bool transport_is_process(TransportKind kind) {
  return kind == TransportKind::kFork || kind == TransportKind::kTcp;
}

struct SendStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;  ///< serialized bytes incl. frame headers
};

/// One side of a frame link.
class Endpoint {
 public:
  enum class SendResult { kOk, kTimeout, kClosed };
  enum class RecvResult { kFrame, kTimeout, kClosed, kError, kCorrupt };

  virtual ~Endpoint() = default;

  /// Serialize and enqueue/write one frame. Stamps the endpoint's
  /// monotonic sequence number into the header (the caller's seq is
  /// overwritten). kTimeout after `timeout` of sustained backpressure
  /// — the frame may still arrive late, whole, never torn; kClosed once
  /// either side closed the link. Never blocks forever.
  virtual SendResult send(const Frame& frame,
                          std::chrono::nanoseconds timeout) = 0;

  /// Receive the next frame. kTimeout after `timeout` with no frame;
  /// kClosed when the peer closed and everything buffered is drained;
  /// kError (with the diagnostic in *error) when the byte stream fails
  /// to decode — a protocol breach, not a transient. kCorrupt when the
  /// frame was intact enough to stay framed (valid header) but its
  /// payload fails the header's checksum: the stream is still usable,
  /// the caller should drop this frame and keep receiving (the sender's
  /// retry layer covers the loss).
  virtual RecvResult recv(Frame* frame, std::chrono::nanoseconds timeout,
                          std::string* error) = 0;

  /// Close this side: unblocks both directions on both ends. Idempotent,
  /// callable from any thread.
  virtual void close() = 0;

  /// Cumulative frames/bytes sent from this side (relaxed reads; exact
  /// once the sender thread is quiescent).
  virtual SendStats send_stats() const = 0;
};

/// A connected pair of endpoints: `first` is the coordinator side,
/// `second` the node side. The kernel socket buffer bounds the bytes in
/// flight per direction. For kFork/kTcp this builds the IN-PROCESS
/// analogue of the link (the same fds/sockets, nobody spawned) — the
/// mechanism bench_cluster's ping-pong uses to price a transport without
/// paying process-scheduling noise; the cluster layer does the actual
/// spawning (src/cluster/process_node.hpp).
std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>>
make_transport_pair(TransportKind kind);

}  // namespace dici::net
