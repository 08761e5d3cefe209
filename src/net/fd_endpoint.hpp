// The fd-based half of the transport layer, factored out of
// transport.cpp so every descriptor-backed link — UNIX-domain
// socketpair (kSocket), a socketpair inherited across fork/exec
// (kFork), and loopback TCP (kTcp) — shares ONE implementation of the
// hard parts: poll-bounded timeouts, partial-read/-write framing, and
// EINTR-safe syscall wrappers.
//
// FdEndpoint is exactly the wire contract of net::Endpoint over any
// SOCK_STREAM descriptor. It sends each frame as one gathered sendmsg
// of a header encoded on the stack and the payload where it lies —
// the bytes encode_frame() would produce, without that copy — with
// MSG_NOSIGNAL (a dead peer is EPIPE → kClosed, never SIGPIPE). It
// reassembles partial frames in a buffer read at an offset (a whole
// frame is copied out once; only a partial frame that would not fit is
// moved), and verifies the payload checksum per frame (kCorrupt drops
// one frame, the stream stays framed). A send that times out part-way
// keeps the frame's unsent tail, which may start inside the header,
// and writes it ahead of the next frame, so a timeout never tears the
// stream: the timed-out frame arrives late and whole, or (if nothing
// is sent after it) not at all. The fd is owned: closed
// in the destructor, shutdown() on close() so blocked poll()s on either
// end return promptly.
//
// The EINTR discipline (the kSocket audit): every ::send/::recv retries
// EINTR immediately instead of falling through to poll, and
// poll_fd_until() loops on EINTR re-checking the caller's deadline — a
// signal landing mid-wait can never surface as a spurious timeout or a
// spurious close.
//
// TcpListener/tcp_connect are the kTcp bootstrap: a listener bound to
// 127.0.0.1:0 (the kernel picks the port; port() reports it so the
// coordinator can pass it to a spawned child on argv), an accept with a
// poll deadline, and a non-blocking connect with a connect timeout.
// Both ends get TCP_NODELAY — frames are small and latency-bound.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/net/transport.hpp"

namespace dici::net {

// --- EINTR-safe syscall wrappers ------------------------------------------
// Shared by FdEndpoint and the TCP bootstrap below. Each retries EINTR
// internally; any other outcome is the caller's to classify.

/// Wait for `events` (POLLIN/POLLOUT) on `fd` until `deadline`. True
/// when the fd is ready (or has an error condition the next syscall
/// will surface); false only on a genuine deadline expiry. EINTR and
/// sliced waits loop, re-checking the deadline.
bool poll_fd_until(int fd, short events,
                   std::chrono::steady_clock::time_point deadline);

/// ::sendmsg of the `count` buffers in `iov`, in order, with
/// MSG_NOSIGNAL | MSG_DONTWAIT, retrying EINTR. Returns the byte count
/// (> 0, possibly short), or -1 with errno set to the non-EINTR failure
/// (EAGAIN means "poll and retry", EPIPE/ECONNRESET mean peer gone).
ssize_t send_some(int fd, const struct iovec* iov, std::size_t count);

/// ::recv with MSG_DONTWAIT, retrying EINTR. Returns bytes read (> 0),
/// 0 on orderly peer shutdown, or -1 with errno set (EAGAIN = "poll and
/// retry").
ssize_t recv_some(int fd, std::uint8_t* data, std::size_t len);

/// socketpair(AF_UNIX, SOCK_STREAM) with CLOEXEC on both ends, aborting
/// with errno on failure. CLOEXEC matters for the fork transport: a
/// child must inherit exactly the one fd the spawner dup2()s for it,
/// not every sibling's link.
void cloexec_socketpair(int fds[2]);

// --- The shared fd endpoint -----------------------------------------------

/// One side of any SOCK_STREAM frame link. Threading contract as
/// Endpoint: one sender + one receiver thread; close() may race both.
class FdEndpoint final : public Endpoint {
 public:
  /// Takes ownership of `fd` (closed in the destructor).
  explicit FdEndpoint(int fd);
  ~FdEndpoint() override;

  SendResult send(const Frame& frame, std::chrono::nanoseconds timeout) override;
  RecvResult recv(Frame* frame, std::chrono::nanoseconds timeout,
                  std::string* error) override;
  void close() override;
  SendStats send_stats() const override;

 private:
  /// The most buffers one gathered write sends: a timed-out frame's
  /// tail, then a header and a payload.
  static constexpr std::size_t kMaxSendParts = 3;
  /// The receive buffer's size, and its read-ahead past a larger frame.
  static constexpr std::size_t kRecvChunkBytes = 64 << 10;

  /// Read what the socket has into the buffer, first making room for a
  /// frame of `want` bytes starting at head_.
  RecvResult fill(std::size_t want,
                  std::chrono::steady_clock::time_point deadline);
  /// Write the concatenation of `parts`, from byte *sent on, by
  /// `deadline`, advancing *sent.
  SendResult write_until(std::span<const std::span<const std::uint8_t>> parts,
                         std::chrono::steady_clock::time_point deadline,
                         std::size_t* sent);

  int fd_;
  std::atomic<bool> closed_{false};
  /// Partial-frame reassembly: bytes [head_, tail_) are read and not
  /// yet returned. A frame is copied out where it lies; the partial
  /// one after it moves to the front only when it would not fit.
  /// Receiver-thread-only.
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  /// The tail of a frame whose send timed out part-way; the next send
  /// writes it before its own frame. Sender-thread-only.
  std::vector<std::uint8_t> unsent_;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> stats_messages_{0};
  std::atomic<std::uint64_t> stats_bytes_{0};
};

// --- TCP bootstrap (the kTcp transport) -----------------------------------

/// A loopback listener for one-shot accepts: bind 127.0.0.1:0, report
/// the kernel-chosen port, accept with a deadline. The coordinator
/// opens one per node, spawns the child with `--connect 127.0.0.1:PORT`,
/// and accepts; in-process pairs (bench ping-pong) connect themselves.
class TcpListener {
 public:
  /// Binds + listens on 127.0.0.1:0; aborts with errno on failure.
  TcpListener();
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accept one connection as an endpoint; nullptr on timeout (with a
  /// diagnostic in *error). TCP_NODELAY is set on the accepted socket.
  std::unique_ptr<Endpoint> accept(std::chrono::nanoseconds timeout,
                                   std::string* error);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Non-blocking connect to host:port bounded by `timeout`; nullptr on
/// timeout or refusal (diagnostic in *error). TCP_NODELAY set.
std::unique_ptr<Endpoint> tcp_connect(const std::string& host,
                                      std::uint16_t port,
                                      std::chrono::nanoseconds timeout,
                                      std::string* error);

}  // namespace dici::net
