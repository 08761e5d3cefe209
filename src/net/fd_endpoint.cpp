#include "src/net/fd_endpoint.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/util/assert.hpp"

namespace dici::net {
namespace {

using Clock = std::chrono::steady_clock;

std::string checksum_error(const FrameHeader& header) {
  return std::string("transport: payload checksum mismatch on ") +
         msg_type_name(header.msg_type()) + " seq " +
         std::to_string(header.seq) + " from src " +
         std::to_string(header.src) + " — frame dropped";
}

std::string errno_string(const char* what) {
  return std::string(what) + ": errno=" + std::to_string(errno) + " (" +
         std::strerror(errno) + ")";
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

bool poll_fd_until(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    struct pollfd pfd = {fd, events, 0};
    // Slice long waits so a racing close() (which shutdown()s the fd and
    // makes it readable) is picked up even against a far deadline.
    const int ms = static_cast<int>(std::min<std::int64_t>(
        std::max<std::int64_t>(left.count(), 1), 60'000));
    const int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR && errno != EAGAIN) return true;
    // timeout slice or EINTR: loop re-checks the deadline — a signal
    // mid-wait never turns into a spurious timeout.
  }
}

ssize_t send_some(int fd, const struct iovec* iov, std::size_t count) {
  struct msghdr msg = {};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = count;
  for (;;) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t recv_some(int fd, std::uint8_t* data, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, data, len, MSG_DONTWAIT);
    if (n >= 0 || errno != EINTR) return n;
  }
}

void cloexec_socketpair(int fds[2]) {
  const int rc =
      ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds);
  DICI_CHECK_FMT(rc == 0, "socketpair failed: errno=%d (%s)", errno,
                 std::strerror(errno));
}

// --- FdEndpoint -----------------------------------------------------------

FdEndpoint::FdEndpoint(int fd) : fd_(fd), buffer_(kRecvChunkBytes) {}

FdEndpoint::~FdEndpoint() {
  close();
  ::close(fd_);  // fd released only here, so a racing send/recv can
                 // never hit a recycled descriptor
}

Endpoint::SendResult FdEndpoint::send(const Frame& frame,
                                      std::chrono::nanoseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  FrameHeader header = frame.header;
  header.seq = seq_++;
  std::uint8_t head[kFrameHeaderBytes] = {};
  encode_frame_header(header, head);
  // One gathered write: the unsent tail of a frame whose send timed out
  // (the peer already holds its head, so it must go first or this frame
  // would be read as the rest of it), then this frame's header and
  // payload, each from where it lies.
  const std::span<const std::uint8_t> parts[] = {
      unsent_, {head, kFrameHeaderBytes}, frame.payload};
  std::size_t sent = 0;
  const SendResult result = write_until(parts, deadline, &sent);
  if (result != SendResult::kOk) {
    // Keep what the peer is still owed of any frame it has begun.
    const std::size_t old_tail = unsent_.size();
    if (sent < old_tail) {
      // The old tail did not finish, so this frame never started.
      unsent_.erase(unsent_.begin(),
                    unsent_.begin() + static_cast<std::ptrdiff_t>(sent));
    } else {
      // This frame's header and payload from the first unsent byte on,
      // which may lie inside the header; nothing if it never started.
      const std::size_t done = sent - old_tail;
      std::vector<std::uint8_t> owed;
      if (done > 0) {
        const std::size_t in_head = std::min(done, kFrameHeaderBytes);
        owed.assign(head + in_head, head + kFrameHeaderBytes);
        owed.insert(owed.end(),
                    frame.payload.begin() +
                        static_cast<std::ptrdiff_t>(done - in_head),
                    frame.payload.end());
      }
      unsent_ = std::move(owed);
    }
    return result;
  }
  unsent_.clear();
  stats_messages_.fetch_add(1, std::memory_order_relaxed);
  stats_bytes_.fetch_add(kFrameHeaderBytes + frame.payload.size(),
                         std::memory_order_relaxed);
  return SendResult::kOk;
}

Endpoint::SendResult FdEndpoint::write_until(
    std::span<const std::span<const std::uint8_t>> parts,
    Clock::time_point deadline, std::size_t* sent) {
  struct iovec iov[kMaxSendParts] = {};
  DICI_CHECK(parts.size() <= kMaxSendParts);
  for (;;) {
    // The parts not yet fully written, the first from where the last
    // short write stopped.
    std::size_t count = 0;
    std::size_t skip = *sent;
    for (const auto part : parts) {
      if (skip >= part.size()) {
        skip -= part.size();
        continue;
      }
      iov[count].iov_base = const_cast<std::uint8_t*>(part.data() + skip);
      iov[count].iov_len = part.size() - skip;
      ++count;
      skip = 0;
    }
    if (count == 0) return SendResult::kOk;
    if (closed_.load(std::memory_order_acquire)) return SendResult::kClosed;
    const ssize_t n = send_some(fd_, iov, count);
    if (n > 0) {
      *sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET || errno == EBADF))
      return SendResult::kClosed;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
      return SendResult::kClosed;
    if (!poll_fd_until(fd_, POLLOUT, deadline)) return SendResult::kTimeout;
  }
}

Endpoint::RecvResult FdEndpoint::recv(Frame* frame,
                                      std::chrono::nanoseconds timeout,
                                      std::string* error) {
  const auto deadline = Clock::now() + timeout;
  // Phase 1: a full header. Phase 2: the payload it promises. A header
  // that fails the bounds checks poisons the stream (we can no longer
  // find frame boundaries), so it is kError, not a skip.
  while (tail_ - head_ < kFrameHeaderBytes) {
    const auto r = fill(kFrameHeaderBytes, deadline);
    if (r != RecvResult::kFrame) return r;
  }
  FrameHeader header;
  if (!decode_frame_header({buffer_.data() + head_, tail_ - head_}, &header,
                           error))
    return RecvResult::kError;
  const std::size_t total = kFrameHeaderBytes + header.payload_bytes;
  while (tail_ - head_ < total) {
    const auto r = fill(total, deadline);
    if (r != RecvResult::kFrame) return r;
  }
  const std::uint8_t* payload = buffer_.data() + head_ + kFrameHeaderBytes;
  frame->header = header;
  frame->payload.assign(payload, payload + header.payload_bytes);
  head_ += total;
  if (head_ == tail_) head_ = tail_ = 0;  // drained: refill from the front
  if (!frame_checksum_ok(*frame)) {
    // The header was valid, so the frame boundary is trustworthy: the
    // damaged frame is already consumed from the buffer and the next
    // recv starts clean at the following header.
    *error = checksum_error(frame->header);
    return RecvResult::kCorrupt;
  }
  return RecvResult::kFrame;
}

void FdEndpoint::close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    // Shut down both directions so blocked poll()s on either end return
    // promptly. The fd itself is released in the destructor.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

SendStats FdEndpoint::send_stats() const {
  return {stats_messages_.load(std::memory_order_relaxed),
          stats_bytes_.load(std::memory_order_relaxed)};
}

Endpoint::RecvResult FdEndpoint::fill(std::size_t want,
                                      Clock::time_point deadline) {
  if (closed_.load(std::memory_order_acquire)) return RecvResult::kClosed;
  if (buffer_.size() - head_ < want) {
    // The frame would run past the buffer's end from where it starts:
    // move its partial bytes to the front, into a larger buffer when
    // the frame is larger than this one.
    const std::size_t have = tail_ - head_;
    if (buffer_.size() < want) {
      std::vector<std::uint8_t> larger(want + kRecvChunkBytes);
      if (have != 0)
        std::memcpy(larger.data(), buffer_.data() + head_, have);
      buffer_.swap(larger);
    } else if (have != 0) {
      std::memmove(buffer_.data(), buffer_.data() + head_, have);
    }
    head_ = 0;
    tail_ = have;
  }
  const ssize_t n =
      recv_some(fd_, buffer_.data() + tail_, buffer_.size() - tail_);
  if (n > 0) {
    tail_ += static_cast<std::size_t>(n);
    return RecvResult::kFrame;
  }
  if (n == 0) return RecvResult::kClosed;  // orderly peer shutdown
  if (errno == ECONNRESET || errno == EBADF) return RecvResult::kClosed;
  if (errno != EAGAIN && errno != EWOULDBLOCK) return RecvResult::kClosed;
  if (!poll_fd_until(fd_, POLLIN, deadline)) return RecvResult::kTimeout;
  return RecvResult::kFrame;  // readable (or racing close) — loop retries
}

// --- TCP bootstrap --------------------------------------------------------

TcpListener::TcpListener() {
  // Non-blocking, so accept() returns EAGAIN and polls against its
  // deadline; a blocking accept4 would wait forever for a child that
  // never connects.
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  DICI_CHECK_FMT(fd_ >= 0, "tcp listener socket failed: errno=%d (%s)", errno,
                 std::strerror(errno));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel picks a free port
  int rc = ::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  DICI_CHECK_FMT(rc == 0, "tcp listener bind failed: errno=%d (%s)", errno,
                 std::strerror(errno));
  rc = ::listen(fd_, 8);
  DICI_CHECK_FMT(rc == 0, "tcp listen failed: errno=%d (%s)", errno,
                 std::strerror(errno));
  socklen_t len = sizeof(addr);
  rc = ::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  DICI_CHECK_FMT(rc == 0, "tcp getsockname failed: errno=%d (%s)", errno,
                 std::strerror(errno));
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Endpoint> TcpListener::accept(std::chrono::nanoseconds timeout,
                                              std::string* error) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      return std::make_unique<FdEndpoint>(fd);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      *error = errno_string("tcp accept failed");
      return nullptr;
    }
    if (!poll_fd_until(fd_, POLLIN, deadline)) {
      *error = "tcp accept timed out on 127.0.0.1:" + std::to_string(port_);
      return nullptr;
    }
  }
}

std::unique_ptr<Endpoint> tcp_connect(const std::string& host,
                                      std::uint16_t port,
                                      std::chrono::nanoseconds timeout,
                                      std::string* error) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    *error = errno_string("tcp socket failed");
    return nullptr;
  }
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "tcp connect: bad address '" + host + "'";
    ::close(fd);
    return nullptr;
  }
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const int rc =
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) break;
    if (errno == EINTR) continue;
    if (errno == EISCONN) break;
    if (errno != EINPROGRESS && errno != EALREADY) {
      *error = errno_string("tcp connect failed");
      ::close(fd);
      return nullptr;
    }
    if (!poll_fd_until(fd, POLLOUT, deadline)) {
      *error = "tcp connect to " + host + ":" + std::to_string(port) +
               " timed out";
      ::close(fd);
      return nullptr;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      errno = so_error;
      *error = errno_string("tcp connect failed");
      ::close(fd);
      return nullptr;
    }
    break;
  }
  set_nodelay(fd);
  return std::make_unique<FdEndpoint>(fd);
}

}  // namespace dici::net
