#include "src/net/fd_endpoint.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
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

ssize_t send_some(int fd, const std::uint8_t* data, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
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

FdEndpoint::FdEndpoint(int fd) : fd_(fd) {}

FdEndpoint::~FdEndpoint() {
  close();
  ::close(fd_);  // fd released only here, so a racing send/recv can
                 // never hit a recycled descriptor
}

Endpoint::SendResult FdEndpoint::send(const Frame& frame,
                                      std::chrono::nanoseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  if (!unsent_.empty()) {
    // The peer already holds the head of a frame whose send timed out:
    // its tail goes first, or this frame would be read as the rest of
    // it and the stream would lose its framing.
    std::size_t sent = 0;
    const SendResult result =
        write_until(unsent_.data(), unsent_.size(), deadline, &sent);
    unsent_.erase(unsent_.begin(),
                  unsent_.begin() + static_cast<std::ptrdiff_t>(sent));
    if (result != SendResult::kOk) return result;
  }

  FrameHeader header = frame.header;
  header.seq = seq_++;
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes + frame.payload.size());
  encode_frame_header(header, bytes.data());
  if (!frame.payload.empty()) {
    std::memcpy(bytes.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  std::size_t sent = 0;
  const SendResult result =
      write_until(bytes.data(), bytes.size(), deadline, &sent);
  if (result == SendResult::kTimeout && sent > 0) {
    unsent_.assign(bytes.begin() + static_cast<std::ptrdiff_t>(sent),
                   bytes.end());
  }
  if (result != SendResult::kOk) return result;
  stats_messages_.fetch_add(1, std::memory_order_relaxed);
  stats_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return SendResult::kOk;
}

Endpoint::SendResult FdEndpoint::write_until(const std::uint8_t* data,
                                             std::size_t size,
                                             Clock::time_point deadline,
                                             std::size_t* sent) {
  while (*sent < size) {
    if (closed_.load(std::memory_order_acquire)) return SendResult::kClosed;
    const ssize_t n = send_some(fd_, data + *sent, size - *sent);
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
  return SendResult::kOk;
}

Endpoint::RecvResult FdEndpoint::recv(Frame* frame,
                                      std::chrono::nanoseconds timeout,
                                      std::string* error) {
  const auto deadline = Clock::now() + timeout;
  // Phase 1: a full header. Phase 2: the payload it promises. A header
  // that fails the bounds checks poisons the stream (we can no longer
  // find frame boundaries), so it is kError, not a skip.
  while (buffer_.size() < kFrameHeaderBytes) {
    const auto r = fill(deadline);
    if (r != RecvResult::kFrame) return r;
  }
  FrameHeader header;
  if (!decode_frame_header(buffer_, &header, error)) return RecvResult::kError;
  const std::size_t total = kFrameHeaderBytes + header.payload_bytes;
  while (buffer_.size() < total) {
    const auto r = fill(deadline);
    if (r != RecvResult::kFrame) return r;
  }
  frame->header = header;
  frame->payload.assign(buffer_.begin() + kFrameHeaderBytes,
                        buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
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

Endpoint::RecvResult FdEndpoint::fill(Clock::time_point deadline) {
  if (closed_.load(std::memory_order_acquire)) return RecvResult::kClosed;
  std::uint8_t chunk[64 << 10];
  const ssize_t n = recv_some(fd_, chunk, sizeof(chunk));
  if (n > 0) {
    buffer_.insert(buffer_.end(), chunk, chunk + n);
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
