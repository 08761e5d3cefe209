#include "src/net/transport.hpp"

#include "src/net/fd_endpoint.hpp"
#include "src/util/assert.hpp"

namespace dici::net {

const char* transport_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSocket:
      return "socket";
    case TransportKind::kFork:
      return "fork";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "unknown";
}

bool transport_parse(const std::string& text, TransportKind* kind) {
  if (text == "socket") {
    *kind = TransportKind::kSocket;
    return true;
  }
  if (text == "fork") {
    *kind = TransportKind::kFork;
    return true;
  }
  if (text == "tcp") {
    *kind = TransportKind::kTcp;
    return true;
  }
  return false;
}

TransportKind transport_from_flag(const std::string& text, const char* field) {
  TransportKind kind = TransportKind::kSocket;
  DICI_CHECK_FMT(transport_parse(text, &kind),
                 "%s = \"%s\" is not a transport (want %s)", field,
                 text.c_str(), kTransportChoices);
  return kind;
}

std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>>
make_transport_pair(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSocket:
    case TransportKind::kFork: {
      // Mechanically the same link: a CLOEXEC socketpair. kFork's node
      // end is normally inherited by a spawned child (cluster layer);
      // in-process it prices identically to kSocket.
      int fds[2] = {-1, -1};
      cloexec_socketpair(fds);
      return {std::make_unique<FdEndpoint>(fds[0]),
              std::make_unique<FdEndpoint>(fds[1])};
    }
    case TransportKind::kTcp: {
      // Loopback listener + connector in one thread: the connect lands
      // in the listener's backlog, so accept() after connect() is safe
      // without concurrency.
      TcpListener listener;
      std::string error;
      auto node = tcp_connect("127.0.0.1", listener.port(),
                              std::chrono::seconds(10), &error);
      DICI_CHECK_FMT(node != nullptr, "tcp pair connect failed: %s",
                     error.c_str());
      auto coordinator = listener.accept(std::chrono::seconds(10), &error);
      DICI_CHECK_FMT(coordinator != nullptr, "tcp pair accept failed: %s",
                     error.c_str());
      return {std::move(coordinator), std::move(node)};
    }
  }
  DICI_CHECK(false);
  return {};
}

}  // namespace dici::net
