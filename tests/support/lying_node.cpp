// dici_lying_node — a dici_node that breaks the reply protocol on
// purpose, for cluster_engine_test's checks that the coordinator
// validates what a node process sends back before writing it into the
// caller's output. Same bootstrap as dici_node's fork transport:
//
//   dici_lying_node --id N --fd FD
//
// Node 1 lies in every kRankBatch reply, as the DICI_LIE environment
// variable selects:
//   id    (default) — the first query id becomes one far outside any
//                     submission;
//   count           — the reply drops its last answer (an id and its
//                     rank), so it answers fewer queries than its chunk
//                     carried;
//   dup             — the second answer repeats the first (its id and
//                     rank), so the count and every id are plausible but
//                     one query is answered twice and another not at all.
// Every other node, and every other frame, is honest.

#include <signal.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/cluster/node.hpp"
#include "src/net/fd_endpoint.hpp"

namespace {

using dici::net::Endpoint;
using dici::net::Frame;

/// The node id that lies.
constexpr std::uint32_t kLiar = 1;

/// Rewrites the node's outgoing kRankBatch frames; forwards the rest.
class LyingEndpoint final : public Endpoint {
 public:
  enum class Lie { kId, kCount, kDup };

  LyingEndpoint(std::unique_ptr<Endpoint> inner, Lie lie)
      : inner_(std::move(inner)), lie_(lie) {}

  SendResult send(const Frame& frame,
                  std::chrono::nanoseconds timeout) override {
    dici::net::RankBatchMsg msg;
    std::string error;
    if (frame.header.msg_type() != dici::net::MsgType::kRankBatch ||
        !dici::net::decode_rank_batch(frame, &msg, &error) ||
        msg.ids.size() < 2)
      return inner_->send(frame, timeout);
    switch (lie_) {
      case Lie::kId:
        msg.ids.front() = 0x7fffffffu;
        break;
      case Lie::kCount:
        msg.ids.pop_back();
        msg.ranks.pop_back();
        break;
      case Lie::kDup:
        msg.ids[1] = msg.ids[0];
        msg.ranks[1] = msg.ranks[0];
        break;
    }
    Frame lie = dici::net::encode_rank_batch(frame.header.src, msg);
    lie.header.epoch = frame.header.epoch;
    return inner_->send(lie, timeout);
  }

  RecvResult recv(Frame* frame, std::chrono::nanoseconds timeout,
                  std::string* error) override {
    return inner_->recv(frame, timeout, error);
  }
  void close() override { inner_->close(); }
  dici::net::SendStats send_stats() const override {
    return inner_->send_stats();
  }

 private:
  std::unique_ptr<Endpoint> inner_;
  Lie lie_;
};

}  // namespace

int main(int argc, char** argv) {
  long id = -1;
  long fd = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--id") == 0) {
      id = std::strtol(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--fd") == 0) {
      fd = std::strtol(argv[i + 1], nullptr, 10);
    }
  }
  if (id < 0 || fd < 0) {
    std::fprintf(stderr, "usage: %s --id N --fd FD\n", argv[0]);
    return 2;
  }
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);

  std::unique_ptr<Endpoint> link =
      std::make_unique<dici::net::FdEndpoint>(static_cast<int>(fd));
  if (static_cast<std::uint32_t>(id) == kLiar) {
    const char* mode = std::getenv("DICI_LIE");
    const std::string lie = mode != nullptr ? mode : "id";
    link = std::make_unique<LyingEndpoint>(
        std::move(link), lie == "count" ? LyingEndpoint::Lie::kCount
                         : lie == "dup" ? LyingEndpoint::Lie::kDup
                                        : LyingEndpoint::Lie::kId);
  }
  dici::cluster::NodeService service(static_cast<std::uint32_t>(id), *link);
  service.run();
  return 0;
}
