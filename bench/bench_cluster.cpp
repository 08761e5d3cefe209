// AB-cluster — ClusterEngine over real serialized transports: the sweep
// nodes x placement x distribution x transport, plus the ping-pong
// microbench that puts a measured number on what LinkModel::message_ps
// simulates.
//
// Two parts:
//  1. Ping-pong: one echo thread per transport bounces heartbeat-sized
//     and batch-sized frames; half the round trip is the measured
//     per-message overhead, printed next to the Myrinet model's
//     message_ps for the same byte count. This is the honesty check the
//     simulator never had to pass: all three in-host transports
//     (socketpair, the fork-inherited socketpair, loopback TCP) land
//     around or under the modeled 7us Myrinet message.
//  2. The serving sweep: every (nodes, placement, distribution,
//     transport) cell streams the full query set through one pipelined
//     Client against a freshly scattered cluster index. Before any cell
//     is timed its ranks are checked against std::upper_bound, and the
//     binary exits non-zero on disagreement, so CI gates on the matrix.
//
//   $ ./bench_cluster                        # full sweep
//   $ ./bench_cluster --quick --json BENCH_cluster.json   # CI smoke
#include "bench/bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/arch/machine.hpp"
#include "src/cluster/cluster_engine.hpp"
#include "src/net/link.hpp"
#include "src/net/transport.hpp"
#include "src/util/timer.hpp"

using namespace dici;
using namespace std::chrono_literals;

namespace {

struct PingPong {
  net::TransportKind transport{};
  std::size_t frame_bytes = 0;
  double measured_ns = 0;  ///< one-way, RTT / 2
  double modeled_ns = 0;   ///< LinkModel::message_ps on Myrinet
};

/// Bounce `rounds` copies of `frame` through an echo thread on the node
/// side of a fresh pair; return one-way ns per message.
double pingpong_ns(net::TransportKind kind, const net::Frame& frame,
                   std::size_t rounds) {
  auto [coordinator, node] = net::make_transport_pair(kind);
  std::thread echo([&node = *node] {
    net::Frame f;
    std::string error;
    while (node.recv(&f, 1s, &error) == net::Endpoint::RecvResult::kFrame)
      if (node.send(f, 1s) != net::Endpoint::SendResult::kOk) return;
  });
  // Warm the path (first socket send faults pages, wakes the peer).
  net::Frame reply;
  std::string error;
  for (int i = 0; i < 16; ++i) {
    coordinator->send(frame, 1s);
    coordinator->recv(&reply, 1s, &error);
  }
  WallTimer timer;
  for (std::size_t i = 0; i < rounds; ++i) {
    if (coordinator->send(frame, 1s) != net::Endpoint::SendResult::kOk ||
        coordinator->recv(&reply, 1s, &error) !=
            net::Endpoint::RecvResult::kFrame) {
      std::fprintf(stderr, "ping-pong link failure on %s\n",
                   net::transport_name(kind));
      std::exit(2);
    }
  }
  const double sec = timer.elapsed_sec();
  coordinator->close();
  echo.join();
  return sec * 1e9 / (2.0 * static_cast<double>(rounds));
}

struct Cell {
  std::uint32_t nodes = 0;
  index::Placement placement{};
  std::string distribution;
  net::TransportKind transport{};
  double seconds = 0;
  double qps = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
};

/// Stream `queries` through one depth-2 pipelined client; fill `*out`
/// when non-null (the verification pass) and return the drained total.
core::RunReport stream(const core::Index& index,
                       std::span<const dici::key_t> queries, std::size_t batches,
                       std::vector<std::vector<dici::rank_t>>* out) {
  const auto client = index.connect();
  std::vector<core::Ticket> tickets(2);
  std::vector<bool> live(2, false);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = b * queries.size() / batches;
    const std::size_t end = (b + 1) * queries.size() / batches;
    const std::size_t slot = b % 2;
    if (live[slot]) client->wait(tickets[slot]);
    tickets[slot] =
        client->submit(std::span(queries.data() + begin, end - begin),
                       out != nullptr ? &(*out)[b] : nullptr);
    live[slot] = true;
  }
  return client->drain();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("AB-cluster: ClusterEngine sweep + transport ping-pong");
  cli.add_int("keys", "index keys", bench::kDefaultIndexKeys);
  cli.add_int("queries", "search keys per cell",
              static_cast<std::int64_t>(bench::kDefaultQueries));
  cli.add_bytes("batch", "dispatcher round size", 64 * KiB);
  cli.add_int("maxnodes", "largest serving-node count (sweep 2,4,..)", 8);
  cli.add_int("batches", "submit() calls per stream", 8);
  cli.add_int("pings", "ping-pong round trips per transport/size", 20000);
  cli.add_int("repeats", "timed repetitions per cell (best kept)", 3);
  cli.add_string("json", "write the machine-readable summary here", "");
  cli.add_flag("quick", "tiny sizes for CI smoke runs", false);
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_flag("quick");
  const std::size_t keys =
      quick ? (1u << 13) : static_cast<std::size_t>(cli.get_int("keys"));
  const std::size_t queries =
      quick ? (1u << 14) : static_cast<std::size_t>(cli.get_int("queries"));
  const std::size_t batches = static_cast<std::size_t>(
      std::max<std::int64_t>(1, quick ? 4 : cli.get_int("batches")));
  const std::size_t pings = static_cast<std::size_t>(
      std::max<std::int64_t>(1, quick ? 2000 : cli.get_int("pings")));
  const int repeats =
      std::max(1, quick ? 1 : static_cast<int>(cli.get_int("repeats")));
  const auto max_nodes = static_cast<std::uint32_t>(
      std::max<std::int64_t>(2, quick ? 4 : cli.get_int("maxnodes")));

  constexpr net::TransportKind kTransports[] = {
      net::TransportKind::kSocket, net::TransportKind::kFork,
      net::TransportKind::kTcp};

  bench::print_header(
      "AB-cluster — serialized-frame backend vs the paper's link model",
      "nodes x placement x distribution x transport, every cell verified");

  // --- Part 1: per-message overhead, measured vs modeled ------------------
  const net::LinkModel myrinet(arch::pentium3_cluster());
  std::vector<PingPong> pp;
  {
    // A heartbeat-sized control frame and a dispatch-sized data frame.
    const net::Frame small = net::encode_heartbeat(net::kCoordinatorId, {0});
    net::QueryBatchMsg batch_msg;
    batch_msg.keys.resize(1024, 42);
    batch_msg.ids.resize(1024, 7);
    const net::Frame big =
        net::encode_query_batch(net::kCoordinatorId, batch_msg);

    TextTable t({"transport", "frame", "measured ns/msg", "modeled ns/msg",
                 "measured/model"});
    for (const net::TransportKind kind : kTransports) {
      for (const net::Frame* frame : {&small, &big}) {
        PingPong p;
        p.transport = kind;
        p.frame_bytes = net::kFrameHeaderBytes + frame->payload.size();
        p.measured_ns = pingpong_ns(kind, *frame, pings);
        p.modeled_ns =
            static_cast<double>(myrinet.message_ps(p.frame_bytes)) / 1e3;
        t.add_row({net::transport_name(kind),
                   format_bytes(p.frame_bytes).c_str(),
                   format_double(p.measured_ns, 0),
                   format_double(p.modeled_ns, 0),
                   format_double(p.measured_ns / p.modeled_ns, 3) + "x"});
        pp.push_back(p);
      }
    }
    t.print();
    std::printf(
        "\n  'modeled' is LinkModel::message_ps on the paper's Myrinet\n"
        "  (7 us latency + bytes/W2): the in-host transports undercut it —\n"
        "  the gap a real NIC hop would close. Ping-pong is the transports'\n"
        "  worst case (one poll wake-up per bounce, no pipelining). All\n"
        "  three move the same wire-v3 bytes through the kernel's socket\n"
        "  layer — in the sweep below the fork and tcp cells cross a real\n"
        "  process boundary into spawned dici_node children.\n\n");
  }

  // --- Part 2: the serving sweep ------------------------------------------
  Rng rng(20050410);
  const auto index_keys = workload::make_sorted_unique_keys(keys, rng);
  struct Distribution {
    const char* name;
    std::vector<dici::key_t> queries;
    std::vector<dici::rank_t> expected;
  };
  std::vector<Distribution> distributions;
  distributions.push_back(
      {"uniform", workload::make_uniform_queries(queries, rng), {}});
  distributions.push_back(
      {"zipf", workload::make_zipf_queries(queries, 1024, 1.1, rng), {}});
  for (auto& d : distributions)
    d.expected = workload::reference_ranks(index_keys, d.queries);

  std::vector<std::uint32_t> node_counts;
  for (std::uint32_t n = 2; n <= max_nodes; n *= 2) node_counts.push_back(n);
  if (node_counts.back() != max_nodes) node_counts.push_back(max_nodes);
  // kNodeLocal is wire-identical to kInterleave (see cluster_engine.hpp),
  // so the sweep covers the two assignments that differ on the wire.
  constexpr index::Placement kPlacements[] = {index::Placement::kInterleave,
                                              index::Placement::kReplicate};

  std::vector<Cell> cells;
  TextTable t({"nodes", "placement", "dist", "link", "sec", "Mqps",
               "messages", "wire"});
  for (const std::uint32_t nodes : node_counts) {
    for (const index::Placement placement : kPlacements) {
      for (const net::TransportKind kind : kTransports) {
        cluster::ClusterConfig cfg;
        cfg.num_nodes = nodes;
        cfg.batch_bytes = cli.get_bytes("batch");
        cfg.transport = kind;
        cfg.placement = placement;
        const cluster::ClusterEngine engine(cfg);
        const auto index = engine.build(index_keys);
        for (const Distribution& d : distributions) {
          // Correctness gate, untimed: every rank of every batch.
          {
            std::vector<std::vector<dici::rank_t>> ranks(batches);
            stream(*index, d.queries, batches, &ranks);
            std::uint64_t mismatches = 0;
            for (std::size_t b = 0; b < batches; ++b) {
              const std::size_t begin = b * d.queries.size() / batches;
              for (std::size_t i = 0; i < ranks[b].size(); ++i)
                if (ranks[b][i] != d.expected[begin + i]) ++mismatches;
            }
            if (mismatches != 0) {
              std::fprintf(
                  stderr,
                  "RANK MISMATCH: %llu ranks (nodes %u %s %s %s)\n",
                  static_cast<unsigned long long>(mismatches), nodes,
                  index::placement_name(placement), d.name,
                  net::transport_name(kind));
              return 1;
            }
          }
          Cell cell;
          cell.nodes = nodes;
          cell.placement = placement;
          cell.distribution = d.name;
          cell.transport = kind;
          for (int r = 0; r < repeats; ++r) {
            WallTimer timer;
            const core::RunReport report =
                stream(*index, d.queries, batches, nullptr);
            const double sec = timer.elapsed_sec();
            if (r == 0 || sec < cell.seconds) {
              cell.seconds = sec;
              cell.messages = report.messages;
              cell.wire_bytes = report.wire_bytes;
            }
          }
          cell.qps = cell.seconds > 0
                         ? static_cast<double>(d.queries.size()) / cell.seconds
                         : 0;
          t.add_row({std::to_string(nodes), index::placement_name(placement),
                     d.name, net::transport_name(kind),
                     format_double(cell.seconds, 4),
                     format_double(cell.qps / 1e6, 2),
                     std::to_string(cell.messages),
                     format_bytes(cell.wire_bytes)});
          cells.push_back(cell);
        }
      }
    }
  }
  t.print();
  std::printf(
      "\n  verification: every cell's every rank == std::upper_bound  [ok]\n"
      "  'messages'/'wire' count BOTH hops (request + reply frames), unlike\n"
      "  the shared-memory backends' request-only count — on a cluster the\n"
      "  replies are real frames too. Replicate pays nodes x the build\n"
      "  bytes for the evenest serve; interleave ships each key once.\n");

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::string json = "{\n  \"pingpong\": [\n";
    for (std::size_t i = 0; i < pp.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"transport\": \"%s\", \"frame_bytes\": %zu, "
                    "\"measured_ns\": %.9g, \"modeled_ns\": %.9g}%s\n",
                    net::transport_name(pp[i].transport), pp[i].frame_bytes,
                    pp[i].measured_ns, pp[i].modeled_ns,
                    i + 1 < pp.size() ? "," : "");
      json += buf;
    }
    json += "  ],\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"nodes\": %u, \"placement\": \"%s\", "
          "\"distribution\": \"%s\", \"transport\": \"%s\", "
          "\"seconds\": %.9g, \"qps\": %.9g, \"messages\": %llu, "
          "\"wire_bytes\": %llu}%s\n",
          cells[i].nodes, index::placement_name(cells[i].placement),
          cells[i].distribution.c_str(),
          net::transport_name(cells[i].transport), cells[i].seconds,
          cells[i].qps, static_cast<unsigned long long>(cells[i].messages),
          static_cast<unsigned long long>(cells[i].wire_bytes),
          i + 1 < cells.size() ? "," : "");
      json += buf;
    }
    json += "  ]\n}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\n  wrote %s (%zu cells + %zu ping-pongs)\n",
                json_path.c_str(), cells.size(), pp.size());
  }
  return 0;
}
