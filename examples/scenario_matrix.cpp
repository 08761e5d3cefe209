// Scenario matrix runner: every workload shape x every backend, one
// pipelined client stream per cell, one verified summary.
//
//   $ ./scenario_matrix                 # full default matrix
//   $ ./scenario_matrix --quick         # tiny sizes (CI smoke)
//   $ ./scenario_matrix --json out.json # machine-readable artifact
//
// Exit code is non-zero when any verified cell's ranks disagree with
// workload::reference_ranks, so CI can gate on the matrix directly.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/net/transport.hpp"
#include "src/util/bytes.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"
#include "src/workload/scenario.hpp"

using namespace dici;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> names;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    names.push_back(csv.substr(
        begin, comma == std::string::npos ? comma : comma - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return names;
}

std::vector<core::Backend> parse_backends(const std::string& csv) {
  if (csv == "all")
    return {core::kAllBackends.begin(), core::kAllBackends.end()};
  std::vector<core::Backend> backends;
  for (const std::string& name : split_csv(csv))
    backends.push_back(core::backend_from_flag(name, "--backends"));
  return backends;
}

std::vector<core::SearchKernel> parse_kernels(const std::string& csv) {
  if (csv == "all")
    return {core::all_search_kernels().begin(),
            core::all_search_kernels().end()};
  std::vector<core::SearchKernel> kernels;
  for (const std::string& name : split_csv(csv))
    kernels.push_back(core::search_kernel_from_flag(name, "--kernels"));
  return kernels;
}

bool parse_write_fractions(const std::string& csv,
                           std::vector<double>* out) {
  out->clear();
  for (const std::string& name : split_csv(csv)) {
    char* end = nullptr;
    const double wf = std::strtod(name.c_str(), &end);
    if (end == name.c_str() || *end != '\0' || wf < 0.0 || wf >= 1.0) {
      std::fprintf(stderr, "bad write fraction '%s' (want [0, 1))\n",
                   name.c_str());
      return false;
    }
    out->push_back(wf);
  }
  return !out->empty();
}

bool parse_placements(const std::string& csv,
                      std::vector<core::Placement>* out) {
  out->clear();
  if (csv == "all") {
    out->assign(core::all_placements().begin(), core::all_placements().end());
    return true;
  }
  for (const std::string& name : split_csv(csv)) {
    core::Placement placement{};
    if (!core::parse_placement(name, &placement)) {
      std::fprintf(stderr, "unknown placement '%s'\n", name.c_str());
      return false;
    }
    out->push_back(placement);
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("Scenario matrix: distribution x backend, streamed via sessions");
  cli.add_int("keys", "index keys per scenario", 1 << 16);
  cli.add_int("queries", "queries per scenario", 1 << 17);
  cli.add_int("stream-batches", "submit() calls per client stream", 8);
  cli.add_int("in-flight", "batches kept in flight per client (at >1 the "
              "'sec' column sums overlapping makespans)", 1);
  cli.add_bytes("batch", "dispatcher round size", 8 * KiB);
  cli.add_int("nodes", "cluster size (1 master + slaves)", 5);
  cli.add_string("backends", std::string("comma list of ") +
                 core::kBackendChoices + ", or 'all'", "all");
  cli.add_string("transport", std::string("frame transport for cluster "
                 "cells: ") + net::kTransportChoices + " (fork/tcp spawn "
                 "real dici_node processes)", "socket");
  cli.add_string("kernels", std::string("comma list of ") +
                 index::kSearchKernelChoices + ", or 'all'", "all");
  cli.add_string("placements", "comma list of "
                 "interleave|node-local|replicate, or 'all' (parallel-native "
                 "sweeps them; other backends run the first)", "all");
  cli.add_int("numa-nodes", "force a simulated NUMA topology with this many "
              "nodes (0 = discover the host)", 0);
  cli.add_string("write-fractions", "comma list of write mixes in [0, 1); "
                 "0 = read-only Index, >0 streams writes through a mutable "
                 "Store (e.g. 0,0.05)", "0");
  cli.add_string("json", "write the machine-readable summary here", "");
  cli.add_flag("quick", "tiny sizes for CI smoke runs", false);
  cli.add_flag("no-verify", "skip rank verification (timing only)", false);
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_flag("quick");
  const std::size_t keys =
      quick ? (1 << 12) : static_cast<std::size_t>(cli.get_int("keys"));
  const std::size_t queries =
      quick ? (1 << 13) : static_cast<std::size_t>(cli.get_int("queries"));

  workload::ScenarioRegistry registry =
      workload::default_scenarios(keys, queries);
  // Re-register with the CLI's streaming/batching/cluster knobs applied.
  workload::ScenarioRegistry tuned;
  for (workload::ScenarioSpec spec : registry.specs()) {
    spec.stream_batches =
        static_cast<std::size_t>(cli.get_int("stream-batches"));
    spec.batch_bytes = cli.get_bytes("batch");
    spec.num_nodes = static_cast<std::uint32_t>(cli.get_int("nodes"));
    tuned.add(std::move(spec));
  }

  workload::MatrixOptions options;
  options.verify = !cli.get_flag("no-verify");
  options.in_flight = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("in-flight")));
  options.backends = parse_backends(cli.get_string("backends"));
  options.kernels = parse_kernels(cli.get_string("kernels"));
  if (!parse_placements(cli.get_string("placements"), &options.placements))
    return 2;
  options.transport =
      net::transport_from_flag(cli.get_string("transport"), "--transport");
  options.numa_nodes = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, cli.get_int("numa-nodes")));
  if (!parse_write_fractions(cli.get_string("write-fractions"),
                             &options.write_fractions))
    return 2;

  std::printf("scenario matrix: %zu scenarios x %zu backends x %zu kernels "
              "x %zu placements, %zu keys, %zu queries, %lld stream batches, "
              "%zu in flight, numa-nodes %u\n\n",
              tuned.specs().size(), options.backends.size(),
              options.kernels.size(), options.placements.size(), keys,
              queries, static_cast<long long>(cli.get_int("stream-batches")),
              options.in_flight, options.numa_nodes);

  const auto cells = workload::run_scenario_matrix(tuned, options);

  TextTable t({"scenario", "backend", "kernel", "placement", "link", "wf",
               "writes", "batches", "queries", "ranks", "sec", "ns/key",
               "Mqps", "messages"});
  for (const auto& c : cells) {
    t.add_row({c.scenario, c.backend, c.kernel, c.placement, c.transport,
               format_double(c.write_fraction, 2), std::to_string(c.writes),
               std::to_string(c.stream_batches),
               std::to_string(c.num_queries),
               !c.verified ? "-" : (c.ranks_ok ? "ok" : "FAIL"),
               format_double(c.seconds, 4), format_double(c.per_key_ns, 1),
               format_double(c.throughput_qps / 1e6, 2),
               std::to_string(c.messages)});
  }
  t.print();
  std::printf("\n  'sec' is virtual time for the sim backend and wall time "
              "for the others.\n");

  const std::string json = workload::matrix_to_json(cells);
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\n  wrote %s (%zu cells)\n", json_path.c_str(), cells.size());
  }

  if (!workload::all_cells_ok(cells)) {
    std::fprintf(stderr, "\nRANK MISMATCH in at least one cell\n");
    return 1;
  }
  return 0;
}
