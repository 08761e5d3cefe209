// dici_bench — the repository benchmark.
//
// One workload per process:
//
//   dici_bench --workload uniform-l2 --seed 1 --seconds 20 --trace 0
//
// prints the workload's end-to-end metrics (--trace 1: per-layer ones),
// writes a result file under --out, and ends its standard output with
// one JSON line {"correct", "attempted", "failed", "metrics"} holding the
// metrics BENCHMARK.json lists. Every answer is checked; a wrong rank
// makes the exit code non-zero. --seconds is BENCHMARK.json's
// run_seconds when the run follows it.
//
//   dici_bench --compare A/ B/
//
// compares two directories of result files (see compare.hpp).
// Both modes read BENCHMARK.json from the working directory.
// benchmark/run.sh builds this binary and runs it; README.md has the
// workloads, metrics and bounds.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "compare.hpp"
#include "harness.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  bench::Declared declared;
  std::string error;
  if (!bench::load_declared("BENCHMARK.json", &declared, &error)) {
    std::fprintf(stderr, "dici_bench: %s\n", error.c_str());
    return 2;
  }

  if (argc >= 2 && std::string(argv[1]) == "--compare") {
    if (argc != 4) {
      std::fprintf(stderr, "usage: dici_bench --compare BASELINE_DIR CANDIDATE_DIR\n");
      return 2;
    }
    return bench::compare_results(argv[2], argv[3], declared);
  }

  std::string names;
  for (const bench::WorkloadSpec& w : bench::all_workloads())
    names += std::string(names.empty() ? "" : "|") + w.name;
  dici::Cli cli(
      "dici_bench: one workload of the repository benchmark, end to end or "
      "traced.\n  dici_bench --compare A B   compares two result directories");
  cli.add_string("workload", names, "");
  cli.add_int("seed", "seed every input derives from", 1);
  cli.add_double("seconds", "measurement budget; trial lengths scale with it", 20);
  cli.add_int("trace", "1: traced run reporting per-layer metrics", 0);
  cli.add_flag("smoke", "tiny sizes, one short trial each", false);
  cli.add_string("out", "directory for result and trace files", "benchmark/out");
  if (!cli.parse(argc, argv)) return 0;

  bench::RunOptions options;
  options.spec = bench::find_workload(cli.get_string("workload"));
  const std::int64_t seed = cli.get_int("seed");
  const std::int64_t trace = cli.get_int("trace");
  options.seconds = cli.get_double("seconds");
  if (options.spec == nullptr || seed < 0 || (trace != 0 && trace != 1) ||
      !(options.seconds > 0)) {
    std::fprintf(stderr,
                 "dici_bench: need --workload %s, --seed >= 0, --trace 0|1 "
                 "and --seconds > 0\n",
                 names.c_str());
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(seed);
  options.trace = trace == 1;
  options.smoke = cli.get_flag("smoke");
  options.out_dir = cli.get_string("out");
  options.declared = std::move(declared);
  if (const char* sha = std::getenv("DICI_BENCH_SHA")) options.git_sha = sha;
  return bench::run_workload(options);
}
