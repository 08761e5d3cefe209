// One workload, end to end or traced, in one process.
#pragma once

#include <cstdint>
#include <string>

#include "inputs.hpp"
#include "metrics.hpp"

namespace bench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  /// Measurement budget: trial lengths scale with it. Runs that follow
  /// BENCHMARK.json pass its run_seconds (20); --compare refuses to
  /// compare runs made with different budgets.
  double seconds = 20;
  /// BENCHMARK.json: which metrics the result line carries.
  Declared declared;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny sizes and single short trials: checks the harness still runs.
  bool smoke = false;
  /// Where result (and trace) files go.
  std::string out_dir = "benchmark/out";
  /// Commit the run measured, recorded in the result file.
  std::string git_sha = "unknown";
};

/// Run the workload and print its result; the last stdout line is the
/// one-object JSON summary. Returns the process exit code: non-zero when
/// any answer was wrong, the result file could not be written, or the
/// run did not measure a metric BENCHMARK.json lists.
int run_workload(const RunOptions& options);

}  // namespace bench
