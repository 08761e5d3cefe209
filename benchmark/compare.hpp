// dici_bench --compare: two directories of end-to-end result files.
#pragma once

#include <string>

#include "metrics.hpp"

namespace bench {

/// For every workload and end-to-end metric: both medians and quartiles,
/// the bound, the pairs each side won (runs paired in seed order) and a
/// verdict — "within bound", "regressed", "improved", or "unresolved"
/// when the run-to-run spread is wider than the bound. Bounds come from
/// `declared`; a metric it does not list is shown as "not gated". Every
/// run of a workload, on both sides, must share one plan (sizes, trial
/// lengths and counts). Returns 1 when anything regressed, 2 on
/// unreadable input or mixed plans, else 0.
int compare_results(const std::string& baseline_dir,
                    const std::string& candidate_dir, const Declared& declared);

}  // namespace bench
