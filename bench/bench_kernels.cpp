// AB-kernels — layout x kernel x partition-size sweep of the exact
// upper_bound kernels.
//
// The paper's Method C-3 keeps each slave's partition cache-resident so
// the probe is cheap; this bench measures what happens to every kernel
// as the partition grows through L1, L2 and beyond — the regime where
// the memory system, not the comparator, dominates. Each (size, kernel)
// cell is rank-verified against std::upper_bound before it is timed, so
// the bench doubles as an exactness gate and CI can run it as one.
//
// The headline comparison, recorded in the JSON artifact and gated by
// the exit code: on an out-of-L2 partition the interleaved Eytzinger
// kernel must beat the scalar branchless search by >= 1.5x — that is the
// memory-level parallelism the batch kernel exists for, and the reason
// it stays on the menu.
//
//   $ ./bench_kernels                       # full sweep
//   $ ./bench_kernels --quick --json out.json   # CI smoke artifact
//
// Exit status: 1 on any rank mismatch or when the out-of-L2 ratio falls
// below its target, 2 when the JSON cannot be written.
#include "bench/bench_common.hpp"

#include <algorithm>
#include <span>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/index/batched_search.hpp"
#include "src/index/eytzinger.hpp"
#include "src/index/fast_search.hpp"
#include "src/util/timer.hpp"

using namespace dici;

namespace {

struct Row {
  std::size_t keys = 0;
  index::SearchKernel kernel{};
  double ns_per_query = 0;
  double mqps = 0;
  double speedup_vs_branchless = 0;
  bool out_of_l2 = false;
  std::uint64_t mismatches = 0;  ///< this cell's ranks vs std::upper_bound
};

std::uint64_t host_l2_bytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return static_cast<std::uint64_t>(bytes);
#endif
  // Small fallback: errs toward labelling rows out-of-L2, so the
  // acceptance ratio is still recorded when sysconf can't say.
  return 1 * MiB;
}

/// Out-of-L2 batched-eytzinger / branchless speedup the bench gates on.
constexpr double kOutOfL2Target = 1.5;

}  // namespace

int main(int argc, char** argv) {
  Cli cli("AB-kernels: layout x kernel x partition-size sweep");
  cli.add_int("queries", "search keys timed per cell", 1 << 20);
  cli.add_int("repeats", "timed repetitions per cell (best kept)", 3);
  cli.add_int("width", "interleave width W of the batched kernels",
              static_cast<std::int64_t>(index::kDefaultInterleave));
  cli.add_string("json", "write the machine-readable summary here", "");
  cli.add_flag("quick", "tiny sizes for CI smoke runs", false);
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_flag("quick");
  const std::size_t num_queries =
      quick ? (1u << 16) : static_cast<std::size_t>(cli.get_int("queries"));
  const int repeats = quick ? 2 : static_cast<int>(cli.get_int("repeats"));
  // Clamp to what the kernels actually run, so the JSON never records a
  // width that did not execute.
  const auto width = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      cli.get_int("width"), 1, index::kMaxInterleave));
  const std::uint64_t l2 = host_l2_bytes();

  // The partition-size axis spans cache-resident (16 KiB) to well past
  // L2 (8 MiB); --quick keeps ALL sizes — the out-of-L2 point is the
  // one the acceptance gate reads — and shrinks only the query count.
  // On hosts whose L2 swallows even the 8 MiB point, append a 4x-L2
  // partition so an out-of-L2 row (and the recorded ratio) always
  // exists instead of the acceptance silently measuring nothing.
  std::vector<std::size_t> sizes = {1u << 12, 1u << 15, 1u << 18, 1u << 21};
  if (sizes.back() * sizeof(dici::key_t) <= l2)
    sizes.push_back(static_cast<std::size_t>(l2 / sizeof(dici::key_t)) * 4);

  bench::print_header(
      "AB-kernels — exact upper_bound kernels across the cache hierarchy",
      "every cell rank-verified against std::upper_bound before timing");
  std::printf("  host L2: %s   %zu queries/cell, best of %d, W = %u\n",
              format_bytes(l2).c_str(), num_queries, repeats, width);

  std::vector<Row> rows;
  std::uint64_t total_mismatches = 0;
  double acceptance_ratio = 0;  // batched-eytzinger vs branchless, out-of-L2

  for (const std::size_t n : sizes) {
    const auto w = bench::make_workload(n, num_queries,
                                        /*seed=*/20260730 + n);
    const auto expected = workload::reference_ranks(w.index_keys, w.queries);
    const index::EytzingerLayout layout(w.index_keys);
    const bool out_of_l2 = n * sizeof(dici::key_t) > l2;

    std::printf("\n  partition: %zu keys (%s)%s\n", n,
                format_bytes(n * sizeof(dici::key_t)).c_str(),
                out_of_l2 ? "  [out of L2]" : "  [cache-resident]");
    TextTable t({"kernel", "layout", "ns/query", "Mqps", "vs branchless"});
    std::vector<Row> size_rows;
    std::vector<rank_t> out(w.queries.size());
    for (const index::SearchKernel kernel : index::all_search_kernels()) {
      // Exactness gate first: the full stream, every rank checked.
      std::fill(out.begin(), out.end(), 0);
      index::resolve_batch(kernel, w.index_keys, &layout, w.queries,
                           out.data(), width);
      std::uint64_t mismatches = 0;
      for (std::size_t i = 0; i < out.size(); ++i)
        mismatches += out[i] != expected[i];
      total_mismatches += mismatches;

      double best_sec = 0;
      for (int r = 0; r < repeats; ++r) {
        WallTimer timer;
        index::resolve_batch(kernel, w.index_keys, &layout, w.queries,
                             out.data(), width);
        const double sec = timer.elapsed_sec();
        if (r == 0 || sec < best_sec) best_sec = sec;
      }

      Row row;
      row.keys = n;
      row.kernel = kernel;
      row.ns_per_query =
          best_sec * 1e9 / static_cast<double>(w.queries.size());
      row.mqps = best_sec > 0
                     ? static_cast<double>(w.queries.size()) / best_sec / 1e6
                     : 0;
      row.out_of_l2 = out_of_l2;
      row.mismatches = mismatches;
      size_rows.push_back(row);
    }
    // Speedups are relative to this size's branchless row, filled after
    // the sweep so every row (including ones measured earlier) gets one.
    double branchless_ns = 0;
    for (const Row& row : size_rows)
      if (row.kernel == index::SearchKernel::kBranchless)
        branchless_ns = row.ns_per_query;
    for (Row& row : size_rows) {
      row.speedup_vs_branchless =
          branchless_ns > 0 && row.ns_per_query > 0
              ? branchless_ns / row.ns_per_query
              : 0;
      if (row.kernel == index::SearchKernel::kBatchedEytzinger && out_of_l2)
        acceptance_ratio = row.speedup_vs_branchless;
      t.add_row({index::search_kernel_name(row.kernel),
                 index::key_layout_name(index::kernel_layout(row.kernel)),
                 format_double(row.ns_per_query, 1),
                 format_double(row.mqps, 2),
                 row.mismatches > 0
                     ? "RANK MISMATCH"
                     : format_double(row.speedup_vs_branchless, 2) + "x"});
      rows.push_back(row);
    }
    t.print();
  }

  std::printf(
      "\n  Reading: on a cache-resident partition the scalar eytzinger\n"
      "  kernel wins: the BFS layout keeps the hot top levels in a few\n"
      "  resident lines and its descent is as branch-free as branchless,\n"
      "  which it beats several times over. Once the partition leaves L2\n"
      "  every probe is a dependent miss and overlap wins instead:\n"
      "  batched-eytzinger keeps W misses in flight, each lane's one\n"
      "  prefetch covering four levels. The engines default to\n"
      "  batched-eytzinger: it beats branchless at every partition size\n"
      "  and is the only kernel that holds up past L2.\n"
      "\n  out-of-L2 acceptance: batched-eytzinger vs branchless = %.2fx"
      "  (target: >= %.1fx)\n",
      acceptance_ratio, kOutOfL2Target);

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::string json = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "  {\"keys\": %zu, \"bytes\": %zu, \"kernel\": \"%s\", "
          "\"layout\": \"%s\", \"width\": %u, \"ns_per_query\": %.9g, "
          "\"mqps\": %.9g, \"speedup_vs_branchless\": %.9g, "
          "\"out_of_l2\": %s, \"verified\": %s}%s\n",
          r.keys, r.keys * sizeof(dici::key_t), index::search_kernel_name(r.kernel),
          index::key_layout_name(index::kernel_layout(r.kernel)), width,
          r.ns_per_query, r.mqps, r.speedup_vs_branchless,
          r.out_of_l2 ? "true" : "false",
          r.mismatches == 0 ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
      json += buf;
    }
    json += "]\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\n  wrote %s (%zu rows)\n", json_path.c_str(), rows.size());
  }

  if (total_mismatches != 0) {
    std::fprintf(stderr, "RANK MISMATCH: %llu ranks disagree with "
                 "std::upper_bound\n",
                 static_cast<unsigned long long>(total_mismatches));
    return 1;
  }
  if (acceptance_ratio < kOutOfL2Target) {
    std::fprintf(stderr, "out-of-L2 batched-eytzinger vs branchless = %.2fx, "
                 "below the %.1fx target\n",
                 acceptance_ratio, kOutOfL2Target);
    return 1;
  }
  return 0;
}
