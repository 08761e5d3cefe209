// Optimized native search kernels for the sorted array (Method C-3's
// slave structure on real hardware).
//
// The classic binary search mispredicts ~every probe; on a cache-resident
// partition the branch misses, not the memory, dominate. Once the
// partition outgrows L2 the memory system takes over instead: every
// probe is a dependent cache miss, and the only way to go faster is to
// overlap misses (memory-level parallelism). The kernel menu below
// keeps one kernel per regime that wins somewhere measured
// (bench_kernels); all entries are exact drop-in replacements for
// std::upper_bound:
//
//  * branchless_upper_bound — conditional-move "halving" search over
//    the sorted copy; the compiler emits cmov, the pipeline never
//    flushes, and no second key copy is needed.
//  * eytzinger_upper_bound (eytzinger.hpp) — the BFS layout packs the
//    hot top levels into a few resident lines: the fastest kernel while
//    a partition stays cache-resident.
//  * batched_eytzinger_upper_bound (batched_search.hpp) — advance W
//    independent BFS descents in lockstep so W cache misses are in
//    flight at once instead of serializing: the fastest kernel once a
//    partition outgrows L2.
//
// These are native-only (no probe instrumentation): the simulator charges
// comparisons via the machine's hot_compare constant, which already
// abstracts the branch behaviour — which is also why kernel choice never
// changes a simulated report, only native wall time.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "src/util/assert.hpp"
#include "src/util/types.hpp"

namespace dici::index {

/// Which exact upper_bound kernel a native slave runs on its shard. All
/// of them return identical ranks for identical inputs; they differ only
/// in speed. kStdUpperBound (the reference the tests compare against)
/// and kBranchless work the sorted array one query at a time;
/// kEytzinger works the BFS-reordered copy (eytzinger.hpp);
/// kBatchedEytzinger interleaves W queries in lockstep over that copy
/// (batched_search.hpp).
enum class SearchKernel {
  kStdUpperBound,
  kBranchless,
  kEytzinger,
  kBatchedEytzinger,
};

/// The kernel every engine, node and matrix runs unless told otherwise:
/// on the benchmark's workloads it beats the rest from cache-resident
/// shards (L2) to DRAM-sized ones.
inline constexpr SearchKernel kDefaultSearchKernel =
    SearchKernel::kBatchedEytzinger;

/// The physical key order a kernel probes. Every index keeps the sorted
/// copy (routing, merging, the kSorted kernels); the Eytzinger copy is
/// built alongside it when an eytzinger kernel is configured.
enum class KeyLayout { kSorted, kEytzinger };

inline constexpr std::array<SearchKernel, 4> kAllSearchKernels = {
    SearchKernel::kStdUpperBound,
    SearchKernel::kBranchless,
    SearchKernel::kEytzinger,
    SearchKernel::kBatchedEytzinger,
};

inline std::span<const SearchKernel> all_search_kernels() {
  return kAllSearchKernels;
}

/// True for the in-range enum values; config validation gates on this so
/// a miscast integer dies naming the field instead of hitting a default
/// arm deep in a worker loop.
constexpr bool search_kernel_valid(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kStdUpperBound:
    case SearchKernel::kBranchless:
    case SearchKernel::kEytzinger:
    case SearchKernel::kBatchedEytzinger:
      return true;
  }
  return false;
}

constexpr const char* search_kernel_name(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kStdUpperBound: return "std-upper-bound";
    case SearchKernel::kBranchless: return "branchless";
    case SearchKernel::kEytzinger: return "eytzinger";
    case SearchKernel::kBatchedEytzinger: return "batched-eytzinger";
  }
  return "?";
}

constexpr KeyLayout kernel_layout(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kEytzinger:
    case SearchKernel::kBatchedEytzinger:
      return KeyLayout::kEytzinger;
    default:
      return KeyLayout::kSorted;
  }
}

constexpr const char* key_layout_name(KeyLayout layout) {
  switch (layout) {
    case KeyLayout::kSorted: return "sorted";
    case KeyLayout::kEytzinger: return "eytzinger";
  }
  return "?";
}

/// Hard cap on the interleave width of the batched kernel: past ~16
/// the core's miss queue is full and extra lanes only spill registers.
inline constexpr std::uint32_t kMaxInterleave = 32;

/// The W every engine runs. 16 in-flight lines matches the L1
/// miss-queue depth of current x86 cores; 8 loses little, 32 gains
/// nothing.
inline constexpr std::uint32_t kDefaultInterleave = 16;

/// Parse the search_kernel_name spelling; returns false on anything else.
inline bool parse_search_kernel(const std::string& name, SearchKernel* out) {
  for (const SearchKernel kernel : kAllSearchKernels) {
    if (name == search_kernel_name(kernel)) {
      *out = kernel;
      return true;
    }
  }
  return false;
}

/// The valid search_kernel_name spellings, for diagnostics and CLI help.
inline constexpr const char* kSearchKernelChoices =
    "std-upper-bound|branchless|eytzinger|batched-eytzinger";

/// Parse or abort with a field+value diagnostic enumerating the valid
/// set — the CLI twin of net::transport_from_flag, for surfaces where an
/// unknown kernel is a caller bug, not a recoverable condition.
inline SearchKernel search_kernel_from_flag(const std::string& text,
                                            const char* field) {
  SearchKernel kernel = kDefaultSearchKernel;
  DICI_CHECK_FMT(parse_search_kernel(text, &kernel),
                 "%s = \"%s\" is not a search kernel (want %s)", field,
                 text.c_str(), kSearchKernelChoices);
  return kernel;
}

/// Index of the first element > q, computed without data-dependent
/// branches. Exactly std::upper_bound's answer on sorted input.
inline rank_t branchless_upper_bound(std::span<const key_t> keys, key_t q) {
  const key_t* base = keys.data();
  std::size_t n = keys.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    // cmov: advance past the lower half iff its boundary element is <= q.
    base = (base[half - 1] <= q) ? base + half : base;
    n -= half;
  }
  // One element left; account for it, and for the empty-input case.
  const std::size_t pos =
      static_cast<std::size_t>(base - keys.data()) +
      (n == 1 && *base <= q ? 1 : 0);
  return static_cast<rank_t>(pos);
}

}  // namespace dici::index
