// The interleaved batch kernel — memory-level parallelism for the slave
// probe.
//
// A single binary search is one chain of dependent cache misses: probe,
// stall, probe, stall. No amount of cleverness inside ONE search can
// overlap those misses, because each address depends on the previous
// load. But a slave never resolves one query — it resolves a message
// full of them, and distinct queries' descents are independent. The
// kernel here advances W ("interleave width") searches in lockstep, one
// tree level per round, issuing every lane's next probe as a prefetch
// before any lane blocks on its load. The result: up to W misses in
// flight per round instead of one, so DRAM latency amortizes across the
// batch. This is the same trick the paper plays at cluster scale —
// batching queries so communication latency overlaps — applied to the
// memory bus.
//
// Lockstep works because every lane searches the SAME partition: the
// level count of the Eytzinger layout depends only on n, so all lanes
// walk the same number of rounds and no lane waits on another.
//
// resolve_batch() is the one entry point the engines use: it maps a
// SearchKernel onto the scalar kernels (fast_search.hpp,
// eytzinger.hpp) or the interleaved one below, so every backend
// resolves whole messages through identical code.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>

#include "src/index/eytzinger.hpp"
#include "src/index/fast_search.hpp"
#include "src/util/assert.hpp"
#include "src/util/types.hpp"

namespace dici::index {

// kMaxInterleave / kDefaultInterleave (the W bounds) live in
// fast_search.hpp with the rest of the kernel vocabulary.

/// Interleaved upper_bound over the EYTZINGER layout: W lockstep BFS
/// descents, each round prefetching the line that holds every lane's
/// subtree four levels down. Lanes that fall off the (ragged) bottom
/// level park via cmov until the round count runs out, so the loop body
/// stays branch-free and uniform.
inline void batched_eytzinger_upper_bound(const EytzingerLayout& layout,
                                          std::span<const key_t> queries,
                                          rank_t* out, std::uint32_t width) {
  width = std::clamp<std::uint32_t>(width, 1, kMaxInterleave);
  const key_t* e = layout.slots();
  const std::size_t n = layout.size();
  const std::uint32_t levels = layout.levels();
  const std::size_t total = queries.size();
  for (std::size_t g = 0; g < total; g += width) {
    const std::uint32_t m =
        static_cast<std::uint32_t>(std::min<std::size_t>(width, total - g));
    std::size_t k[kMaxInterleave];
    for (std::uint32_t i = 0; i < m; ++i) k[i] = 1;
    for (std::uint32_t level = 0; level < levels; ++level) {
#if defined(__GNUC__) || defined(__clang__)
      for (std::uint32_t i = 0; i < m; ++i)
        __builtin_prefetch(e + (k[i] << kEytzingerLookaheadLevels), 0, 1);
#endif
      for (std::uint32_t i = 0; i < m; ++i) {
        const std::size_t ki = k[i];
        // Parked lanes (ki > n) load slot 1 harmlessly and keep ki: two
        // cmovs instead of a mispredictable ragged-bottom branch.
        const std::size_t probe = ki <= n ? ki : 1;
        const std::size_t next = 2 * ki + (e[probe] <= queries[g + i]);
        k[i] = ki <= n ? next : ki;
      }
    }
    for (std::uint32_t i = 0; i < m; ++i) {
      const std::size_t slot = k[i] >> (std::countr_one(k[i]) + 1);
      out[g + i] = layout.rank_of_slot(slot);
    }
  }
}

/// Resolve one whole message against one partition with the configured
/// kernel: the single probe seam shared by the parallel engine's worker
/// loop and the cluster nodes. `layout` is required (and only consulted)
/// for the eytzinger-layout kernels; `sorted_keys` is required for the
/// sorted-layout ones. `width` is the batched kernel's W; the engines
/// run the default, tests sweep it to exercise ragged lanes. Ranks land
/// in `out` in query order, exactly std::upper_bound's answers.
inline void resolve_batch(SearchKernel kernel,
                          std::span<const key_t> sorted_keys,
                          const EytzingerLayout* layout,
                          std::span<const key_t> queries, rank_t* out,
                          std::uint32_t width = kDefaultInterleave) {
  if (kernel_layout(kernel) == KeyLayout::kEytzinger) {
    DICI_CHECK_MSG(layout != nullptr,
                   "eytzinger kernels need the Eytzinger layout built "
                   "alongside the sorted copy");
  }
  switch (kernel) {
    case SearchKernel::kStdUpperBound:
      for (std::size_t j = 0; j < queries.size(); ++j)
        out[j] = static_cast<rank_t>(
            std::upper_bound(sorted_keys.begin(), sorted_keys.end(),
                             queries[j]) -
            sorted_keys.begin());
      return;
    case SearchKernel::kBranchless:
      for (std::size_t j = 0; j < queries.size(); ++j)
        out[j] = branchless_upper_bound(sorted_keys, queries[j]);
      return;
    case SearchKernel::kEytzinger:
      for (std::size_t j = 0; j < queries.size(); ++j)
        out[j] = eytzinger_upper_bound(*layout, queries[j]);
      return;
    case SearchKernel::kBatchedEytzinger:
      batched_eytzinger_upper_bound(*layout, queries, out, width);
      return;
  }
  DICI_CHECK_MSG(false, "unknown SearchKernel");
}

}  // namespace dici::index
