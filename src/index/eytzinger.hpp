// Eytzinger (BFS) key layout — the cache- and prefetch-friendly twin of
// the sorted array.
//
// The sorted array's binary search walks a *virtual* tree whose nodes
// are scattered across the array: every level of the descent lands a
// power-of-two stride away, so once the partition outgrows L2 each probe
// is its own dependent cache miss and the line it pulled in is 15/16
// wasted. The Eytzinger order stores that same tree breadth-first in a
// flat array (root at slot 1, children of k at 2k and 2k+1):
//
//  * the hot top levels pack into a few contiguous lines that stay
//    cache-resident across queries, and
//  * the 16 great-great-grandchildren of node k occupy slots
//    [16k, 16k+15] — exactly one 64-byte line of 4-byte keys when the
//    array is 64-byte aligned — so a single prefetch issued at node k
//    covers the next FOUR levels of the descent. The batched kernel in
//    batched_search.hpp issues it for every lane. The scalar descent
//    below goes without: on a resident partition the prefetch only
//    costs issue slots, and past L2 the batched kernel beats a
//    prefetching scalar descent several times over.
//
// The descent itself is branch-free: k = 2k + (e[k] <= q) per level,
// then the trailing-one cancellation recovers the last left turn, which
// is the upper_bound element. Its sorted position is computed from the
// slot index alone (rank_of_slot), so every descent returns exactly
// std::upper_bound's answer (duplicates included — the proof only needs
// the inorder labeling to be sorted, not unique) and the layout costs
// one key copy, 4 B per key, with no rank table beside it.
//
// The build fills the array level by level rather than by a recursive
// inorder walk: each level is two sequential runs of writes, fed by
// reads at a fixed stride that shrinks to 2 at the bottom level (see
// rank_of_slot for the two runs). Cf. Khuong & Morin, "Array Layouts
// for Comparison-Based Searching", JEA 2017.
//
// Native-only, like fast_search.hpp: the simulator's cost model already
// abstracts comparator behaviour, so it never builds this layout.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>

#include "src/util/key_array.hpp"
#include "src/util/types.hpp"

namespace dici::index {

/// One partition's keys rearranged in BFS order, built once alongside
/// the sorted copy and immutable afterwards. Slot 0 is unused by the
/// tree; rank_of_slot(0) is n, so the "every element <= q" descent
/// resolves to the past-the-end rank.
class EytzingerLayout {
 public:
  /// Levels of descent needed before every search has fallen off the
  /// tree (bit_width(n)); the lockstep batch kernel runs exactly this
  /// many rounds per query group.
  static constexpr std::uint32_t levels_for(std::size_t n) {
    return static_cast<std::uint32_t>(std::bit_width(n));
  }

  EytzingerLayout() = default;
  /// Build from sorted (not necessarily unique) keys.
  explicit EytzingerLayout(std::span<const key_t> sorted_keys);

  std::size_t size() const { return n_; }
  std::uint32_t levels() const { return levels_; }

  /// The BFS key array, 1-indexed: slots()[1] is the root, slots()[0]
  /// is never read by a descent. 64-byte aligned so the 4-level-ahead
  /// prefetch of slots [16k, 16k+15] is exactly one cache line.
  const key_t* slots() const { return slots_.get(); }

  /// Sorted position of the key in slot k; rank_of_slot(0) == size().
  ///
  /// Slot k sits at depth d = bit_width(k) - 1 of a tree with h =
  /// levels() levels. In the perfect tree of h levels its inorder
  /// position is i = ((2k + 1) << (h - 1 - d)) - 2^h - 1. The real tree
  /// keeps only the first L = n - 2^(h-1) + 1 nodes of the bottom
  /// level, which hold the perfect tree's even positions below 2L; each
  /// position past 2L has lost the (i + 1) / 2 - L absent bottom nodes
  /// before it. So the rank is i below 2L and L + i / 2 from there on:
  /// min(i, L + i / 2).
  rank_t rank_of_slot(std::size_t k) const {
    const std::uint32_t shift =
        levels_ - static_cast<std::uint32_t>(std::bit_width(k));
    const std::size_t i =
        ((2 * k + 1) << shift) - (std::size_t{1} << levels_) - 1;
    // k == 0 makes i garbage (but defined: unsigned wrap); it selects n.
    return static_cast<rank_t>(k == 0 ? n_ : std::min(i, bottom_ + i / 2));
  }

 private:
  std::size_t n_ = 0;
  std::uint32_t levels_ = 0;
  std::size_t bottom_ = 0;  ///< L: keys on the bottom level
  KeyArray slots_;
};

/// How many levels ahead the batched eytzinger kernel prefetches: 16
/// descendants of slot k live in slots [k<<4, (k<<4)+15] — one aligned
/// line.
inline constexpr unsigned kEytzingerLookaheadLevels = 4;

/// First sorted position whose key is > q — exactly std::upper_bound's
/// answer — via the branch-free BFS descent.
inline rank_t eytzinger_upper_bound(const EytzingerLayout& layout, key_t q) {
  const key_t* e = layout.slots();
  const std::size_t n = layout.size();
  std::size_t k = 1;
  while (k <= n) k = 2 * k + (e[k] <= q);
  // Cancel the trailing right turns: what remains is the slot of the
  // last left turn (the smallest element > q), or 0 when there was none
  // (every element <= q; rank_of_slot(0) is n).
  k >>= std::countr_one(k) + 1;
  return layout.rank_of_slot(k);
}

}  // namespace dici::index
