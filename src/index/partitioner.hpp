// Range partitioner — the master node's data structure in Method C.
//
// The sorted key array is cut into near-equal contiguous partitions, one
// per slave. The master holds only the partition delimiters ("a sorted
// array of partition delimiters on the master node", Sec. 3.2, Figure 2)
// and routes each query with a binary search over them.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "src/sim/address_space.hpp"
#include "src/sim/probe.hpp"
#include "src/util/assert.hpp"
#include "src/util/types.hpp"

namespace dici::index {

/// The partition count a fleet of `want` slaves can cut `num_keys` keys
/// into: at most one partition per key, at least one. Slaves past the
/// clamp stay idle, so an index smaller than its fleet (built tiny, or a
/// Store erased down) still serves exact ranks. Every backend that
/// range-partitions (the simulator, parallel-native, the cluster) cuts
/// through this one rule.
inline std::uint32_t clamp_parts(std::uint32_t want, std::size_t num_keys) {
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(1, std::min<std::size_t>(want, num_keys)));
}

class RangePartitioner {
 public:
  /// Split `sorted_keys` into `parts` contiguous ranges. `logical_base`
  /// places the delimiter array in the master's simulated memory.
  RangePartitioner(std::span<const key_t> sorted_keys, std::uint32_t parts,
                   sim::laddr_t logical_base = 0);

  /// The same split of `keys`, storage that is still being filled with
  /// a copy of `source` — so the delimiters are read from `source`.
  /// Checks no order: whoever copies `source` into `keys` must (see
  /// dici::copy_sorted).
  RangePartitioner(std::span<const key_t> keys, std::span<const key_t> source,
                   std::uint32_t parts);

  std::uint32_t parts() const {
    return static_cast<std::uint32_t>(starts_.size() - 1);
  }

  /// Global rank range [start, end) owned by partition `p`.
  rank_t start_of(std::uint32_t p) const { return starts_[p]; }
  rank_t end_of(std::uint32_t p) const { return starts_[p + 1]; }
  std::size_t size_of(std::uint32_t p) const {
    return end_of(p) - start_of(p);
  }

  /// The whole key array the ranges index.
  std::span<const key_t> keys() const { return keys_; }

  /// The slice of the key array owned by partition `p`.
  std::span<const key_t> keys_of(std::uint32_t p) const {
    return keys_.subspan(start_of(p), size_of(p));
  }

  std::uint64_t delimiter_bytes() const {
    return delimiters_.size() * sizeof(key_t);
  }

  /// Route a query to the partition whose key range contains it.
  /// A query's global upper-bound rank always falls inside the returned
  /// partition's [start, end] — the invariant the correctness tests pin.
  template <sim::ProbeLike P>
  std::uint32_t route(key_t q, P& probe) const {
    // upper_bound over delimiters; delimiters_[i] is the first key of
    // partition i+1, so "first delimiter > q" names q's partition.
    std::size_t lo = 0;
    std::size_t hi = delimiters_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      probe.touch(lbase_ + mid * sizeof(key_t), sizeof(key_t));
      probe.key_compare();
      if (delimiters_[mid] <= q) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::uint32_t>(lo);
  }

  std::uint32_t route(key_t q) const {
    sim::NullProbe probe;
    return route(q, probe);
  }

 private:
  std::span<const key_t> keys_;
  std::vector<key_t> delimiters_;  // first key of partitions 1..P-1
  std::vector<rank_t> starts_;     // P+1 entries; starts_[P] == n
  sim::laddr_t lbase_;
};

}  // namespace dici::index
