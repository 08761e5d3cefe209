// Storage for the index's big key arrays: the Index's sorted copy, the
// placement modes' per-shard and per-node copies, and every Eytzinger
// layout.
//
// allocate_keys hands out uninitialized storage. Allocation touches no
// data page, so the pinned worker that first writes a page decides the
// NUMA node it lands on. The storage is 64-byte aligned, so an
// Eytzinger node's 16 great-great-grandchildren share one cache line.
// Arrays of 8 MiB or more are aligned to 2 MiB and advised
// MADV_HUGEPAGE: a 128 MiB key array then spans 64 pages instead of
// 32768, so fewer of the probes that miss to DRAM also miss the TLB, and
// building it takes 64 page faults instead of 32768.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <span>

#include "src/util/types.hpp"

namespace dici {

struct FreeKeys {
  void operator()(key_t* p) const { std::free(p); }
};
using KeyArray = std::unique_ptr<key_t[], FreeKeys>;

/// Uninitialized room for `n` keys (at least one slot, so an empty
/// array still has a valid address).
KeyArray allocate_keys(std::size_t n);

/// Copy `from` into `to`, aborting with a diagnostic that names
/// "sorted" unless `from` is in non-decreasing order and, when `before`
/// is non-null, starts at or above *before — the key that precedes the
/// slice in the whole array. One pass: the order check rides along with
/// the copy.
void copy_sorted(std::span<const key_t> from, key_t* to,
                 const key_t* before = nullptr);

}  // namespace dici
