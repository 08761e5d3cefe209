#include "src/util/key_array.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "src/util/assert.hpp"

namespace dici {

namespace {

constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
/// Arrays of at least this many bytes are backed by huge pages.
constexpr std::size_t kHugePageMinBytes = std::size_t{8} << 20;

}  // namespace

KeyArray allocate_keys(std::size_t n) {
  const std::size_t bytes = std::max<std::size_t>(1, n) * sizeof(key_t);
  const bool huge = bytes >= kHugePageMinBytes;
  const std::size_t align = huge ? kHugePageBytes : 64;
  // aligned_alloc wants a multiple of the alignment.
  const std::size_t rounded = (bytes + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  // Advice only: a kernel without transparent huge pages keeps 4 KiB
  // pages and the same answers.
  if (huge) madvise(p, rounded, MADV_HUGEPAGE);
  return KeyArray(static_cast<key_t*>(p));
}

void copy_sorted(std::span<const key_t> from, key_t* to, const key_t* before) {
  if (from.empty()) return;
  bool descends = before != nullptr && from[0] < *before;
  to[0] = from[0];
  // Compares neighbours, not a carried `prev`, so no iteration waits on
  // the previous one's load.
  for (std::size_t i = 1; i < from.size(); ++i) {
    descends |= from[i] < from[i - 1];
    to[i] = from[i];
  }
  DICI_CHECK_MSG(!descends, "index keys must be sorted");
}

}  // namespace dici
