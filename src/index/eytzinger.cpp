#include "src/index/eytzinger.hpp"

namespace dici::index {

EytzingerLayout::EytzingerLayout(std::span<const key_t> sorted_keys)
    : n_(sorted_keys.size()),
      levels_(levels_for(n_)),
      bottom_(n_ == 0 ? 0 : n_ + 1 - (std::size_t{1} << (levels_ - 1))),
      slots_(allocate_keys(n_ + 1)) {
  slots_[0] = 0;  // never probed; keep deterministic for tooling
  const key_t* sorted = sorted_keys.data();
  for (std::uint32_t d = 0; d < levels_; ++d) {
    // Level d holds slots [2^d, 2^d + count). Their perfect-tree
    // inorder positions run i0, i0 + stride, ...; rank_of_slot maps the
    // first `split` of them (those below 2L) to themselves and the rest
    // to L + i / 2. So the level is two strided copies of sorted keys.
    const std::size_t first = std::size_t{1} << d;
    const std::size_t count = std::min(first, n_ + 1 - first);
    const std::size_t stride = std::size_t{1} << (levels_ - d);
    const std::size_t i0 = stride / 2 - 1;
    const std::size_t split =
        2 * bottom_ > i0
            ? std::min(count, (2 * bottom_ - i0 + stride - 1) / stride)
            : 0;
    key_t* level = slots_.get() + first;
    std::size_t j = 0;
    for (; j < split; ++j) level[j] = sorted[i0 + j * stride];
    // stride is even, so (i0 + j * stride) / 2 == i0 / 2 + j * stride / 2.
    const key_t* upper = sorted + bottom_ + i0 / 2;
    for (; j < count; ++j) level[j] = upper[j * (stride / 2)];
  }
}

}  // namespace dici::index
