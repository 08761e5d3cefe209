#include "src/index/partitioner.hpp"

#include <algorithm>

namespace dici::index {

RangePartitioner::RangePartitioner(std::span<const key_t> sorted_keys,
                                   std::uint32_t parts,
                                   sim::laddr_t logical_base)
    : RangePartitioner(sorted_keys, sorted_keys, parts) {
  DICI_CHECK_MSG(std::is_sorted(keys_.begin(), keys_.end()),
                 "RangePartitioner requires sorted input");
  lbase_ = logical_base;
}

RangePartitioner::RangePartitioner(std::span<const key_t> keys,
                                   std::span<const key_t> source,
                                   std::uint32_t parts)
    : keys_(keys), lbase_(0) {
  DICI_CHECK(parts >= 1);
  DICI_CHECK_MSG(!source.empty(), "cannot partition an empty key set");
  DICI_CHECK_MSG(parts <= source.size(), "more partitions than keys");
  DICI_CHECK(keys.size() == source.size());
  const std::size_t n = source.size();
  starts_.resize(parts + 1);
  for (std::uint32_t p = 0; p <= parts; ++p)
    starts_[p] = static_cast<rank_t>(n * static_cast<std::uint64_t>(p) /
                                     parts);
  delimiters_.reserve(parts - 1);
  for (std::uint32_t p = 1; p < parts; ++p)
    delimiters_.push_back(source[starts_[p]]);
}

}  // namespace dici::index
