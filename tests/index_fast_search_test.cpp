#include "src/index/fast_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::index {
namespace {

rank_t reference(std::span<const key_t> keys, key_t q) {
  return static_cast<rank_t>(
      std::upper_bound(keys.begin(), keys.end(), q) - keys.begin());
}

TEST(FastSearch, EmptyArray) {
  const std::span<const key_t> empty;
  EXPECT_EQ(branchless_upper_bound(empty, 5), 0u);
}

TEST(FastSearch, SingleElement) {
  const std::vector<key_t> keys{10};
  for (const key_t q : {0u, 9u, 10u, 11u, 0xFFFFFFFFu})
    EXPECT_EQ(branchless_upper_bound(keys, q), reference(keys, q)) << q;
}

TEST(FastSearch, ExhaustiveSmall) {
  const std::vector<key_t> keys{2, 4, 4 + 2, 8, 16, 32, 33};
  for (key_t q = 0; q < 40; ++q)
    ASSERT_EQ(branchless_upper_bound(keys, q), reference(keys, q)) << q;
}

class FastSearchSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FastSearchSizes, MatchesStdUpperBound) {
  Rng rng(GetParam() * 13 + 5);
  const auto keys = workload::make_sorted_unique_keys(GetParam(), rng);
  for (int i = 0; i < 5000; ++i) {
    const key_t q = static_cast<key_t>(rng.next());
    ASSERT_EQ(branchless_upper_bound(keys, q), reference(keys, q));
  }
  // Boundary probes at the stored keys.
  for (std::size_t i = 0; i < keys.size(); i += keys.size() / 64 + 1)
    ASSERT_EQ(branchless_upper_bound(keys, keys[i]), reference(keys, keys[i]));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FastSearchSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 100, 4096,
                                           65536, 500000));

TEST(FastSearch, ExtremeValues) {
  const std::vector<key_t> keys{0, 1, 0xFFFFFFFEu, 0xFFFFFFFFu};
  for (const key_t q : {0u, 1u, 2u, 0xFFFFFFFEu, 0xFFFFFFFFu})
    EXPECT_EQ(branchless_upper_bound(keys, q), reference(keys, q)) << q;
}

}  // namespace
}  // namespace dici::index
