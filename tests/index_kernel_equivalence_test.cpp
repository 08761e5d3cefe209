// Every search kernel is an exact drop-in for std::upper_bound — the
// invariant the whole kernel menu rests on. Swept here across all five
// scenario distributions, a ladder of sizes, every interleave width
// class, and the documented edge inputs (empty, size-1, all-equal keys,
// duplicate runs, queries below/above the key range).
#include "src/index/batched_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/index/eytzinger.hpp"
#include "src/index/fast_search.hpp"
#include "src/index/partitioner.hpp"
#include "src/index/placement.hpp"
#include "src/util/rng.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/workload.hpp"

namespace dici::index {
namespace {

rank_t reference(std::span<const key_t> keys, key_t q) {
  return static_cast<rank_t>(
      std::upper_bound(keys.begin(), keys.end(), q) - keys.begin());
}

/// Run every kernel over the whole query stream and compare each rank.
void expect_all_kernels_agree(std::span<const key_t> sorted_keys,
                              std::span<const key_t> queries,
                              std::uint32_t width = kDefaultInterleave) {
  const EytzingerLayout layout(sorted_keys);
  std::vector<rank_t> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    expected[i] = reference(sorted_keys, queries[i]);
  std::vector<rank_t> out(queries.size());
  for (const SearchKernel kernel : all_search_kernels()) {
    std::fill(out.begin(), out.end(), rank_t{0xDEADBEEF});
    resolve_batch(kernel, sorted_keys, &layout, queries, out.data(), width);
    for (std::size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(out[i], expected[i])
          << search_kernel_name(kernel) << " at query " << i << " (q="
          << queries[i] << ", n=" << sorted_keys.size() << ", W=" << width
          << ")";
  }
}

// --- The five scenario distributions x a size ladder ----------------------

class KernelDistributions
    : public ::testing::TestWithParam<workload::Distribution> {};

TEST_P(KernelDistributions, AllKernelsMatchStdUpperBound) {
  for (const std::size_t n : {std::size_t{1023}, std::size_t{4096},
                              std::size_t{65536}}) {
    workload::ScenarioSpec spec;
    spec.name = "equiv";
    spec.distribution = GetParam();
    spec.index_keys = n;
    spec.num_queries = 6000;
    const auto index = workload::make_scenario_index(spec);
    const auto queries = workload::make_scenario_queries(spec, index);
    expect_all_kernels_agree(index, queries);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, KernelDistributions,
    ::testing::ValuesIn(workload::all_distributions().begin(),
                        workload::all_distributions().end()),
    [](const auto& info) {
      std::string name = workload::distribution_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- Edge inputs the contract documents -----------------------------------

TEST(KernelEquivalence, EmptyIndex) {
  const std::vector<key_t> queries{0, 1, 7, 0xFFFFFFFFu};
  expect_all_kernels_agree({}, queries);
}

TEST(KernelEquivalence, SingleKey) {
  const std::vector<key_t> keys{10};
  const std::vector<key_t> queries{0, 9, 10, 11, 0xFFFFFFFFu};
  expect_all_kernels_agree(keys, queries);
}

TEST(KernelEquivalence, AllEqualKeys) {
  const std::vector<key_t> keys(37, 7);  // duplicates everywhere
  const std::vector<key_t> queries{0, 6, 7, 8, 0xFFFFFFFFu};
  expect_all_kernels_agree(keys, queries);
}

TEST(KernelEquivalence, DuplicateRuns) {
  std::vector<key_t> keys{1, 2, 2, 2, 3, 5, 5, 8, 8, 8, 8, 9};
  std::vector<key_t> queries;
  for (key_t q = 0; q <= 10; ++q) queries.push_back(q);
  expect_all_kernels_agree(keys, queries);
  // Runs of 1 to 9 equal keys, at sizes that leave the
  // Eytzinger bottom level nearly empty, half full and full, so the
  // slot-to-rank arithmetic meets duplicates on both sides of 2L.
  for (const std::size_t n : {std::size_t{2}, std::size_t{65},
                              std::size_t{96}, std::size_t{127},
                              std::size_t{1000}}) {
    keys.assign(n, 0);
    key_t value = 2;
    for (std::size_t i = 0; i < n;) {
      const std::size_t run = 1 + i % 9;
      for (std::size_t j = 0; j < run && i < n; ++j) keys[i++] = value;
      value += 2;
    }
    queries.clear();
    for (key_t q = 0; q <= value; ++q) queries.push_back(q);
    for (const std::uint32_t width : {1u, 5u, kDefaultInterleave})
      expect_all_kernels_agree(keys, queries, width);
  }
}

TEST(KernelEquivalence, QueriesBelowAndAboveTheRange) {
  Rng rng(77);
  // Keys confined to the middle of the space, so below/above both exist.
  std::vector<key_t> keys;
  for (int i = 0; i < 1000; ++i)
    keys.push_back(static_cast<key_t>((1u << 20) + rng.below(1u << 20)));
  std::sort(keys.begin(), keys.end());
  const std::vector<key_t> queries{0, 1, (1u << 20) - 1, (1u << 21) + 1,
                                   0xFFFFFFFEu, 0xFFFFFFFFu};
  expect_all_kernels_agree(keys, queries);
}

TEST(KernelEquivalence, ExtremeKeyValues) {
  const std::vector<key_t> keys{0, 1, 0xFFFFFFFEu, 0xFFFFFFFFu};
  const std::vector<key_t> queries{0, 1, 2, 0xFFFFFFFEu, 0xFFFFFFFFu};
  expect_all_kernels_agree(keys, queries);
}

// --- Interleave widths, including ragged tails ----------------------------

TEST(KernelEquivalence, EveryInterleaveWidthClass) {
  Rng rng(123);
  const auto keys = workload::make_sorted_unique_keys(10000, rng);
  // 1005 queries: never a multiple of any width, so the tail group is
  // always ragged (m < W) — the lane-clamp path.
  const auto queries = workload::make_uniform_queries(1005, rng);
  for (const std::uint32_t width : {2u, 3u, 8u, 16u, kMaxInterleave})
    expect_all_kernels_agree(keys, queries, width);
}

// --- Eytzinger layout invariants ------------------------------------------

TEST(EytzingerLayout, IsAPermutationWithExactRanks) {
  Rng rng(5);
  const auto keys = workload::make_sorted_unique_keys(1000, rng);
  const EytzingerLayout layout(keys);
  ASSERT_EQ(layout.size(), keys.size());
  // Every slot holds the sorted element its rank entry names, and the
  // ranks 0..n-1 each appear exactly once.
  std::vector<bool> seen(keys.size(), false);
  for (std::size_t k = 1; k <= layout.size(); ++k) {
    const rank_t r = layout.rank_of_slot(k);
    ASSERT_LT(r, keys.size());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
    EXPECT_EQ(layout.slots()[k], keys[r]);
  }
  // Slot 0 resolves the "every key <= q" descent to the end rank.
  EXPECT_EQ(layout.rank_of_slot(0), keys.size());
  // The BFS array is 64-byte aligned so the 4-level prefetch is one line.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(layout.slots()) % 64, 0u);
}

/// The oracle: the inorder walk of the implicit tree (children of k at
/// 2k and 2k + 1) visits slots in sorted order, so the walk's counter
/// is each slot's rank.
void inorder_ranks(std::size_t n, std::size_t k, std::vector<rank_t>& ranks,
                   rank_t& next) {
  if (k > n) return;
  inorder_ranks(n, 2 * k, ranks, next);
  ranks[k] = next++;
  inorder_ranks(n, 2 * k + 1, ranks, next);
}

void expect_layout_matches_walk(std::size_t n) {
  std::vector<key_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<key_t>(3 * i + 1);
  const EytzingerLayout layout(keys);
  ASSERT_EQ(layout.size(), n);
  std::vector<rank_t> ranks(n + 1);
  rank_t next = 0;
  inorder_ranks(n, 1, ranks, next);
  ASSERT_EQ(next, n);
  ASSERT_EQ(layout.rank_of_slot(0), n) << "n=" << n;
  for (std::size_t k = 1; k <= n; ++k) {
    ASSERT_EQ(layout.rank_of_slot(k), ranks[k]) << "n=" << n << " slot " << k;
    ASSERT_EQ(layout.slots()[k], keys[ranks[k]]) << "n=" << n << " slot " << k;
  }
}

TEST(EytzingerLayout, RankOfSlotMatchesInorderWalkForEverySmallSize) {
  for (std::size_t n = 0; n <= 2048; ++n) expect_layout_matches_walk(n);
}

TEST(EytzingerLayout, RankOfSlotMatchesInorderWalkAroundAPowerOfTwo) {
  // 2^20 - 1 is a perfect tree; 2^20 + 1 leaves two keys on a bottom
  // level of 2^20 slots.
  expect_layout_matches_walk((std::size_t{1} << 20) - 1);
  expect_layout_matches_walk((std::size_t{1} << 20) + 1);
}

TEST(EytzingerLayout, LevelsMatchBitWidth) {
  EXPECT_EQ(EytzingerLayout::levels_for(0), 0u);
  EXPECT_EQ(EytzingerLayout::levels_for(1), 1u);
  EXPECT_EQ(EytzingerLayout::levels_for(2), 2u);
  EXPECT_EQ(EytzingerLayout::levels_for(7), 3u);
  EXPECT_EQ(EytzingerLayout::levels_for(8), 4u);
}

// --- Placement views: every (mode, node, shard) view is still exact -------

/// Partition `keys`, build every placement's copies, and check that
/// resolve_batch through each (node, shard) view agrees with the global
/// std::upper_bound rank on every query routed to that shard — the
/// engine's probe path, placement included, in miniature.
void expect_all_placements_agree(std::span<const key_t> keys,
                                 std::span<const key_t> queries,
                                 std::uint32_t parts, std::uint32_t nodes) {
  const RangePartitioner partitioner(keys, parts);
  for (const Placement placement : all_placements()) {
    PlacedShards placed(placement, /*build_eytzinger=*/true, partitioner,
                        nodes);
    placed.build_all();
    for (std::uint32_t node = 0; node < nodes; ++node) {
      for (std::uint32_t s = 0; s < partitioner.parts(); ++s) {
        // Every view must be byte-identical to the partition slice...
        const auto view = placed.sorted_of(node, s);
        const auto slice = partitioner.keys_of(s);
        ASSERT_EQ(view.size(), slice.size());
        EXPECT_TRUE(std::equal(view.begin(), view.end(), slice.begin()))
            << placement_name(placement) << " node " << node << " shard "
            << s;
        // ...and every kernel through it must give the global rank.
        std::vector<key_t> routed;
        for (const key_t q : queries)
          if (partitioner.route(q) == s) routed.push_back(q);
        std::vector<rank_t> out(routed.size());
        for (const SearchKernel kernel : all_search_kernels()) {
          std::fill(out.begin(), out.end(), rank_t{0xDEADBEEF});
          resolve_batch(kernel, view, placed.layout_of(node, s), routed,
                        out.data(), 4);
          for (std::size_t i = 0; i < routed.size(); ++i)
            ASSERT_EQ(partitioner.start_of(s) + out[i],
                      reference(keys, routed[i]))
                << placement_name(placement) << " node " << node << " shard "
                << s << " kernel " << search_kernel_name(kernel) << " q="
                << routed[i];
        }
      }
    }
  }
}

TEST(PlacementEquivalence, SkewedPartitionsAcrossNodes) {
  // Keys bunched into a narrow band, so partitioning is as skewed as
  // the range cut allows and most queries route to the band's shards.
  Rng rng(314);
  std::vector<key_t> keys;
  for (int i = 0; i < 3000; ++i)
    keys.push_back(static_cast<key_t>((1u << 24) + rng.below(1u << 16)));
  std::sort(keys.begin(), keys.end());
  std::vector<key_t> queries{0, 0xFFFFFFFFu};
  for (int i = 0; i < 2000; ++i)
    queries.push_back(static_cast<key_t>((1u << 24) + rng.below(1u << 17)));
  expect_all_placements_agree(keys, queries, /*parts=*/7, /*nodes=*/3);
}

TEST(PlacementEquivalence, SizeOnePartitions) {
  // parts == keys: every shard holds exactly one key — the smallest
  // non-empty partition a skewed cut can produce.
  const std::vector<key_t> keys{5, 10, 20, 40};
  std::vector<key_t> queries;
  for (key_t q = 0; q <= 45; ++q) queries.push_back(q);
  expect_all_placements_agree(keys, queries, /*parts=*/4, /*nodes=*/2);
}

TEST(PlacementEquivalence, AllDuplicateKeys) {
  // Every key equal: delimiters collapse, route() sends every matching
  // query to the last shard, and each shard's Eytzinger copy is an
  // all-equal run — the duplicate edge of the upper_bound contract.
  const std::vector<key_t> keys(23, 7);
  const std::vector<key_t> queries{0, 6, 7, 8, 0xFFFFFFFFu};
  expect_all_placements_agree(keys, queries, /*parts=*/5, /*nodes=*/3);
}

TEST(PlacementEquivalence, EmptyShardView) {
  // An empty slice through every placement view (the degenerate shard a
  // skewed partitioner could hand a worker): resolve_batch over the
  // empty span must answer rank 0 for everything, layouts included.
  const std::vector<key_t> keys{1, 2, 3};
  const RangePartitioner partitioner(keys, 3);
  for (const Placement placement : all_placements()) {
    PlacedShards placed(placement, true, partitioner, 2);
    placed.build_all();
    for (std::uint32_t node = 0; node < 2; ++node) {
      const auto view = placed.sorted_of(node, 1);
      const std::span<const key_t> empty = view.subspan(0, 0);
      const EytzingerLayout empty_layout(empty);
      const std::vector<key_t> queries{0, 2, 0xFFFFFFFFu};
      std::vector<rank_t> out(queries.size(), 99);
      for (const SearchKernel kernel : all_search_kernels()) {
        resolve_batch(kernel, empty, &empty_layout, queries, out.data(), 2);
        for (const rank_t r : out)
          EXPECT_EQ(r, 0u) << placement_name(placement) << " "
                           << search_kernel_name(kernel);
      }
    }
  }
}

// --- Exhaustive small-n sweep: every size x every query -------------------

TEST(KernelEquivalence, ExhaustiveSmallSizes) {
  Rng rng(9);
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<key_t> keys;
    key_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      next += 1 + static_cast<key_t>(rng.below(3));  // sorted, some gaps
      keys.push_back(next);
    }
    std::vector<key_t> queries;
    for (key_t q = 0; q <= next + 2; ++q) queries.push_back(q);
    expect_all_kernels_agree(keys, queries, 4);
  }
}

}  // namespace
}  // namespace dici::index
