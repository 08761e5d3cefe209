// PlacedShards invariants: the placement vocabulary round-trips, every
// mode's views are byte-identical to the partition slices (placement
// moves bytes, never answers), Eytzinger copies exist exactly when
// asked for, the replicate mode really is per-node storage, and the
// memory rent is accounted.
#include "src/index/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/index/partitioner.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici::index {
namespace {

std::vector<key_t> some_keys(std::size_t n, std::uint64_t seed = 99) {
  Rng rng(seed);
  return workload::make_sorted_unique_keys(n, rng);
}

TEST(PlacementNames, RoundTrip) {
  ASSERT_EQ(all_placements().size(), 3u);
  for (const Placement placement : all_placements()) {
    Placement parsed{};
    ASSERT_TRUE(parse_placement(placement_name(placement), &parsed));
    EXPECT_EQ(parsed, placement);
    EXPECT_TRUE(placement_valid(placement));
  }
  Placement parsed{};
  EXPECT_FALSE(parse_placement("numa-magic", &parsed));
  EXPECT_FALSE(placement_valid(static_cast<Placement>(42)));
}

TEST(PlacedShards, ViewsMatchPartitionSlicesInEveryMode) {
  const auto keys = some_keys(5000);
  const RangePartitioner partitioner(keys, 6);
  for (const Placement placement : all_placements()) {
    PlacedShards placed(placement, /*build_eytzinger=*/false, partitioner, 3);
    placed.build_all();
    EXPECT_EQ(placed.placement(), placement);
    EXPECT_EQ(placed.nodes(), 3u);
    for (std::uint32_t node = 0; node < 3; ++node)
      for (std::uint32_t s = 0; s < partitioner.parts(); ++s) {
        const auto view = placed.sorted_of(node, s);
        const auto slice = partitioner.keys_of(s);
        ASSERT_EQ(view.size(), slice.size());
        EXPECT_TRUE(std::equal(view.begin(), view.end(), slice.begin()))
            << placement_name(placement) << " node " << node << " shard "
            << s;
        // No Eytzinger requested: no layout handed out.
        EXPECT_EQ(placed.layout_of(node, s), nullptr);
      }
  }
}

TEST(PlacedShards, LayoutsBuiltExactlyWhenRequested) {
  const auto keys = some_keys(2000);
  const RangePartitioner partitioner(keys, 4);
  for (const Placement placement : all_placements()) {
    PlacedShards placed(placement, /*build_eytzinger=*/true, partitioner, 2);
    placed.build_all();
    for (std::uint32_t node = 0; node < 2; ++node)
      for (std::uint32_t s = 0; s < partitioner.parts(); ++s) {
        const EytzingerLayout* layout = placed.layout_of(node, s);
        ASSERT_NE(layout, nullptr);
        ASSERT_EQ(layout->size(), partitioner.size_of(s));
        // The layout's slots permute exactly this shard's view.
        const auto view = placed.sorted_of(node, s);
        for (std::size_t k = 1; k <= layout->size(); ++k) {
          const rank_t r = layout->rank_of_slot(k);
          ASSERT_LT(r, view.size());
          EXPECT_EQ(layout->slots()[k], view[r]);
        }
      }
  }
}

TEST(PlacedShards, ReplicateViewsAreDistinctStoragePerNode) {
  const auto keys = some_keys(1000);
  const RangePartitioner partitioner(keys, 4);
  PlacedShards placed(Placement::kReplicate, true, partitioner, 3);
  placed.build_all();
  // Different nodes hand out different memory (that is the point)...
  EXPECT_NE(placed.sorted_of(0, 0).data(), placed.sorted_of(1, 0).data());
  EXPECT_NE(placed.layout_of(0, 0), placed.layout_of(1, 0));
  // ...while within one node the shard views tile one contiguous copy.
  EXPECT_EQ(placed.sorted_of(0, 0).data() + partitioner.size_of(0),
            placed.sorted_of(0, 1).data());
}

TEST(PlacedShards, NonReplicateModesShareAcrossNodes) {
  const auto keys = some_keys(1000);
  const RangePartitioner partitioner(keys, 4);
  for (const Placement placement :
       {Placement::kInterleave, Placement::kNodeLocal}) {
    PlacedShards placed(placement, true, partitioner, 3);
    placed.build_all();
    // The node argument is structural only: one copy per shard.
    EXPECT_EQ(placed.sorted_of(0, 2).data(), placed.sorted_of(2, 2).data());
    EXPECT_EQ(placed.layout_of(0, 2), placed.layout_of(2, 2));
  }
  // Interleave serves the partitioner's storage; node-local copies it.
  PlacedShards inter(Placement::kInterleave, false, partitioner, 2);
  inter.build_all();
  EXPECT_EQ(inter.sorted_of(0, 1).data(), partitioner.keys_of(1).data());
  PlacedShards local(Placement::kNodeLocal, false, partitioner, 2);
  local.build_all();
  EXPECT_NE(local.sorted_of(0, 1).data(), partitioner.keys_of(1).data());
}

TEST(PlacedShards, PlacedBytesAccountTheRent) {
  const auto keys = some_keys(4096);
  const RangePartitioner partitioner(keys, 8);
  const std::uint64_t key_bytes = keys.size() * sizeof(key_t);
  PlacedShards inter(Placement::kInterleave, false, partitioner, 4);
  EXPECT_EQ(inter.placed_key_bytes(), 0u);
  PlacedShards local(Placement::kNodeLocal, false, partitioner, 4);
  EXPECT_EQ(local.placed_key_bytes(), key_bytes);
  // Replicate charges only replicas actually reserved: none before
  // allocation, one per allocated node after (the engine skips nodes
  // that own no worker).
  PlacedShards repl(Placement::kReplicate, false, partitioner, 4);
  EXPECT_EQ(repl.placed_key_bytes(), 0u);
  repl.allocate_replica(1);
  EXPECT_EQ(repl.placed_key_bytes(), key_bytes);
  PlacedShards full(Placement::kReplicate, false, partitioner, 4);
  full.build_all();
  EXPECT_EQ(full.placed_key_bytes(), 4 * key_bytes);
}

TEST(PlacedShards, SplitShareBuildMatchesBuildAll) {
  // The engine's cooperative build (several workers, disjoint shares)
  // must produce exactly the views the single-threaded build does.
  const auto keys = some_keys(3000);
  const RangePartitioner partitioner(keys, 5);
  for (const Placement placement : all_placements()) {
    PlacedShards reference(placement, true, partitioner, 2);
    reference.build_all();
    PlacedShards split(placement, true, partitioner, 2);
    // 4 workers, 2 per node, exactly as ParallelIndex would call it.
    for (std::uint32_t node = 0; node < 2; ++node)
      split.allocate_replica(node);
    for (std::uint32_t w = 0; w < 4; ++w)
      split.build_share(keys, /*node=*/w % 2, /*worker=*/w,
                        /*total_workers=*/4,
                        /*worker_on_node=*/w / 2, /*workers_on_node=*/2);
    for (std::uint32_t node = 0; node < 2; ++node)
      for (std::uint32_t s = 0; s < partitioner.parts(); ++s) {
        const auto a = reference.sorted_of(node, s);
        const auto b = split.sorted_of(node, s);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
            << placement_name(placement) << " node " << node << " shard "
            << s;
        ASSERT_NE(split.layout_of(node, s), nullptr);
        EXPECT_EQ(split.layout_of(node, s)->size(), a.size());
      }
  }
}

}  // namespace
}  // namespace dici::index
