#include "src/index/placement.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace dici::index {

bool parse_placement(const std::string& name, Placement* out) {
  for (const Placement placement : kAllPlacements) {
    if (name == placement_name(placement)) {
      *out = placement;
      return true;
    }
  }
  return false;
}

PlacedShards::PlacedShards(Placement placement, bool build_eytzinger,
                           const RangePartitioner& partitioner,
                           std::uint32_t nodes)
    : placement_(placement),
      build_eytzinger_(build_eytzinger),
      partitioner_(partitioner),
      nodes_(nodes),
      shards_(partitioner.parts()) {
  DICI_CHECK_MSG(placement_valid(placement), "not a Placement value");
  DICI_CHECK(nodes_ >= 1);
  // Slot vectors are sized here (only the slot headers land on the
  // constructing thread's node); the key pages themselves are placed by
  // whichever worker first writes them in build_share.
  switch (placement_) {
    case Placement::kInterleave:
      if (build_eytzinger_) layouts_.resize(shards_);
      break;
    case Placement::kNodeLocal:
      local_keys_.resize(shards_);
      if (build_eytzinger_) layouts_.resize(shards_);
      break;
    case Placement::kReplicate:
      replicas_.resize(nodes_);
      if (build_eytzinger_)
        layouts_.resize(static_cast<std::size_t>(nodes_) * shards_);
      break;
  }
}

void PlacedShards::allocate_replica(std::uint32_t node) {
  if (placement_ != Placement::kReplicate) return;
  replicas_[node] = allocate_keys(partitioner_.end_of(shards_ - 1));
}

void PlacedShards::build_share(std::span<const key_t> source,
                               std::uint32_t node, std::uint32_t worker,
                               std::uint32_t total_workers,
                               std::uint32_t worker_on_node,
                               std::uint32_t workers_on_node) {
  DICI_CHECK(total_workers >= 1 && workers_on_node >= 1);
  DICI_CHECK(source.size() == partitioner_.end_of(shards_ - 1));
  const auto slice = [&](std::uint32_t s) {
    return source.subspan(partitioner_.start_of(s), partitioner_.size_of(s));
  };
  switch (placement_) {
    case Placement::kInterleave:
      // One shared copy (the Index's); each owner lays out its shards.
      if (build_eytzinger_)
        for (std::uint32_t s = worker; s < shards_; s += total_workers)
          layouts_[s] = EytzingerLayout(slice(s));
      return;
    case Placement::kNodeLocal:
      for (std::uint32_t s = worker; s < shards_; s += total_workers) {
        const std::span<const key_t> part = slice(s);
        local_keys_[s] = allocate_keys(part.size());
        std::copy(part.begin(), part.end(), local_keys_[s].get());
        if (build_eytzinger_)
          layouts_[s] = EytzingerLayout(
              std::span<const key_t>(local_keys_[s].get(), part.size()));
      }
      return;
    case Placement::kReplicate: {
      DICI_CHECK_MSG(replicas_[node] != nullptr,
                     "allocate_replica(node) must run before build_share");
      // Each worker copies AND lays out the shards of its share, so no
      // range is written twice and a layout never reads another
      // worker's in-progress copy.
      key_t* replica = replicas_[node].get();
      for (std::uint32_t s = worker_on_node; s < shards_;
           s += workers_on_node) {
        const std::span<const key_t> part = slice(s);
        key_t* copy = replica + partitioner_.start_of(s);
        std::copy(part.begin(), part.end(), copy);
        if (build_eytzinger_)
          layouts_[static_cast<std::size_t>(node) * shards_ + s] =
              EytzingerLayout(std::span<const key_t>(copy, part.size()));
      }
      return;
    }
  }
}

void PlacedShards::build_all() {
  const std::span<const key_t> source = partitioner_.keys();
  if (placement_ == Placement::kReplicate) {
    for (std::uint32_t node = 0; node < nodes_; ++node) {
      allocate_replica(node);
      build_share(source, node, /*worker=*/0, /*total_workers=*/1,
                  /*worker_on_node=*/0, /*workers_on_node=*/1);
    }
    return;
  }
  build_share(source, /*node=*/0, /*worker=*/0, /*total_workers=*/1,
              /*worker_on_node=*/0, /*workers_on_node=*/1);
}

std::span<const key_t> PlacedShards::sorted_of(std::uint32_t node,
                                               std::uint32_t shard) const {
  switch (placement_) {
    case Placement::kInterleave:
      return partitioner_.keys_of(shard);
    case Placement::kNodeLocal:
      return {local_keys_[shard].get(), partitioner_.size_of(shard)};
    case Placement::kReplicate:
      return {replicas_[node].get() + partitioner_.start_of(shard),
              partitioner_.size_of(shard)};
  }
  return {};
}

const EytzingerLayout* PlacedShards::layout_of(std::uint32_t node,
                                               std::uint32_t shard) const {
  if (!build_eytzinger_) return nullptr;
  const std::size_t i =
      placement_ == Placement::kReplicate
          ? static_cast<std::size_t>(node) * shards_ + shard
          : shard;
  return &layouts_[i];
}

std::uint64_t PlacedShards::placed_key_bytes() const {
  const std::uint64_t n = partitioner_.end_of(shards_ - 1);
  switch (placement_) {
    case Placement::kInterleave:
      return 0;
    case Placement::kNodeLocal:
      return n * sizeof(key_t);
    case Placement::kReplicate: {
      // Count replicas actually reserved — the engine skips nodes that
      // own no worker, whose replica would never be probed.
      std::uint64_t allocated = 0;
      for (const KeyArray& replica : replicas_)
        allocated += replica != nullptr;
      return allocated * n * sizeof(key_t);
    }
  }
  return 0;
}

}  // namespace dici::index
