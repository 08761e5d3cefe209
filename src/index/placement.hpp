// Shard placement — which memory node holds each shard's key copies.
//
// The paper prices a probe by where the data lives relative to the CPU
// that touches it. Inside one multi-socket box the distinction is local
// vs remote DRAM: a shard whose pages sit on the wrong node pays the
// remote penalty on exactly the out-of-L2 partitions the batch kernels
// were built to accelerate. PlacedShards owns the per-mode key copies
// and hands every (node, shard) pair the right view:
//
//  * kInterleave — the pre-placement baseline: one shared sorted copy
//    (the Index's), each shard's Eytzinger copy built by the shard's
//    owner. No mode-specific copies; on one socket this is all of them.
//  * kNodeLocal — each shard's sorted + Eytzinger copies are built BY
//    the worker that owns the shard, on its pinned thread: first touch
//    places the pages on the owner's node. Same-node probes for owned
//    work; a stolen batch pays the remote price (the steal trade-off).
//  * kReplicate — one read-only copy of the whole key array per node,
//    each slice first-touched by that node's own workers, plus
//    per-(node, shard) Eytzinger copies. Every probe — owned or stolen
//    — reads node-local memory, for nodes x keys bytes of DRAM.
//
// Build protocol: the engine constructs PlacedShards and calls
// allocate_replica for every node (allocation touches no data pages),
// then every pinned worker calls build_share(...) exactly once before
// the engine's build barrier opens. Shares are disjoint (a worker
// copies and lays out only its own shards' ranges) and read only the
// caller's keys, never another worker's copy in progress, so the build
// needs no locks; the barrier publishes every copy to every worker.
// All three modes return bit-identical ranks — placement moves bytes,
// never answers — which is what the scenario matrix's placement axis
// verifies.
//
// Placement is a BUILD-time property: when the v3 write path
// (core/store.hpp) folds its delta into a fresh Index generation, the
// whole protocol above re-runs on a fresh pinned fleet, so the new
// generation's pages are first-touch placed exactly like the first
// build's — rebuilds never degrade locality.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/index/eytzinger.hpp"
#include "src/index/partitioner.hpp"
#include "src/util/key_array.hpp"
#include "src/util/types.hpp"

namespace dici::index {

/// Where shard key copies live relative to the workers that probe them.
enum class Placement { kInterleave, kNodeLocal, kReplicate };

inline constexpr std::array<Placement, 3> kAllPlacements = {
    Placement::kInterleave, Placement::kNodeLocal, Placement::kReplicate};

inline std::span<const Placement> all_placements() { return kAllPlacements; }

constexpr bool placement_valid(Placement placement) {
  switch (placement) {
    case Placement::kInterleave:
    case Placement::kNodeLocal:
    case Placement::kReplicate:
      return true;
  }
  return false;
}

constexpr const char* placement_name(Placement placement) {
  switch (placement) {
    case Placement::kInterleave: return "interleave";
    case Placement::kNodeLocal: return "node-local";
    case Placement::kReplicate: return "replicate";
  }
  return "?";
}

/// Parse the placement_name spelling; returns false on anything else.
bool parse_placement(const std::string& name, Placement* out);

/// The per-(node, shard) key views behind one placement mode. Immutable
/// once every share is built (the engine's build barrier); safe to read
/// from any thread afterwards.
class PlacedShards {
 public:
  /// `partitioner` must outlive this object (its spans are the shared
  /// copy kInterleave serves and the source every copy is made from).
  /// `build_eytzinger` mirrors kernel_layout(config.kernel): the BFS
  /// copies are only built when a kernel will probe them.
  PlacedShards(Placement placement, bool build_eytzinger,
               const RangePartitioner& partitioner, std::uint32_t nodes);

  /// kReplicate only (no-op otherwise): reserve node `node`'s replica
  /// storage WITHOUT touching its data pages, so the copying workers'
  /// first touch decides where they land — which is why it may run on
  /// any thread (the engine calls it for every node before spawning the
  /// fleet). Call once per node, before any build_share on the node.
  void allocate_replica(std::uint32_t node);

  /// Build the calling worker's share of the copies — on the worker's
  /// pinned thread, so first touch places the pages. Called exactly
  /// once per worker, before any sorted_of/layout_of read (the engine's
  /// build barrier enforces the ordering). Every copy is made from
  /// `source`: the whole key array the partitioner's ranges index,
  /// equal to the partitioner's keys (which may still be being filled
  /// from it by other workers).
  ///
  /// `worker` (of `total_workers`) owns shards s with
  /// s % total_workers == worker (kInterleave's and kNodeLocal's share);
  /// `worker_on_node` (of `workers_on_node`) is its rank among the
  /// workers sharing `node`, which kReplicate uses to split the node
  /// replica's shards.
  void build_share(std::span<const key_t> source, std::uint32_t node,
                   std::uint32_t worker,
                   std::uint32_t total_workers, std::uint32_t worker_on_node,
                   std::uint32_t workers_on_node);

  /// Single-threaded build of every share (tests, and any path without
  /// a worker fleet).
  void build_all();

  /// The sorted keys worker threads on `node` should probe for `shard`.
  std::span<const key_t> sorted_of(std::uint32_t node,
                                   std::uint32_t shard) const;

  /// The Eytzinger copy for (node, shard); nullptr when the mode/kernel
  /// combination never probes one.
  const EytzingerLayout* layout_of(std::uint32_t node,
                                   std::uint32_t shard) const;

  Placement placement() const { return placement_; }
  std::uint32_t nodes() const { return nodes_; }

  /// Bytes of sorted-key copies this placement added on top of the
  /// shared array (the replicate mode's rent; Eytzinger copies are
  /// charged to the kernel choice, not the placement).
  std::uint64_t placed_key_bytes() const;

 private:
  Placement placement_;
  bool build_eytzinger_;
  const RangePartitioner& partitioner_;
  std::uint32_t nodes_;
  std::uint32_t shards_;

  /// kNodeLocal: per-shard sorted copies (64-byte aligned, first-touched
  /// by the owner). Sized up front; slots written only by their owner.
  std::vector<KeyArray> local_keys_;
  /// kReplicate: one full sorted copy per node, slices first-touched by
  /// that node's workers.
  std::vector<KeyArray> replicas_;
  /// kInterleave/kNodeLocal: one layout per shard. kReplicate: one per
  /// (node, shard), indexed node * shards_ + shard. Empty when
  /// !build_eytzinger_.
  std::vector<EytzingerLayout> layouts_;
};

}  // namespace dici::index
