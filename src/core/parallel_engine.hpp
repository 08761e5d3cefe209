// ParallelNativeEngine — the multithreaded native backend.
//
// Method C-3's architecture mapped onto one multicore host: the sorted
// key space is sharded with index::RangePartitioner, each worker thread
// (pinned to a core of its NUMA node — arch::Topology, real or
// simulated via numa_nodes) owns the shards congruent to its id, and
// query batches fan out over per-(client, worker) lock-free SPSC rings
// (net::SpscRingHub — one ring pair per master/slave stream, like NIC
// queue pairs; the condvar appears only when a worker parks empty).
// Shard key copies are placed per ParallelConfig::placement
// (index::PlacedShards): first-touched on the owner's node, or fully
// replicated per node so every probe is local. Idle workers steal whole
// batches — same-node victims first, cross-node only from a victim two
// or more batches behind — so skewed streams don't serialize on the
// hot shard's worker.
// Slaves resolve whole batches through index::resolve_batch — the
// scalar branchless kernel, the Eytzinger-layout kernel, or the
// interleaved batch kernel that keeps W cache misses in flight per
// round — and scatter-merge results by query id, so the output array is
// in query order without a sort; each id is written exactly once by
// exactly one worker. build() splits the key copy itself across the
// pinned fleet: each worker copies its shards' slice of the caller's
// keys into the shared sorted copy, checks the slice's order, and (for
// an eytzinger kernel, the default) lays out the shard's BFS copy
// while the slice is still in cache.
//
// build() is where this backend earns its keep: the partitioner and the
// pinned worker fleet live in the immutable shared Index, built once
// and parked on their queues (the paper's steady-state master/slave
// pipeline). Every connected Client plays a master: submit() routes the
// batch into per-shard messages on the calling thread and enqueues them
// tagged with a per-submission completion record, so the one worker
// fleet interleaves work from many clients and many in-flight batches.
// End-of-batch is an atomic countdown of the submission's outstanding
// work items — no barrier across clients, each ticket completes the
// moment its own last item is resolved. This is the paper's Sec. 3.2
// multi-master remark made literal: N clients = N masters sharing one
// slave fleet.
//
// bench_parallel_scaling measures this engine's 1->N-thread speedup
// curve the same way the paper measures its cluster scaling;
// bench_multiclient measures the clients x in-flight-depth surface the
// v2 API opens up.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/engine.hpp"
#include "src/util/bytes.hpp"
#include "src/util/types.hpp"

namespace dici::core {

// SearchKernel (and its name/parse helpers) lives in
// index/fast_search.hpp and is re-exported by core/config.hpp: the
// kernels belong to the index layer, the choice is a config knob.

struct ParallelConfig {
  /// Worker thread count. The submitting client plays the dispatcher
  /// and is reported as node 0 (the master), so RunReport::num_nodes is
  /// num_threads + 1 — master-inclusive like every other backend.
  std::uint32_t num_threads = 4;
  /// Shard count; 0 means one shard per thread. Shard s is owned by
  /// worker s % num_threads, so more shards than threads trades dispatch
  /// fan-out for finer-grained load balance under skew. Clamped to the
  /// index size for degenerate tiny indexes.
  std::uint32_t num_shards = 0;
  /// Query bytes a client ingests per flush round (the mirror of
  /// ExperimentConfig::batch_bytes and Figure 3's x-axis).
  std::uint64_t batch_bytes = 64 * KiB;
  /// Pin worker w to a core of its NUMA node (best-effort; targets come
  /// from the allowed cpuset, never the raw online count).
  bool pin_threads = true;
  SearchKernel kernel = kDefaultSearchKernel;
  /// Per-message framing charged to RunReport::wire_bytes so the field
  /// is comparable with the simulator's (request hop only: results are
  /// scattered directly in shared memory, so there is no reply hop).
  std::uint64_t message_header_bytes = 64;
  /// Where shard key copies live relative to the NUMA nodes of the
  /// workers probing them (index/placement.hpp). kInterleave is the
  /// pre-placement baseline; kNodeLocal first-touches each shard on its
  /// owner's node; kReplicate keeps a full per-node copy so even stolen
  /// batches probe local memory.
  Placement placement = Placement::kInterleave;
  /// NUMA node map: 0 discovers the host topology, N > 0 forces a
  /// simulated N-node split of the allowed CPUs (how single-node
  /// machines and CI exercise every placement path for real).
  std::uint32_t numa_nodes = 0;
  /// Bounded work stealing: a worker whose own rings are empty takes
  /// whole dispatch batches from same-node victims first, cross-node
  /// only from victims with at least two batches pending — so skewed
  /// streams stop serializing on the hot shard's worker, but an
  /// almost-balanced fleet doesn't churn batches across sockets.
  bool work_stealing = true;
  /// Record measured wall-clock response times into
  /// RunReport::latency_ns: the submitting client stamps steady_clock
  /// at submit, the worker that resolves each dispatched message stamps
  /// its completion, and every query in the message is charged the
  /// difference (plus any pre-submit batcher wait the caller declared
  /// via submit()'s queued_ns). Per-worker Summary slots in the
  /// submission's countdown record keep the hot path contention-free;
  /// memory stays bounded however many queries stream (log-bucketed
  /// histogram past Summary::kExactCap).
  bool track_latency = false;
};

class ParallelNativeEngine : public Engine {
 public:
  explicit ParallelNativeEngine(const ParallelConfig& config);
  /// Derive from the shared ExperimentConfig: threads and shards mirror
  /// the slave count, batch_bytes carries over. Method must be C-3.
  explicit ParallelNativeEngine(const ExperimentConfig& config);

  std::shared_ptr<const Index> build(
      std::span<const key_t> index_keys) const override;
  const char* name() const override {
    return backend_name(Backend::kParallelNative);
  }

  const ParallelConfig& config() const { return config_; }

 private:
  ParallelConfig config_;
};

/// The ExperimentConfig -> ParallelConfig mapping used by make_engine.
ParallelConfig parallel_config_from(const ExperimentConfig& config);

}  // namespace dici::core
