// Experiment configuration shared by the simulated and native engines.
#pragma once

#include <cstdint>

#include "src/arch/machine.hpp"
#include "src/index/fast_search.hpp"
#include "src/index/geometry.hpp"
#include "src/index/placement.hpp"
#include "src/net/transport.hpp"
#include "src/util/bytes.hpp"

namespace dici::core {

// The search-kernel vocabulary lives with the kernels (index layer);
// re-exported here because ExperimentConfig carries the choice and every
// backend seam speaks core::SearchKernel.
using index::KeyLayout;
using index::SearchKernel;
using index::kDefaultSearchKernel;
using index::all_search_kernels;
using index::kernel_layout;
using index::key_layout_name;
using index::parse_search_kernel;
using index::search_kernel_from_flag;
using index::search_kernel_name;
using index::search_kernel_valid;

// Likewise the shard-placement vocabulary (index layer): where each
// shard's key copies live relative to the NUMA node of the workers that
// probe them.
using index::Placement;
using index::all_placements;
using index::parse_placement;
using index::placement_name;
using index::placement_valid;

/// The five strategies of Sections 1/3.
enum class Method {
  kA,   ///< replicated n-ary tree, one-by-one lookups
  kB,   ///< replicated n-ary tree, Zhou-Ross buffered batches (L2)
  kC1,  ///< distributed in-cache: CSB+ tree per slave
  kC2,  ///< distributed in-cache: buffered tree per slave (L1)
  kC3,  ///< distributed in-cache: sorted array per slave
};

const char* method_name(Method method);

/// When does the master flush a slave's staging buffer? (Sec. 4.1 leaves
/// this implicit; both readings are implemented.)
enum class FlushPolicy {
  /// The master ingests batch_bytes of the query stream, then sends every
  /// non-empty staging buffer (message size ~ batch/slaves). Keeps the
  /// pipeline full at any batch size; the default and the semantics that
  /// reproduces Figure 3.
  kMasterRound,
  /// A slave's buffer is sent only once it holds batch_bytes itself
  /// (message size = batch). Fewer, larger messages — but at large
  /// batches slaves starve until the very end of the stream (quantified
  /// in bench_ablation_flush_policy).
  kPerSlaveThreshold,
};

const char* flush_policy_name(FlushPolicy policy);

/// True for the partitioned (master/slave) methods.
constexpr bool is_distributed(Method m) {
  return m == Method::kC1 || m == Method::kC2 || m == Method::kC3;
}

/// Bounds on the cluster retry knobs (ExperimentConfig and
/// ClusterConfig alike; check_retry_knobs in engine.hpp enforces them).
/// Beyond kMaxRetries attempts the backoff cap makes extra retries
/// indistinguishable from polling; below kMinRetryBackoffUs the retry
/// sweeper outpaces any real transport; above kMaxRetryBackoffUs a retry
/// outlives the heartbeat verdict.
inline constexpr std::uint32_t kMaxRetries = 1000;
inline constexpr std::uint32_t kMinRetryBackoffUs = 100;
inline constexpr std::uint32_t kMaxRetryBackoffUs = 10'000'000;

struct ExperimentConfig {
  Method method = Method::kC3;
  arch::MachineSpec machine;
  /// Cluster size. For Methods A/B this is the replication degree used
  /// for normalization; for Method C it is num_masters masters +
  /// (num_nodes - num_masters) slaves (the paper's 11-node setup is one
  /// master + ten slaves, Sec. 4.1).
  std::uint32_t num_nodes = 11;
  /// Method C master count. The paper's Sec. 3.2 remark: "if there is a
  /// heavy load of incoming queries, a single master node could become
  /// overloaded. This is easily remedied by setting up multiple master
  /// nodes, with replicates of the top level data structure." Each
  /// master routes an equal share of the query stream.
  std::uint32_t num_masters = 1;
  /// Batch of query bytes the master ingests per dispatch round (x-axis
  /// of Figure 3). Method B uses the same value as its buffered-pass
  /// batch; Method A ignores it.
  std::uint64_t batch_bytes = 128 * KiB;
  /// Divide Methods A/B's single-node time by num_nodes, crediting them
  /// a free, perfectly balanced dispatcher (the paper's protocol).
  bool normalize_replicated = true;
  /// Whether streamed buffers occupy simulated cache lines (Sec. 4.1
  /// contention). Off isolates pure bandwidth behaviour.
  bool pollute_streams = true;
  /// Whether incoming messages (DMA) occupy the receiving slave's cache.
  bool dma_pollution = true;
  /// Fraction of the buffered methods' target cache reserved for buffers.
  double buffer_fraction = 0.5;
  /// Wire framing per message (MPI envelope + GM header).
  std::uint64_t message_header_bytes = 64;
  /// Master flush semantics for Method C (see FlushPolicy).
  FlushPolicy flush_policy = FlushPolicy::kMasterRound;
  /// Exact upper_bound kernel the NATIVE backends' C-3 slaves probe
  /// with (see index/fast_search.hpp for the menu). Never changes a
  /// result, only native wall time; the simulator's cost model already
  /// abstracts comparator behaviour, so its reports ignore it.
  SearchKernel kernel = kDefaultSearchKernel;
  /// Where ParallelNativeEngine lays each shard's key copies relative
  /// to the NUMA node of the workers probing them (index/placement.hpp
  /// for the menu; machine.numa_nodes picks real vs simulated
  /// topology). Like `kernel`, it never changes a result — only native
  /// wall time — and the other backends ignore it.
  Placement placement = Placement::kInterleave;
  /// Record per-query response times (arrival at the front end to result
  /// delivery) into RunReport::latency_ns. Costs memory per query.
  bool track_latency = false;

  // --- v3 write path (core/store.hpp) -------------------------------------
  // Knobs for the mutable-index Store built over any backend: writes
  // land in a sorted delta buffer (index/delta.hpp) merged into probe
  // results; a background rebuild folds the delta into a fresh Index
  // generation. Backends without a Store in front ignore all three.

  /// Hard bound on pending delta entries. A Writer whose write would
  /// grow the delta past this blocks until the background rebuild folds
  /// it down — backpressure on writers, never on readers. Must be >= 1.
  std::size_t max_delta_keys = 4096;
  /// Fraction of max_delta_keys at which the background rebuild wakes
  /// and starts folding (in (0, 1]): below 1 the fold runs while
  /// writers still have headroom, so they rarely hit the hard bound.
  double rebuild_trigger_fraction = 0.5;
  /// Threads the background fold (index::fold_delta) may split the
  /// base ∪ delta merge across. In [1, 256]; the fold auto-clamps on
  /// small bases where spawn cost would dominate.
  std::uint32_t writer_threads = 1;

  // --- Cluster backend (src/cluster/cluster_engine.hpp) -------------------
  // Knobs for Backend::kCluster, where the slaves are message-passing
  // nodes behind a net::Transport. The other backends ignore all three.

  /// How frames physically move between coordinator and nodes: a
  /// UNIX-domain socketpair to in-process node threads, a socketpair
  /// inherited across fork/exec by a spawned dici_node process (kFork),
  /// or a loopback TCP connection to a spawned process (kTcp). Same
  /// wire-v3 bytes on all three, so crossing a process boundary changes
  /// nothing above the transport.
  net::TransportKind transport = net::TransportKind::kSocket;
  /// Node -> coordinator heartbeat cadence. Must be >= 1 (validated).
  std::uint32_t heartbeat_interval_ms = 25;
  /// Silence past this marks a node DEAD and fails its in-flight
  /// batches with a NodeFailureError naming the node. Must be at least
  /// 2 * heartbeat_interval_ms (validated), so one delayed beat never
  /// kills a healthy node.
  std::uint32_t heartbeat_timeout_ms = 250;
  /// Re-sends of an unanswered cluster chunk to the same node before
  /// the coordinator escalates to failover. 0 disables retries. At most
  /// kMaxRetries (validated).
  std::uint32_t max_retries = 3;
  /// Base retry backoff in microseconds; attempt k waits
  /// retry_backoff_us * 2^(k-1), exponent capped. In
  /// [kMinRetryBackoffUs, kMaxRetryBackoffUs] (validated).
  std::uint32_t retry_backoff_us = 20'000;
  /// Re-route a dead node's unanswered chunks to a surviving replica
  /// holder (always possible under Placement::kReplicate). Off = fail
  /// fast: any death with chunks in flight throws NodeFailureError.
  bool failover = true;

  /// Node layout used by the replicated tree (Methods A/B): a classic
  /// B+-tree whose leaves hold (key, record-pointer) pairs — this is what
  /// makes the paper's Table 1 index 3.2 MB for 327 K keys.
  index::TreeConfig replicated_tree() const {
    return {machine.l2.line_bytes, index::TreeLayout::kExplicitPointers,
            /*leaf_entry_bytes=*/8};
  }
  /// Node layout used by Method C-1/C-2 slave trees. C-1 uses the CSB
  /// layout (Sec. 3.2) with packed key-only leaves (Rao & Ross bulk
  /// load); C-2 buffers over the same compact tree.
  index::TreeConfig slave_tree(Method m) const {
    return {machine.l1.line_bytes,
            m == Method::kC1 ? index::TreeLayout::kCsbFirstChild
                             : index::TreeLayout::kExplicitPointers,
            /*leaf_entry_bytes=*/4};
  }

  std::uint32_t num_slaves() const { return num_nodes - num_masters; }
};

}  // namespace dici::core
