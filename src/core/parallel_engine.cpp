#include "src/core/parallel_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>

#include "src/arch/topology.hpp"
#include "src/core/dispatch.hpp"
#include "src/index/batched_search.hpp"
#include "src/index/delta.hpp"
#include "src/index/eytzinger.hpp"
#include "src/index/partitioner.hpp"
#include "src/index/placement.hpp"
#include "src/net/spsc_ring.hpp"
#include "src/util/affinity.hpp"
#include "src/util/assert.hpp"
#include "src/util/key_array.hpp"
#include "src/util/timer.hpp"

namespace dici::core {

ParallelNativeEngine::ParallelNativeEngine(const ParallelConfig& config)
    : config_(config) {
  DICI_CHECK_FMT(config_.num_threads >= 1,
                 "ParallelConfig::num_threads = %u: need at least one worker",
                 config_.num_threads);
  DICI_CHECK_FMT(config_.batch_bytes >= sizeof(key_t),
                 "ParallelConfig::batch_bytes = %llu: a dispatch round must "
                 "hold at least one %zu-byte key",
                 static_cast<unsigned long long>(config_.batch_bytes),
                 sizeof(key_t));
  DICI_CHECK_FMT(search_kernel_valid(config_.kernel),
                 "ParallelConfig::kernel = %d: not a SearchKernel value",
                 static_cast<int>(config_.kernel));
  DICI_CHECK_FMT(placement_valid(config_.placement),
                 "ParallelConfig::placement = %d: not a Placement value",
                 static_cast<int>(config_.placement));
  DICI_CHECK_FMT(config_.numa_nodes <= 1024,
                 "ParallelConfig::numa_nodes = %u: 0 discovers the host, "
                 "1..1024 simulate",
                 config_.numa_nodes);
}

ParallelConfig parallel_config_from(const ExperimentConfig& config) {
  validate(config);
  check_native_supported(config);
  DICI_CHECK_FMT(config.method == Method::kC3,
                 "ExperimentConfig::method = %s: ParallelNativeEngine shards "
                 "sorted arrays (Method C-3)",
                 method_name(config.method));
  DICI_CHECK_FMT(config.num_masters == 1,
                 "ExperimentConfig::num_masters = %u: ParallelNativeEngine "
                 "maps extra masters to extra Clients, not config knobs — "
                 "connect() one Client per master",
                 config.num_masters);
  ParallelConfig parallel;
  parallel.num_threads = config.num_slaves();
  parallel.num_shards = config.num_slaves();
  parallel.batch_bytes = config.batch_bytes;
  parallel.message_header_bytes = config.message_header_bytes;
  parallel.kernel = config.kernel;
  parallel.placement = config.placement;
  parallel.numa_nodes = config.machine.numa_nodes;
  parallel.track_latency = config.track_latency;
  return parallel;
}

ParallelNativeEngine::ParallelNativeEngine(const ExperimentConfig& config)
    : ParallelNativeEngine(parallel_config_from(config)) {}

namespace {

/// How long an idle worker parks before re-checking its steal targets.
/// Producers only wake a worker's OWN hub, so a stealing-enabled worker
/// naps instead of sleeping. The nap starts short — a backlog on the
/// hot shard's worker is noticed within a dispatch round — and doubles
/// per fruitless sweep up to the cap, so a built-but-idle fleet decays
/// to a handful of wakeups per second per worker instead of spinning at
/// 2 kHz forever; any popped or stolen item resets it.
constexpr std::chrono::microseconds kStealRecheckNap{500};
constexpr std::chrono::microseconds kStealRecheckNapCap{32 * 1024};

/// Capacity (work items, rounded up to a power of two) of each
/// (client, worker) SPSC dispatch ring. A full ring back-pressures that
/// client's submit with a spin-yield; 256 slots of ~64 B is ample
/// submit-ahead slack per client.
constexpr std::size_t kRingSlots = 256;

/// Minimum victim backlog (pending batches) before a CROSS-NODE steal
/// is worth the remote-memory price; same-node steals ignore it.
constexpr std::size_t kCrossNodeStealBacklog = 2;

/// Worker fleets alive in this process (see ParallelIndex::build_share).
std::atomic<std::uint32_t> live_fleets{0};

/// Completion record for one submitted batch, shared between the
/// submitting client, every work item the batch fanned out into, and
/// the waiter. `outstanding` starts at 1 (the submitter's hold) and is
/// incremented per enqueued item; whoever drops it to zero — the last
/// worker, or the submitter itself for an empty batch — stamps the wall
/// clock and signals done. Per-worker stat slots are written only by
/// the worker that RESOLVED the item (owner or thief); the acq_rel
/// countdown plus the done-flag mutex publish every slot to the waiter.
struct Submission {
  explicit Submission(std::uint32_t num_workers, bool track_latency_)
      : track_latency(track_latency_),
        worker_queries(num_workers, 0),
        worker_busy_sec(num_workers, 0.0),
        worker_latency(track_latency_ ? num_workers : 0) {}

  rank_t* out = nullptr;
  std::vector<rank_t> sink;  ///< backs `out` when the caller passed none

  /// Wall-clock per-query latency collection for this submission. The
  /// submit stamp is `timer` below; each resolving worker stamps its
  /// message's completion and folds (completion - submit + queued_ns)
  /// into ITS slot of worker_latency — owner or thief, the slot is the
  /// resolver's, so no two threads ever share one Summary. queued_ns is
  /// copied before the first push and read-only afterwards.
  bool track_latency = false;
  std::vector<double> queued_ns;  ///< per query id; empty = no prior wait

  /// Frozen pending-writes snapshot for this submission (null = base
  /// index is the live set). Set before the first push, read-only
  /// afterwards; each resolving worker folds its rank corrections into
  /// the scatter, so the kernels stay base-only and hot.
  std::shared_ptr<const index::DeltaSnapshot> delta;

  std::vector<std::uint64_t> worker_queries;
  std::vector<double> worker_busy_sec;
  std::vector<Summary> worker_latency;
  /// Items resolved by a worker other than the shard's owner.
  std::atomic<std::uint64_t> stolen{0};

  // Filled by the submitter before it releases its hold.
  std::uint64_t num_queries = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  double dispatch_sec = 0.0;

  WallTimer timer;           ///< started at submit
  double wall_sec = 0.0;     ///< stamped by whoever completes last

  std::atomic<std::uint64_t> outstanding{1};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  void finish_one() {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wall_sec = timer.elapsed_sec();
      {
        std::lock_guard lock(mu);
        done = true;
      }
      done_flag.store(true, std::memory_order_release);
      cv.notify_all();
    }
  }

  void await_done() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  /// Lock-free poll for Completion::ready(): true only after wall_sec
  /// and every per-worker stat slot are published (release above pairs
  /// with the poller's acquire).
  std::atomic<bool> done_flag{false};
};

/// The steady-state machinery behind ParallelNativeEngine::build: the
/// one shared key copy (in the Index base), the range partitioner over
/// it, the placement-mode key copies (index::PlacedShards — per-shard
/// node-local copies or per-node replicas, first-touched by the pinned
/// workers that probe them), and the worker fleet itself, laid out over
/// the NUMA topology (arch::make_topology — the host map, or the
/// simulated split MachineSpec::numa_nodes forces). Worker w runs on
/// node w % nodes and owns the shards congruent to its id, so
/// consecutive shards alternate nodes the same way consecutive workers
/// do.
///
/// Each worker consumes one SpscRingHub whose channels are the
/// connected clients; a worker whose own rings run dry STEALS whole
/// work items — same-node victims first, cross-node only from victims
/// whose backlog reaches kCrossNodeStealBacklog — so a skewed stream
/// no longer serializes on the hot shard's owner. Immutable after the
/// build barrier except for the rings, so any number of clients may
/// submit concurrently.
class ParallelIndex : public Index {
 public:
  /// Allocates the key array and cuts the partitions on this thread;
  /// the workers copy the keys in (see build_share).
  ParallelIndex(const ParallelConfig& config,
                std::span<const key_t> index_keys)
      : Index(index_keys.size()),
        config_(config),
        topology_(arch::make_topology(config.numa_nodes)),
        partitioner_(keys(), index_keys,
                     index::clamp_parts(config.num_shards == 0
                                            ? config.num_threads
                                            : config.num_shards,
                                        keys().size())),
        placed_(config.placement,
                kernel_layout(config.kernel) == KeyLayout::kEytzinger,
                partitioner_, topology_.nodes()),
        hubs_(config.num_threads),
        built_(config.num_threads),
        pinned_(config.num_threads) {
    const std::uint32_t T = config_.num_threads;
    const std::uint32_t N = topology_.nodes();
    worker_node_.resize(T);
    worker_rank_on_node_.resize(T);
    std::vector<std::uint32_t> per_node(N, 0);
    for (std::uint32_t w = 0; w < T; ++w) {
      worker_node_[w] = w % N;
      worker_rank_on_node_[w] = per_node[w % N]++;
    }
    workers_on_node_ = std::move(per_node);
    // Replica storage is reserved up front (touches no data pages — the
    // workers' first-touch copies place them) so build_share needs no
    // cross-worker ordering. Nodes without a worker are skipped: no
    // thread will ever probe their replica (workers read only their own
    // node's), so allocating one would be pure rent.
    for (std::uint32_t node = 0; node < N; ++node)
      if (workers_on_node_[node] > 0) placed_.allocate_replica(node);
    sole_fleet_ = live_fleets.fetch_add(1, std::memory_order_relaxed) == 0;
    workers_.reserve(T);
    for (std::uint32_t w = 0; w < T; ++w)
      workers_.emplace_back([this, w, index_keys] {
        build_share(w, index_keys);
        worker_loop(w);
      });
    // The build barrier: build() returns a fully placed, ready index,
    // and every worker's copies are published to every other worker
    // (and to submitting clients) through this join point. It also
    // ends every read of `index_keys`, which dies with our caller.
    built_.wait();
  }

  ~ParallelIndex() override {
    // No client outlives the Index (each holds a shared_ptr to it), so
    // every channel is already closed and drained; close() just lets
    // the workers run their final empty scan and exit.
    for (auto& hub : hubs_) hub.close();
    for (auto& worker : workers_) worker.join();
    live_fleets.fetch_sub(1, std::memory_order_relaxed);
  }

  const char* backend() const override {
    return backend_name(Backend::kParallelNative);
  }

  const ParallelConfig& config() const { return config_; }
  const arch::Topology& topology() const { return topology_; }

  /// A dispatched message tagged with the shard it must be resolved on
  /// (a worker owns several shards when num_shards > num_threads) and
  /// the submission it belongs to.
  struct WorkItem {
    std::uint32_t shard = 0;
    DispatchBatch batch;
    std::shared_ptr<Submission> sub;
  };

  using WorkHub = net::SpscRingHub<WorkItem>;
  using WorkChannel = WorkHub::Channel;

  /// One dispatch channel per worker for a freshly connected client.
  /// Const because the hubs are internally synchronized.
  std::vector<std::shared_ptr<WorkChannel>> open_channels() const {
    std::vector<std::shared_ptr<WorkChannel>> channels;
    channels.reserve(config_.num_threads);
    for (auto& hub : hubs_) channels.push_back(hub.open(kRingSlots));
    return channels;
  }

  /// The submit path, run on the CLIENT's thread (each client plays a
  /// master): route the batch into per-shard messages with the shared
  /// kMasterRound loop and push them into the client's own rings.
  /// Returns the completion the base Client waits on.
  std::unique_ptr<Client::Completion> submit_batch(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options,
      std::span<const std::shared_ptr<WorkChannel>> channels) const;

 private:
  class ParallelCompletion;

  void pin_worker(std::uint32_t w) {
    const std::uint32_t node = worker_node_[w];
    const auto& cpus = topology_.cpus_of(node);
    // One specific core of the worker's node, spreading the node's
    // workers across its cores; fall back to node-scoped, then to the
    // plain allowed-mask pin — pinning stays best-effort everywhere.
    const int cpu = cpus[worker_rank_on_node_[w] % cpus.size()];
    if (pin_current_thread_to_os_cpu(cpu)) return;
    if (arch::pin_current_thread_to_node(topology_, node)) return;
    pin_current_thread(static_cast<int>(w));
  }

  void resolve(std::uint32_t w, std::uint32_t node, WorkItem& item) {
    WallTimer batch_timer;
    const auto part = placed_.sorted_of(node, item.shard);
    const index::EytzingerLayout* layout = placed_.layout_of(node, item.shard);
    const rank_t offset = partitioner_.start_of(item.shard);
    const DispatchBatch& batch = item.batch;
    Submission& sub = *item.sub;
    // Resolve the whole message in one kernel call (the interleaved
    // kernel overlaps the lanes' cache misses), then scatter by id.
    scratch_.resize(batch.keys.size());
    index::resolve_batch(config_.kernel, part, layout, batch.keys,
                         scratch_.data());
    if (sub.delta == nullptr) {
      for (std::size_t j = 0; j < batch.keys.size(); ++j)
        sub.out[batch.ids[j]] = offset + scratch_[j];
    } else {
      // Delta merge in the scatter: the kernel above resolved base
      // ranks; fold the live-set correction (global, so applied after
      // the shard offset — a shard-local rank could transiently
      // underflow) while the batch is still in cache. The snapshot is
      // immutable and tiny, so concurrent workers share it read-only.
      const index::DeltaSnapshot& delta = *sub.delta;
      for (std::size_t j = 0; j < batch.keys.size(); ++j)
        sub.out[batch.ids[j]] = static_cast<rank_t>(
            static_cast<std::int64_t>(offset + scratch_[j]) +
            delta.correction(batch.keys[j]));
    }
    sub.worker_queries[w] += batch.keys.size();
    sub.worker_busy_sec[w] += batch_timer.elapsed_sec();
    if (sub.track_latency) {
      // One completion stamp for the whole resolved message (its
      // queries' answers all exist now), read against the submit stamp.
      const double resolved_ns = sub.timer.elapsed_ns();
      if (sub.queued_ns.empty()) {
        sub.worker_latency[w].add_n(resolved_ns, batch.keys.size());
      } else {
        for (const std::uint32_t id : batch.ids)
          sub.worker_latency[w].add(resolved_ns + sub.queued_ns[id]);
      }
    }
    if (item.shard % config_.num_threads != w)
      sub.stolen.fetch_add(1, std::memory_order_relaxed);
    sub.finish_one();
    item = WorkItem{};  // drop the submission reference before parking
  }

  /// One pass over the other workers' hubs: same-node victims first
  /// (their shard copies are local under kNodeLocal), then cross-node
  /// victims whose backlog clears the imbalance threshold — a remote
  /// steal must be worth the remote-DRAM probes it will cause.
  bool steal_work(std::uint32_t w, std::uint32_t node, WorkItem& item) {
    const std::uint32_t T = config_.num_threads;
    for (std::uint32_t offset = 1; offset < T; ++offset) {
      const std::uint32_t v = (w + offset) % T;
      if (worker_node_[v] != node) continue;
      // pending() pre-filter: don't take (and contend on) an idle
      // victim's consumer lock for an empty scan — a stale-low read is
      // self-healed by the next sweep.
      if (hubs_[v].pending() == 0) continue;
      if (hubs_[v].try_steal(item)) return true;
    }
    for (std::uint32_t offset = 1; offset < T; ++offset) {
      const std::uint32_t v = (w + offset) % T;
      if (worker_node_[v] == node) continue;
      if (hubs_[v].pending() < kCrossNodeStealBacklog) continue;
      if (hubs_[v].try_steal(item)) return true;
    }
    return false;
  }

  /// Worker w's part of the build. For every shard it owns, the worker
  /// copies that slice of `source` into the Index's key array and checks
  /// its order, against the key before the slice too — so the shards
  /// together check the whole array. Then it builds its share of the
  /// placement copies while the slices are still in cache, and counts
  /// down the latch that publishes every share fleet-wide. It builds
  /// pinned to its own core when it is the process's only fleet, and to
  /// its node otherwise: either way first touch puts each page on the
  /// node of the worker that probes it.
  ///
  /// A second fleet is almost always a Store rebuild, whose workers pin
  /// to the cores the serving fleet runs on. On a 4-vCPU host, building
  /// there held each serving worker off its core for a scheduler slice
  /// and skew-rw's p99 rose 4x; node-wide, the scheduler keeps the copy
  /// where there is room. The sole fleet builds on its own cores because
  /// node-wide builders queued on one CPU for ~1 ms before the balancer
  /// spread them, which doubled uniform-l2's setup_s on the same host.
  void build_share(std::uint32_t w, std::span<const key_t> source) {
    const std::uint32_t node = worker_node_[w];
    if (config_.pin_threads) {
      if (sole_fleet_) pin_worker(w);
      else arch::pin_current_thread_to_node(topology_, node);
    }
    // Copy only once the whole fleet is placed. A sibling the scheduler
    // started on this CPU would otherwise wait behind our copy until the
    // load balancer moved it, which held the build up by about 1 ms.
    pinned_.arrive_and_wait();
    const std::span<key_t> shared = unfilled_keys();
    for (std::uint32_t s = w; s < partitioner_.parts();
         s += config_.num_threads) {
      const rank_t start = partitioner_.start_of(s);
      copy_sorted(source.subspan(start, partitioner_.size_of(s)),
                  shared.data() + start,
                  start > 0 ? &source[start - 1] : nullptr);
    }
    placed_.build_share(source, node, w, config_.num_threads,
                        worker_rank_on_node_[w], workers_on_node_[node]);
    if (config_.pin_threads && !sole_fleet_) pin_worker(w);
    built_.count_down();
  }

  void worker_loop(std::uint32_t w) {
    const std::uint32_t node = worker_node_[w];
    WorkItem item;
    std::chrono::microseconds nap = kStealRecheckNap;
    for (;;) {
      if (hubs_[w].try_pop(item)) {
        resolve(w, node, item);
        nap = kStealRecheckNap;
        continue;
      }
      if (config_.work_stealing && steal_work(w, node, item)) {
        resolve(w, node, item);
        nap = kStealRecheckNap;
        continue;
      }
      // Park on the own hub. With stealing on, nap-and-recheck instead
      // of sleeping: pushes to a VICTIM's hub don't wake this worker,
      // so the nap bounds how long a backlog can sit unstolen — backing
      // off while every sweep comes up empty.
      const auto result = hubs_[w].wait_pop(
          item, config_.work_stealing ? std::chrono::nanoseconds(nap)
                                      : WorkHub::kWaitForever);
      if (result == WorkHub::PopResult::kClosed) return;
      if (result == WorkHub::PopResult::kItem) {
        resolve(w, node, item);
        nap = kStealRecheckNap;
        continue;
      }
      // kTimeout: loop around to the steal pass, napping longer.
      nap = std::min(nap * 2, kStealRecheckNapCap);
    }
  }

  std::unique_ptr<Client> do_connect(
      std::shared_ptr<const Index> self) const override;

  ParallelConfig config_;
  arch::Topology topology_;
  index::RangePartitioner partitioner_;
  index::PlacedShards placed_;
  std::vector<std::uint32_t> worker_node_;          ///< worker -> node
  std::vector<std::uint32_t> worker_rank_on_node_;  ///< rank among node peers
  std::vector<std::uint32_t> workers_on_node_;      ///< node -> worker count
  bool sole_fleet_ = true;  ///< no other fleet was alive at the build
  // Mutable: opening channels and pushing work are logically const (the
  // hubs synchronize internally); everything else is truly immutable.
  mutable std::vector<WorkHub> hubs_;
  /// On a cache line of its own, away from the fields every started
  /// worker reads in its loop: sharing a line with them made build()
  /// ~0.5 ms (25 %) slower on a 4-vCPU host.
  alignas(64) std::latch built_;
  std::latch pinned_;  ///< the fleet is placed; build_share may copy
  std::vector<std::thread> workers_;
  /// Per-worker scratch for one message's local ranks before the
  /// scatter. thread_local so thieves and owners never share it.
  static thread_local std::vector<rank_t> scratch_;
};

thread_local std::vector<rank_t> ParallelIndex::scratch_;

/// Waits one submission and assembles its RunReport. Self-contained (no
/// back-pointer to client or index): safe to await during client
/// destruction. The worker fleet outlives the wait because the base
/// Client still holds the Index while draining.
class ParallelIndex::ParallelCompletion : public Client::Completion {
 public:
  ParallelCompletion(std::shared_ptr<Submission> sub,
                     const ParallelConfig& config)
      : sub_(std::move(sub)), num_threads_(config.num_threads),
        batch_bytes_(config.batch_bytes) {}

  bool ready() const override {
    return sub_->done_flag.load(std::memory_order_acquire);
  }

  RunReport await() override {
    Submission& sub = *sub_;
    sub.await_done();
    const std::uint32_t T = num_threads_;

    // The submitting client is node 0 (the master), workers are nodes
    // 1..T — the same master-inclusive accounting as the other
    // backends, so num_nodes is comparable across the Engine seam.
    RunReport report;
    report.method = Method::kC3;
    report.num_queries = sub.num_queries;
    report.num_nodes = T + 1;
    report.batch_bytes = batch_bytes_;
    report.raw_makespan = ns_to_ps(sub.wall_sec * 1e9);
    report.makespan = report.raw_makespan;
    report.messages = sub.messages;
    report.wire_bytes = sub.wire_bytes;
    report.stolen_messages = sub.stolen.load(std::memory_order_relaxed);
    report.nodes.resize(T + 1);
    report.nodes[0].queries = sub.num_queries;
    report.nodes[0].busy = ns_to_ps(sub.dispatch_sec * 1e9);
    report.nodes[0].finish = report.raw_makespan;
    report.nodes[0].idle = report.raw_makespan > report.nodes[0].busy
                               ? report.raw_makespan - report.nodes[0].busy
                               : 0;
    double idle_sum = 0.0;
    for (std::uint32_t w = 0; w < T; ++w) {
      NodeReport& node = report.nodes[w + 1];
      node.queries = sub.worker_queries[w];
      node.busy = ns_to_ps(sub.worker_busy_sec[w] * 1e9);
      node.finish = report.raw_makespan;
      node.idle = report.raw_makespan > node.busy
                      ? report.raw_makespan - node.busy
                      : 0;
      if (sub.wall_sec > 0.0)
        idle_sum += std::max(0.0, 1.0 - sub.worker_busy_sec[w] / sub.wall_sec);
    }
    report.slave_idle_fraction = idle_sum / T;
    // Per-worker latency slots fold into the one per-batch histogram;
    // Client::wait's RunReport::merge then folds batches into the
    // client's running total — bounded memory at every level.
    for (Summary& s : sub.worker_latency) report.latency_ns.merge(s);
    return report;
  }

 private:
  std::shared_ptr<Submission> sub_;
  std::uint32_t num_threads_;
  std::uint64_t batch_bytes_;
};

std::unique_ptr<Client::Completion> ParallelIndex::submit_batch(
    std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
    const SubmitOptions& options,
    std::span<const std::shared_ptr<WorkChannel>> channels) const {
  const std::uint32_t T = config_.num_threads;
  auto sub = std::make_shared<Submission>(T, config_.track_latency);
  if (out_ranks != nullptr) {
    out_ranks->assign(queries.size(), 0);
    sub->out = out_ranks->data();
  } else {
    sub->sink.assign(queries.size(), 0);
    sub->out = sub->sink.data();
  }
  sub->num_queries = queries.size();
  // Pinned by the submission (not the caller): workers read it until the
  // last item of this batch resolves, however long the ticket is in
  // flight and whatever generation the store publishes meanwhile.
  if (options.delta != nullptr && !options.delta->empty())
    sub->delta = options.delta;
  // Copied BEFORE the first push: workers index it by query id the
  // moment an item lands, and the caller's span dies with submit().
  if (config_.track_latency && !options.queued_ns.empty())
    sub->queued_ns.assign(options.queued_ns.begin(), options.queued_ns.end());

  // wire_bytes matches the simulator's request-hop accounting exactly:
  // key payload + per-message header. The ids are bookkeeping for the
  // shared-memory scatter (a real cluster's reply hop would carry the
  // ranks instead), so they are not charged as wire traffic. Each
  // item's hold is added BEFORE its push, so the countdown can never
  // hit zero while messages are still being enqueued.
  sub->timer.start();
  WallTimer dispatch_timer;
  sub->messages = dispatch_master_rounds(
      queries, config_.batch_bytes, partitioner_.parts(),
      [&](key_t q) { return partitioner_.route(q); },
      [&](std::uint32_t s, DispatchBatch&& batch) {
        sub->wire_bytes += config_.message_header_bytes +
                           batch.keys.size() * sizeof(key_t);
        sub->outstanding.fetch_add(1, std::memory_order_relaxed);
        channels[s % T]->push(WorkItem{s, std::move(batch), sub});
      });
  sub->dispatch_sec = dispatch_timer.elapsed_sec();
  // Release the submitter's hold; completes immediately on zero work.
  sub->finish_one();
  return std::make_unique<ParallelCompletion>(std::move(sub), config_);
}

/// One master stream into the shared fleet: the client owns one SPSC
/// channel per worker, so its pushes never contend with other clients.
/// All other state lives in the base Client and the ParallelIndex.
class ParallelClient : public Client {
 public:
  ParallelClient(std::shared_ptr<const Index> index,
                 const ParallelIndex* parallel)
      : Client(std::move(index)), parallel_(parallel),
        channels_(parallel->open_channels()) {}

  ~ParallelClient() override {
    // Drain BEFORE closing the channels: in-flight items live in the
    // rings until a worker pops them, and a closed channel is pruned
    // from the worker's scan once empty. The base dtor's drain would
    // run too late (after our members are gone). Note the hubs' own
    // guarantee: a pruned channel stays alive (shared_ptr) until every
    // scanning worker drops its snapshot, so destroying this client
    // while OTHER clients keep the fleet busy never frees a ring a
    // worker is mid-pop on.
    drain();
    for (auto& channel : channels_) channel->close();
  }

  const char* backend() const override {
    return backend_name(Backend::kParallelNative);
  }

 private:
  std::unique_ptr<Completion> do_submit(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) override {
    return parallel_->submit_batch(queries, out_ranks, options, channels_);
  }

  const ParallelIndex* parallel_;  // the index the base class keeps alive
  std::vector<std::shared_ptr<ParallelIndex::WorkChannel>> channels_;
};

std::unique_ptr<Client> ParallelIndex::do_connect(
    std::shared_ptr<const Index> self) const {
  return std::make_unique<ParallelClient>(std::move(self), this);
}

}  // namespace

std::shared_ptr<const Index> ParallelNativeEngine::build(
    std::span<const key_t> index_keys) const {
  return std::make_shared<const ParallelIndex>(config_, index_keys);
}

}  // namespace dici::core
