// The unified backend seam, v2: every cluster implementation — the
// discrete-event simulator (SimCluster), the sharded parallel engine on
// real threads (ParallelNativeEngine), and the message-passing cluster
// (cluster::ClusterEngine) — answers one three-layer contract:
//
//   Engine::build(index_keys) -> std::shared_ptr<const Index>
//   Index::connect()          -> std::unique_ptr<Client>
//   Client::submit(queries, out_ranks) -> Ticket
//   Client::wait(ticket)      -> RunReport        (plus drain())
//
// build() constructs one immutable, shareable index: the key array is
// copied exactly once, into the Index, and every Client serves its query
// stream against that same copy (no per-session duplication). connect()
// may be called many times; Clients are independent query streams and
// are safe to drive from different threads concurrently — this is the
// paper's Sec. 3.2 multi-master remark made literal, many front ends
// sharing one built slave fleet. submit() enqueues a batch and returns
// immediately with a Ticket, so a caller keeps several batches in
// flight; wait() blocks for one batch's RunReport, drain() for all of
// them. ParallelNativeEngine's persistent pinned worker fleet lives in
// its Index and interleaves work items from every connected client
// through the same queues.
//
// v3 adds the write path on top of this contract: core/store.hpp wraps
// a built Index in a Store whose read Clients speak exactly this
// submit/wait surface while a Writer mutates the key set through a
// sorted delta buffer (index/delta.hpp) and a background rebuild
// publishes fresh Index generations via RCU swap. The seam this file
// contributes is SubmitOptions::delta: any submit may carry a frozen
// delta snapshot, and every backend folds its rank corrections into the
// results at resolve time.
//
// The v1 Session surface (Engine::open / Session::run_batch) is GONE —
// removed on the schedule README's migration table promised, two PRs
// after its PR 7 deprecation — and so is PR 6's positional
// submit(queries, out_ranks, queued_ns) overload (deprecated in PR 7;
// pass SubmitOptions instead). Engine::run survives as the one-shot
// convenience (build + connect + submit + wait in one call).
// out_ranks always receives the global std::upper_bound
// rank of every query in query order — the invariant every backend is
// tested against; when a delta rides along, the rank is over
// (base \ erased) ∪ inserted instead.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/run_report.hpp"
#include "src/util/key_array.hpp"
#include "src/util/types.hpp"

namespace dici::index {
class DeltaSnapshot;
}  // namespace dici::index

namespace dici::core {

class Client;

/// An immutable built index plus whatever steady-state machinery the
/// backend keeps warm (ParallelNativeEngine parks its pinned worker
/// fleet here). The one owner of the key array: clients and sessions
/// reference it, they do not copy it. Always held by shared_ptr — the
/// index stays alive while any Client (or the caller) still references
/// it, so the Engine that built it may be destroyed freely.
///
/// Thread-safety: everything reachable from a const Index is safe to
/// use from many clients on many threads concurrently; the internal
/// work queues of threaded backends are internally synchronized.
class Index : public std::enable_shared_from_this<Index> {
 public:
  virtual ~Index() = default;

  /// Attach one more client stream to this index. Clients are
  /// independent: each has its own tickets and accounting, and distinct
  /// clients may submit/wait concurrently from different threads.
  std::unique_ptr<Client> connect() const;

  /// The built (sorted, unique) key array — the single shared copy.
  std::span<const key_t> keys() const { return {keys_.get(), size_}; }
  std::size_t size() const { return size_; }

  /// Stable identifier of the backend that built this index.
  virtual const char* backend() const = 0;

 protected:
  /// Copy `index_keys` into the index, aborting unless they are sorted.
  explicit Index(std::span<const key_t> index_keys);

  /// Reserve the key array for `size` keys without writing any of it:
  /// the derived constructor fills every slot through unfilled_keys(),
  /// checking their order (dici::copy_sorted), before it returns. The
  /// parallel backend splits that copy across its pinned workers.
  explicit Index(std::size_t size);

  std::span<key_t> unfilled_keys() { return {keys_.get(), size_}; }

 private:
  virtual std::unique_ptr<Client> do_connect(
      std::shared_ptr<const Index> self) const = 0;

  std::size_t size_;
  KeyArray keys_;
};

/// Handle for one in-flight submission. Cheap to copy; only meaningful
/// with the Client that issued it (wait()ing it on any other client
/// aborts). A default-constructed Ticket belongs to no client.
class Ticket {
 public:
  Ticket() = default;
  std::uint64_t id() const { return id_; }

 private:
  friend class Client;
  Ticket(const Client* owner, std::uint64_t id) : owner_(owner), id_(id) {}

  const Client* owner_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Per-submit knobs, passed by const reference so adding a field never
/// changes the submit() signature again (the lesson of the retired
/// positional queued_ns overload). Aggregate-initialize the fields you
/// need: `client->submit(queries, &ranks, {.queued_ns = waits})`.
struct SubmitOptions {
  /// When non-empty, one entry per query: the wall-clock wait (ns) the
  /// query had ALREADY accrued before this submit — an adaptive
  /// batcher's queue time. Backends that measure wall-clock latency
  /// (parallel-native, cluster) add it to each query's measured
  /// submit->resolve time so RunReport::latency_ns is the full
  /// arrival->resolve response time; the simulator ignores it (its
  /// arrival process lives in virtual time). Only read during the
  /// submit call itself — the span need not outlive it.
  std::span<const double> queued_ns = {};

  /// Pending writes to merge into this submission's results: every rank
  /// is corrected to upper_bound over (base \ erased) ∪ inserted at
  /// resolve time (see index/delta.hpp for the additive decomposition).
  /// Null means "the base index is the live set". Normally supplied by
  /// a Store's generation-aware clients, not by hand; the snapshot must
  /// be immutable and stays referenced until the ticket completes.
  std::shared_ptr<const index::DeltaSnapshot> delta = nullptr;
};

/// One query stream against a shared Index. submit() enqueues a batch
/// and returns a Ticket without blocking on the result; wait() blocks
/// until that batch completes and returns its RunReport; drain() waits
/// for everything outstanding. Per-client accounting (total(),
/// batches()) accumulates as tickets are waited.
///
/// Threading contract: one Client serves one stream — its methods are
/// NOT thread-safe against each other. Distinct clients of the same
/// Index are fully concurrent. Destroying a client with tickets still
/// in flight is safe: the destructor drains them first (so out_ranks
/// buffers are never written after the caller has moved on).
///
/// Buffer lifetimes: `queries` only needs to live for the submit() call
/// itself (the batch is staged into messages inside submit). A non-null
/// `out_ranks` is resized inside submit() and must then stay alive and
/// un-resized until that ticket is waited (or the client drains /
/// is destroyed) — the backend writes ranks into it asynchronously.
///
/// Each ticket is waited exactly once: wait() hands the batch's report
/// over and retires the ticket (its scalars live on in total()), so the
/// ledger stays O(in-flight) however long the stream runs — a client
/// serving millions of batches retains nothing per batch. Waiting a
/// ticket twice is a programming error and aborts with a diagnostic;
/// capture the RunReport from the first wait if you need it later.
class Client {
 public:
  /// Blocking handle for one submission's result. Backends return one
  /// from do_submit(); synchronous backends use ImmediateCompletion.
  /// Completions must be self-contained (safe to await even while the
  /// derived Client is being destroyed).
  class Completion {
   public:
    virtual ~Completion() = default;
    /// Block until the submission completes; called at most once.
    virtual RunReport await() = 0;
    /// Non-blocking: has the submission completed (await would return
    /// without blocking)? Synchronous backends are always ready; the
    /// open-loop serving layer polls this to stamp completions without
    /// stalling the arrival clock.
    virtual bool ready() const { return true; }
  };

  virtual ~Client();  // drains tickets still in flight

  /// Enqueue one batch of this client's query stream. Returns without
  /// waiting for the batch to complete (on backends with an async
  /// pipeline; synchronous backends resolve it inline).
  Ticket submit(std::span<const key_t> queries,
                std::vector<rank_t>* out_ranks = nullptr);

  /// Same, with per-submit knobs (batcher queue time, delta snapshot —
  /// see SubmitOptions).
  Ticket submit(std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
                const SubmitOptions& options);

  /// Non-blocking: would wait(ticket) return without blocking? Aborts
  /// on foreign or already-waited tickets exactly like wait().
  bool ready(const Ticket& ticket) const;

  /// Block until `ticket`'s batch completes; returns the report for
  /// that batch only, folds it into total(), and retires the ticket
  /// (waiting it again aborts — see the class comment).
  RunReport wait(const Ticket& ticket);

  /// Wait every outstanding ticket (in submission order); returns the
  /// accumulated total().
  const RunReport& drain();

  /// Accumulated report over every waited batch (RunReport::merge).
  const RunReport& total() const { return total_; }

  /// Number of completed (waited) batches.
  std::uint64_t batches() const { return batches_; }

  /// Tickets submitted but not yet waited.
  std::uint64_t in_flight() const { return in_flight_; }

  /// The shared index this client streams against. For a Store's
  /// generation-aware clients this is the CURRENT generation's base
  /// index and moves when a rebuild publishes.
  virtual const Index& index() const { return *index_; }

  /// Stable identifier of the backend serving this client.
  virtual const char* backend() const = 0;

 protected:
  explicit Client(std::shared_ptr<const Index> index);

  /// Swap the pinned index — for generation-swapping clients only. The
  /// previous index must stay reachable (e.g. via in-flight completions)
  /// until every ticket submitted against it has been waited.
  void rebind_index(std::shared_ptr<const Index> index);

 private:
  virtual std::unique_ptr<Completion> do_submit(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) = 0;

  struct Entry {
    std::unique_ptr<Completion> completion;  // null once waited (settled)
  };

  // Destroyed after ~Client's drain, so completions may rely on the
  // index machinery (worker fleet, queues) while being awaited.
  std::shared_ptr<const Index> index_;
  // Ticket id -> entries_[id - base_id_]. Settled entries are retired
  // from the front as the settled prefix grows, so the ledger stays
  // O(in-flight): out-of-order waits leave settled holes that retire
  // once everything before them has settled.
  std::deque<Entry> entries_;
  std::uint64_t base_id_ = 0;   // id of entries_.front()
  std::uint64_t next_id_ = 0;   // id the next submit() gets
  std::uint64_t in_flight_ = 0;
  RunReport total_;
  std::uint64_t batches_ = 0;
};

/// Completion for backends that resolve a submission synchronously
/// inside do_submit (sim): the report is ready before submit
/// returns, await just hands it over.
class ImmediateCompletion : public Client::Completion {
 public:
  explicit ImmediateCompletion(RunReport report)
      : report_(std::move(report)) {}
  RunReport await() override { return std::move(report_); }

 private:
  RunReport report_;
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Build the one immutable index over `index_keys` (sorted, unique,
  /// non-empty; every backend aborts naming "sorted" on keys out of
  /// order). The returned Index is shareable: connect() as many
  /// concurrent clients as you like; the Engine may be destroyed.
  virtual std::shared_ptr<const Index> build(
      std::span<const key_t> index_keys) const = 0;

  /// One-shot convenience: build an index, serve a single batch, tear
  /// it down. When `out_ranks` is non-null it receives the global
  /// upper-bound rank of every query, in query order.
  ///
  /// Setup cost (the index's key-array copy, and for
  /// ParallelNativeEngine the worker spawn) is paid inside build(),
  /// OUTSIDE the reported makespan: every backend's makespan means
  /// "serve this batch on a ready index", one-shot or streamed. Callers
  /// who want to charge setup wall-clock time a loop around run()
  /// themselves (bench_parallel_scaling's rebuild-per-call column does
  /// exactly that).
  ///
  /// The scalar RunReport fields (makespan, messages, ...) are filled by
  /// every backend; RunReport::nodes is backend-dependent detail (the
  /// simulator reports one entry per simulated node — or the single
  /// measured node for Methods A/B — ParallelNativeEngine and the
  /// cluster report dispatcher + workers), so generic callers must
  /// size-check `nodes` rather than assume num_nodes entries.
  RunReport run(std::span<const key_t> index_keys,
                std::span<const key_t> queries,
                std::vector<rank_t>* out_ranks = nullptr) const;

  /// Stable backend identifier ("sim", "parallel-native", "cluster").
  virtual const char* name() const = 0;
};

/// Shared ExperimentConfig validation. Every backend built from an
/// ExperimentConfig funnels through this, so a nonsense config fails the
/// same loud way (DICI_CHECK abort naming the offending field and its
/// value) regardless of backend.
void validate(const ExperimentConfig& config);

/// Aborts unless max_retries <= kMaxRetries and retry_backoff_us lies in
/// [kMinRetryBackoffUs, kMaxRetryBackoffUs]; `owner` names the config
/// struct in the diagnostic. validate() and the ClusterEngine
/// constructor both call it, so the two paths into a cluster share one
/// set of bounds.
void check_retry_knobs(const char* owner, std::uint32_t max_retries,
                       std::uint32_t retry_backoff_us);

/// Aborts when the config requests knobs only the simulator implements
/// (currently: non-default flush_policy) — silently running the default
/// on a native backend would corrupt cross-backend comparisons. The
/// diagnostic names the offending field and its value. track_latency is
/// NOT such a knob any more: every backend fills
/// RunReport::latency_ns — the simulator in virtual time, the native
/// backends in measured wall time.
void check_native_supported(const ExperimentConfig& config);

enum class Backend { kSim, kParallelNative, kCluster };

inline constexpr std::array<Backend, 3> kAllBackends = {
    Backend::kSim, Backend::kParallelNative, Backend::kCluster};

const char* backend_name(Backend backend);

/// The valid backend_name spellings, for diagnostics and CLI help.
inline constexpr const char* kBackendChoices = "sim|parallel-native|cluster";

/// Parse a backend_name spelling or abort with a field+value diagnostic
/// enumerating the valid set (the twin of search_kernel_from_flag).
Backend backend_from_flag(const std::string& text, const char* field);

/// Factory: the one switch benches and tests go through to pick a
/// backend for a given experiment. kParallelNative and kCluster require
/// Method C-3 (they shard sorted arrays); kCluster additionally runs
/// its slaves as message-passing nodes (src/cluster/) whose only link
/// to the coordinator is a serialized frame transport.
std::unique_ptr<Engine> make_engine(Backend backend,
                                    const ExperimentConfig& config);

}  // namespace dici::core
