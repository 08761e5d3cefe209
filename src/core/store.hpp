// Engine API v3: the mutable-index store.
//
// A Store wraps any backend's immutable build/connect/submit machinery
// (core/engine.hpp) in a write path, turning the static lookup table
// into a live serving store:
//
//   store = Store::create(make_engine(backend, config), keys)   — or
//   store = make_store(backend, config, keys)
//   reader = store->connect()     // a plain core::Client — v2 surface
//   writer = store->writer()      // insert(keys) / erase(keys) / flush()
//
// Writes land in a per-store sorted delta buffer (index/delta.hpp) that
// probe paths merge into results: each read submission carries a frozen
// DeltaSnapshot via SubmitOptions::delta, and the backend folds the
// rank correction into the scatter while the batch is cache-hot. A
// background rebuild thread folds the delta into a fresh immutable
// Index generation — re-running the backend's full build, so
// ParallelNativeEngine re-places shards first-touch on a fresh pinned
// fleet — and publishes it by RCU/epoch swap of one
// shared_ptr<const Generation>, behind a mutex that guards only that
// pointer.
//
// Readers never wait on writers: a read submit copies the current
// generation's pointer, and the write side holds the pointer's mutex
// only for the swap itself, never across a fold or a build; in-flight
// tickets pin their generation (base Index + snapshot) by shared_ptr
// and finish against it even while a newer generation is published; the
// old generation's fleet is torn down only after its last pinned reader
// drops it. Writers serialize against each other and the rebuild on the
// store's write mutex, and block only when the delta hits
// StoreOptions::max_delta_keys (backpressure until the fold catches
// up).
//
// Visibility: a write becomes reader-visible when a generation carrying
// it is published — Writer::flush() is the explicit barrier ("all my
// writes so far are visible to subsequently submitted reads"), and a
// background rebuild may publish buffered writes earlier. Reads always
// see some published prefix-consistent live set, and every rank is the
// exact std::upper_bound over that generation's (base \ erased) ∪
// inserted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/core/engine.hpp"
#include "src/index/delta.hpp"

namespace dici::core {

/// Knobs of the write path; the ExperimentConfig fields of the same
/// names map onto this (store_options_from).
struct StoreOptions {
  /// Hard bound on pending delta entries; writers block past it until
  /// the background rebuild folds the delta down. >= 1.
  std::size_t max_delta_keys = 4096;
  /// Fraction of max_delta_keys at which the rebuild wakes (in (0, 1]).
  double rebuild_trigger_fraction = 0.5;
  /// Threads index::fold_delta may split the background merge across
  /// (1..256; auto-clamped on small bases).
  std::uint32_t writer_threads = 1;
};

/// Field+value validation, same DICI_CHECK discipline as
/// core::validate().
void validate(const StoreOptions& options);

/// The ExperimentConfig -> StoreOptions mapping used by make_store.
StoreOptions store_options_from(const ExperimentConfig& config);

/// One published epoch of the store: an immutable base Index plus the
/// frozen delta snapshot that was pending when it was published. A
/// generation is what an in-flight ticket resolves against — pinned by
/// shared_ptr, so rebuilds never invalidate it; the base's machinery
/// (e.g. the parallel backend's worker fleet) lives exactly as long as
/// the last pin.
class Generation {
 public:
  Generation(std::shared_ptr<const Index> base,
             std::shared_ptr<const index::DeltaSnapshot> delta,
             std::uint64_t epoch);

  const std::shared_ptr<const Index>& base() const { return base_; }
  /// Never null; empty() when the generation is exactly its base.
  const std::shared_ptr<const index::DeltaSnapshot>& delta() const {
    return delta_;
  }
  /// Monotonic publication counter (1 = the initial build).
  std::uint64_t epoch() const { return epoch_; }
  /// |(base \ erased) ∪ inserted| — the live key count readers answer
  /// against.
  std::size_t live_keys() const;

 private:
  std::shared_ptr<const Index> base_;
  std::shared_ptr<const index::DeltaSnapshot> delta_;
  std::uint64_t epoch_;
};

class Store;

/// One write stream into a Store. insert()/erase() buffer net effects
/// into the store's delta (blocking only on max_delta_keys
/// backpressure); flush() publishes them to readers. Several Writers
/// may exist concurrently — they serialize on the store's write mutex.
/// Destruction flushes. Not thread-safe within one Writer (one stream,
/// like Client).
class Writer {
 public:
  ~Writer();  // flush()es pending writes

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Make `keys` live. Returns how many actually changed state (keys
  /// already live are no-ops). May block on delta backpressure.
  std::size_t insert(std::span<const key_t> keys);

  /// Make `keys` dead. Returns how many actually changed state (keys
  /// not live are no-ops).
  std::size_t erase(std::span<const key_t> keys);

  /// Publish every buffered write: reads submitted after flush()
  /// returns see them. Returns the published epoch (unchanged when
  /// nothing was pending).
  std::uint64_t flush();

 private:
  friend class Store;
  explicit Writer(std::shared_ptr<Store> store) : store_(std::move(store)) {}

  std::shared_ptr<Store> store_;
};

/// The v3 handle: one mutable logical index served by one backend.
/// connect() hands out ordinary core::Clients (the whole v2 read
/// surface — tickets, pipelining, drain — unchanged); writer() hands
/// out the write stream. Thread-safe: any number of readers, writers
/// and the background rebuild may run concurrently.
class Store : public std::enable_shared_from_this<Store> {
 public:
  /// Build the initial generation from `initial_keys` (sorted, unique,
  /// non-empty) and start the background rebuild thread. The store owns
  /// the engine (rebuilds keep calling engine->build()).
  static std::shared_ptr<Store> create(std::unique_ptr<const Engine> engine,
                                       std::span<const key_t> initial_keys,
                                       StoreOptions options = {});

  ~Store();  // stops and joins the rebuild thread

  /// A generation-aware read client: each submit resolves against the
  /// generation current AT SUBMIT (one pointer copy), carrying
  /// its delta snapshot through SubmitOptions::delta; in-flight tickets
  /// keep their generation pinned across any number of swaps. The
  /// caller-facing contract is exactly core::Client's.
  std::unique_ptr<Client> connect() const;

  /// A write stream (see Writer).
  std::unique_ptr<Writer> writer();

  /// The currently published generation (never null).
  std::shared_ptr<const Generation> current() const {
    std::lock_guard lock(current_mu_);
    return current_;
  }

  /// Monotonic publication counter of current().
  std::uint64_t epoch() const { return current()->epoch(); }
  /// Live key count of current().
  std::size_t live_keys() const { return current()->live_keys(); }
  /// Completed background fold+publish cycles.
  std::uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_acquire);
  }
  /// True while the background thread is folding/building a generation
  /// (the window bench_updates buckets read latency by).
  bool rebuild_active() const {
    return rebuild_active_.load(std::memory_order_acquire);
  }
  /// Pending delta entries (published or not).
  std::size_t delta_keys() const;

  /// Test/bench hook: block until the delta is below the rebuild
  /// trigger and no fold is in progress. Only terminates if writers
  /// pause; readers are irrelevant to it.
  void wait_rebuilds_idle() const;

  const StoreOptions& options() const { return options_; }
  const Engine& engine() const { return *engine_; }

 private:
  friend class Writer;

  Store(std::unique_ptr<const Engine> engine,
        std::span<const key_t> initial_keys, StoreOptions options);

  /// Writer entry points (serialized on mu_).
  std::size_t apply_insert(std::span<const key_t> keys);
  std::size_t apply_erase(std::span<const key_t> keys);
  std::uint64_t flush();

  std::int64_t live_locked() const;
  void publish_locked();
  void rebuild_loop();

  std::unique_ptr<const Engine> engine_;
  StoreOptions options_;
  std::size_t trigger_keys_;  ///< ceil(max * fraction), clamped to [1, max]

  mutable std::mutex mu_;  ///< write/rebuild state below
  index::DeltaBuffer delta_;
  std::shared_ptr<const Index> base_;  ///< current() generation's base
  std::uint64_t epoch_ = 0;
  bool dirty_ = false;  ///< buffered writes not yet in current()
  bool stop_ = false;
  std::condition_variable rebuild_cv_;      ///< wakes the rebuild thread
  mutable std::condition_variable fold_cv_;  ///< signals fold completions

  /// The RCU publish point: readers copy, the write side (under mu_)
  /// swaps. current_mu_ guards only this pointer, so a reader waits at
  /// most for one pointer swap, never for mu_. (A mutex, not
  /// std::atomic<std::shared_ptr>: libstdc++ guards that with a lock
  /// bit ThreadSanitizer cannot see, so it reported the publish as a
  /// race.) An in-flight ticket's shared_ptr keeps its generation (and
  /// the base's worker fleet) alive across any number of swaps.
  mutable std::mutex current_mu_;
  std::shared_ptr<const Generation> current_;

  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<bool> rebuild_active_{false};
  std::thread rebuild_thread_;
};

/// Factory mirror of make_engine for the v3 surface: backend + config
/// + initial keys -> a running Store (config's max_delta_keys /
/// rebuild_trigger_fraction / writer_threads become the StoreOptions).
std::shared_ptr<Store> make_store(Backend backend,
                                  const ExperimentConfig& config,
                                  std::span<const key_t> initial_keys);

}  // namespace dici::core
