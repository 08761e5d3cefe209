// Bounded lock-free SPSC ring + the per-worker hub on
// ParallelNativeEngine's submit path.
//
// The v2 API's steady state is many clients firing small batches at one
// pinned worker fleet. With a mutex queue every work item costs a
// lock/unlock on the client thread and a lock/unlock + condvar wake on
// the worker — per ITEM, in the regime where items are deliberately
// small. The classic fix is the NIC design: one single-producer/
// single-consumer ring per (client, worker) pair, so the hot path is
// two relaxed/acquire-release index updates and zero syscalls.
//
//  * SpscRing<T>    — the primitive: Lamport ring with cached indices
//                     (producer and consumer each mirror the other's
//                     position locally, so steady-state push/pop touch
//                     one shared cache line, not two).
//  * SpscRingHub<T> — one OWNING consumer (a worker) over many rings
//                     (its clients), plus a cold-path THIEF entry
//                     (try_steal) other workers use to take whole items
//                     when their own hubs run dry. Producers stay
//                     lock-free; the condvar appears ONLY on the
//                     blocking edges — a worker with nothing to do
//                     parks, a closing hub drains.
//
// Park/wake correctness: the hub uses an EVENTCOUNT — producers bump a
// generation counter (under the park mutex) whenever they wake, and a
// parking consumer captures the generation BEFORE its final empty
// re-scan, then sleeps on "generation changed". A wake that lands
// anywhere between the capture and the wait flips the generation, so
// the wait predicate is already true and the sleep is skipped. The
// previous protocol parked on a single wake_pending flag armed only
// while `waiting_` was visibly set; a producer whose fence-and-flag
// check raced the consumer between its final empty re-scan and the
// wait could conclude "not waiting" while the consumer concluded
// "nothing pushed" — each side passing its check before the other's
// write landed — and the push then sat in the ring until the next
// unrelated wake. The generation ticket closes that window by
// construction (net_spsc_ring_test races both protocols' shapes).
//
// Stealing and the single-consumer contract: a ring still has exactly
// one consumer AT A TIME. All consumer-side state (ring read cursors,
// the channel snapshot) is guarded by a spinlock the owner takes
// uncontended on its fast path and a thief only try-acquires — a busy
// owner means there is nothing worth stealing anyway. Thieves never
// park and never consume wakes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/assert.hpp"

namespace dici::net {

/// Bounded single-producer/single-consumer ring. Exactly one thread may
/// call try_push and — at any moment — exactly one may call try_pop
/// (the hub serializes owner and thief). T must be
/// default-constructible and move-assignable; popped slots are reset to
/// T{} so the ring never retains references.
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer: false when full (the consumer has fallen behind by a
  /// whole ring); the item is untouched and may be retried.
  bool try_push(T& item) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - cached_head_ == capacity()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ == capacity()) return false;
    }
    slots_[t & mask_] = std::move(item);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: false when empty.
  bool try_pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (h == cached_tail_) return false;
    }
    out = std::move(slots_[h & mask_]);
    slots_[h & mask_] = T{};  // drop any owned references promptly
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Racy snapshot; exact only from the consumer side.
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Producer and consumer indices on their own cache lines, with each
  // side's cached mirror of the other so the fast path reads one line.
  alignas(64) std::atomic<std::size_t> head_{0};   // next pop
  alignas(64) std::atomic<std::size_t> tail_{0};   // next push
  alignas(64) std::size_t cached_head_ = 0;        // producer-local
  alignas(64) std::size_t cached_tail_ = 0;        // consumer-local
};

/// One owning consumer (plus opportunistic thieves) over many SPSC
/// channels. Producers open a Channel each and push lock-free; the
/// owner round-robins the channels and parks on the eventcount only
/// when everything is empty. Channel registration and teardown are the
/// rare path and take the mutex.
template <typename T>
class SpscRingHub {
 public:
  class Channel {
   public:
    Channel(SpscRingHub* hub, std::size_t capacity)
        : ring_(capacity), hub_(hub) {}

    /// Producer: push one item, spinning (with yields) while the ring
    /// is full — a full ring is never empty, so the consumer either is
    /// awake and draining or is about to re-scan before parking.
    void push(T item) {
      while (!ring_.try_push(item)) {
        hub_->after_push();
        std::this_thread::yield();
      }
      hub_->pending_.fetch_add(1, std::memory_order_relaxed);
      hub_->after_push();
    }

    /// Producer: no more pushes ever; the consumer prunes the channel
    /// once it has drained. Idempotent.
    void close() {
      closed_.store(true, std::memory_order_release);
      hub_->channel_event();
    }

   private:
    friend class SpscRingHub;
    SpscRing<T> ring_;
    SpscRingHub* hub_;
    std::atomic<bool> closed_{false};
  };

  /// Block (timeout) outcomes of wait_pop.
  enum class PopResult { kItem, kTimeout, kClosed };

  /// wait_pop's "no timeout" sentinel.
  static constexpr std::chrono::nanoseconds kWaitForever{-1};

  /// Register a new producer channel (any thread).
  std::shared_ptr<Channel> open(std::size_t capacity) {
    auto channel = std::make_shared<Channel>(this, capacity);
    {
      std::lock_guard lock(mu_);
      channels_.push_back(channel);
    }
    channel_event();
    return channel;
  }

  /// Owner: pop the next item from any channel (round-robin across
  /// channels, FIFO within one) without blocking.
  bool try_pop(T& out) {
    lock_consumer();
    const bool got = locked_scan(out);
    unlock_consumer();
    return got;
  }

  /// Thief (any non-owner thread): try to take one item. Gives up
  /// immediately when the consumer side is busy — a draining owner
  /// means there is nothing worth stealing. Never blocks, never parks.
  bool try_steal(T& out) {
    if (consumer_lock_.exchange(true, std::memory_order_acquire))
      return false;
    const bool got = locked_scan(out);
    unlock_consumer();
    return got;
  }

  /// Owner: pop, parking on the eventcount while every channel is
  /// empty. kTimeout is only possible with a non-negative timeout;
  /// kClosed means close() was called and everything is drained.
  PopResult wait_pop(T& out,
                     std::chrono::nanoseconds timeout = kWaitForever) {
    for (;;) {
      if (try_pop(out)) return PopResult::kItem;
      // Eventcount protocol: capture the generation ticket, announce,
      // then make the FINAL empty re-scan. Any producer wake after the
      // capture bumps the generation, so the wait predicate below is
      // already satisfied and we never sleep across a push — whichever
      // side's seq_cst fence lands second sees the other's write, and
      // the ticket covers the remaining announce-to-wait window.
      const std::uint64_t ticket = epoch_.load(std::memory_order_acquire);
      waiting_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (try_pop(out)) {
        waiting_.store(false, std::memory_order_relaxed);
        return PopResult::kItem;
      }
      std::unique_lock lock(mu_);
      if (closed_) {
        waiting_.store(false, std::memory_order_relaxed);
        lock.unlock();
        // Final drain: anything still buffered comes out, then the hub
        // stays ended.
        return try_pop(out) ? PopResult::kItem : PopResult::kClosed;
      }
      const auto pred = [&] {
        return epoch_.load(std::memory_order_relaxed) != ticket || closed_;
      };
      bool woke = true;
      if (timeout < std::chrono::nanoseconds::zero()) {
        cv_.wait(lock, pred);
      } else {
        woke = cv_.wait_for(lock, timeout, pred);
      }
      lock.unlock();
      waiting_.store(false, std::memory_order_relaxed);
      if (!woke) return PopResult::kTimeout;
    }
  }

  /// Owner: blocking pop. Returns false only after close() once every
  /// channel is drained.
  bool pop(T& out) { return wait_pop(out) == PopResult::kItem; }

  /// Approximate items buffered across all channels (pushed, not yet
  /// popped or stolen). Relaxed counter — a pop can even be counted
  /// before its push lands, so the value is clamped at 0; momentary
  /// staleness is fine for its consumers (steal-imbalance checks,
  /// stats).
  std::size_t pending() const {
    const std::ptrdiff_t n = pending_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  /// Shut the hub down: pop()/wait_pop() drain what remains, then
  /// return ended. Call only once producers have stopped pushing.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

 private:
  void after_push() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_relaxed)) wake_consumer();
  }

  void wake_consumer() {
    // The generation bump happens under the park mutex, so a parking
    // consumer either sees the new generation in its predicate or is
    // not yet inside wait() — either way the wake cannot be lost.
    {
      std::lock_guard lock(mu_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// A channel opened or closed: invalidate the consumer's snapshot and
  /// wake it so closed channels are pruned promptly.
  void channel_event() {
    version_.fetch_add(1, std::memory_order_release);
    wake_consumer();
  }

  // --- Consumer-side state and helpers (owner or one thief at a time,
  // --- serialized by consumer_lock_) --------------------------------------

  void lock_consumer() {
    // Uncontended on the owner's fast path; a thief holds it only for
    // one scan, so spinning with yields is cheaper than a futex.
    while (consumer_lock_.exchange(true, std::memory_order_acquire))
      std::this_thread::yield();
  }

  void unlock_consumer() {
    consumer_lock_.store(false, std::memory_order_release);
  }

  bool locked_scan(T& out) {
    if (version_.load(std::memory_order_acquire) != snapshot_version_)
      refresh_snapshot();
    const std::size_t count = snapshot_.size();
    for (std::size_t step = 0; step < count; ++step) {
      cursor_ = cursor_ + 1 < count ? cursor_ + 1 : 0;
      if (snapshot_[cursor_]->ring_.try_pop(out)) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  void refresh_snapshot() {
    std::lock_guard lock(mu_);
    snapshot_version_ = version_.load(std::memory_order_acquire);
    // Prune channels whose producer is done and whose ring is drained;
    // the ring emptiness check is exact here (we hold the consumer
    // lock). snapshot_ keeps a shared_ptr to every channel it scans, so
    // a producer destroying its handle mid-scan never frees a ring
    // under us.
    std::erase_if(channels_, [](const std::shared_ptr<Channel>& ch) {
      return ch->closed_.load(std::memory_order_acquire) && ch->ring_.empty();
    });
    snapshot_ = channels_;
    cursor_ = 0;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::vector<std::shared_ptr<Channel>> channels_;  // guarded by mu_
  std::atomic<std::uint64_t> version_{0};
  /// Eventcount generation: bumped (under mu_) by every wake.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> waiting_{false};
  std::atomic<std::ptrdiff_t> pending_{0};

  /// Serializes the consumer side between the owner and thieves.
  std::atomic<bool> consumer_lock_{false};
  std::vector<std::shared_ptr<Channel>> snapshot_;  // consumer-lock guarded
  std::uint64_t snapshot_version_ = ~0ull;          // force first refresh
  std::size_t cursor_ = 0;
};

}  // namespace dici::net
