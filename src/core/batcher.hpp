// AdaptiveBatcher — work-conserving batching for the serving layer.
//
// examples/db_dispatch.cpp computes batch-fill latency analytically (a
// query waits keys_per_batch / arrival_rate for its round to flush);
// this class is that trade-off promoted to a real mechanism. Arriving
// queries accumulate until one of three triggers fires:
//   - kSize: the batch is full (max_keys) — the throughput side: big
//     rounds amortize dispatch;
//   - kDeadline: the oldest query has waited max_delay_ns — the
//     tail-latency side: no query is held hostage to a batch that will
//     not fill;
//   - kIdle: no round is in flight, so nothing is gained by waiting —
//     the fleet would sit idle while the batch fills.
// Batching only pays while the fleet is busy (the paper's Fig. 3
// trade), so the idle trigger sends at once whenever it is not. Under
// load, arrivals pile up while a round is in flight, rounds grow on
// their own, and size-or-deadline takes over; under a trickle every
// query goes out as it arrives. max_keys and max_delay_ns stay upper
// bounds on a round's size and on a query's wait in the batcher.
//
// The batcher is a pure data structure: the caller passes `now_ns` and
// the number of rounds in flight into trigger(), so tests drive the
// boundary cases (exactly-full vs one-short, deadline-minus-one vs
// deadline, idle vs busy) with a synthetic clock and no sleeps. take()
// returns, alongside the keys, each query's already-accrued wait —
// exactly the queued_ns span Client::submit accepts, so end-to-end
// latency = batcher wait (known here) + submit-to-resolve (measured by
// the engine), with no percentile arithmetic on the caller's side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/assert.hpp"
#include "src/util/types.hpp"

namespace dici::core {

class AdaptiveBatcher {
 public:
  struct Batch {
    std::vector<key_t> keys;
    /// Per-key wait already accrued at flush time (flush now - arrival),
    /// parallel to `keys` — pass straight to Client::submit's queued_ns.
    std::vector<double> queued_ns;
  };

  /// Why the pending batch should be submitted now, if it should.
  enum class Trigger { kNone, kSize, kDeadline, kIdle };

  /// Rounds hold at most `max_keys` queries, and no query waits more
  /// than `max_delay_ns` for its round while other rounds are in flight.
  AdaptiveBatcher(std::size_t max_keys, double max_delay_ns)
      : max_keys_(max_keys), max_delay_ns_(max_delay_ns) {
    DICI_CHECK_FMT(max_keys > 0, "max_keys = %zu must be > 0", max_keys);
    DICI_CHECK_FMT(max_delay_ns >= 0, "max_delay_ns = %.3f must be >= 0",
                   max_delay_ns);
  }

  /// Queue one query that arrived at `arrival_ns` (caller's clock;
  /// nondecreasing across calls).
  void push(key_t key, double arrival_ns) {
    pending_.keys.push_back(key);
    arrivals_.push_back(arrival_ns);
  }

  std::size_t size() const { return pending_.keys.size(); }
  bool empty() const { return pending_.keys.empty(); }
  bool full() const { return pending_.keys.size() >= max_keys_; }

  /// Whether the pending batch should be submitted at `now_ns` with
  /// `rounds_in_flight` earlier rounds still unanswered, and why. The
  /// triggers are checked in the order size, deadline, idle, so kIdle
  /// names only the rounds that went out early because the fleet had
  /// nothing to do. An empty batcher never flushes.
  Trigger trigger(double now_ns, std::size_t rounds_in_flight) const {
    if (pending_.keys.empty()) return Trigger::kNone;
    if (full()) return Trigger::kSize;
    if (now_ns - arrivals_.front() >= max_delay_ns_) return Trigger::kDeadline;
    if (rounds_in_flight == 0) return Trigger::kIdle;
    return Trigger::kNone;
  }

  /// When the batcher is non-empty and the size trigger has not fired,
  /// the time at which the deadline trigger will: poll loops sleep
  /// until min(next arrival, next_deadline_ns()).
  double next_deadline_ns() const {
    DICI_CHECK(!arrivals_.empty());
    return arrivals_.front() + max_delay_ns_;
  }

  /// Flush: return the pending keys with each query's accrued wait
  /// (now - arrival) and reset.
  Batch take(double now_ns) {
    pending_.queued_ns.reserve(arrivals_.size());
    for (const double arrival : arrivals_)
      pending_.queued_ns.push_back(now_ns - arrival);
    arrivals_.clear();
    return std::exchange(pending_, Batch{});
  }

  std::size_t max_keys() const { return max_keys_; }
  double max_delay_ns() const { return max_delay_ns_; }

 private:
  std::size_t max_keys_;
  double max_delay_ns_;
  Batch pending_;
  std::vector<double> arrivals_;
};

}  // namespace dici::core
