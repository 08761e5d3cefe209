#include "src/workload/serving.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "src/core/batcher.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"
#include "src/workload/scenario.hpp"

namespace dici::workload {
namespace {

/// Sleep until `target_ns` on the replay clock. Coarse sleep for the
/// bulk of the gap, then spin the last stretch: sleep_for routinely
/// overshoots by tens of microseconds, which would smear every arrival
/// late and understate the offered load.
void wait_until(const WallTimer& epoch, double target_ns) {
  constexpr double kSpinWindowNs = 100e3;  // 100 us
  const double gap = target_ns - epoch.elapsed_ns();
  if (gap > kSpinWindowNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::int64_t>(gap - kSpinWindowNs)));
  }
  while (epoch.elapsed_ns() < target_ns) {
    // spin — the window is short and the arrival clock matters
  }
}

/// One submitted round still awaiting its completion stamp.
struct InFlightRound {
  core::Ticket ticket;
  /// Index of the round's first query in arrival order.
  std::size_t first_query = 0;
  /// Scheduled arrival of each query in the round (ns past the epoch).
  std::vector<double> arrivals_ns;
  /// Rank buffer the backend writes asynchronously; heap-allocated so
  /// it stays put while the deque shifts (submit's buffer contract).
  std::unique_ptr<std::vector<rank_t>> ranks;
};

}  // namespace

ServingResult run_open_loop(core::Client& client,
                            std::span<const key_t> queries,
                            const ServingConfig& config) {
  DICI_CHECK_FMT(config.max_in_flight > 0, "max_in_flight = %zu must be > 0",
                 config.max_in_flight);
  OpenLoopSpec spec = config.arrivals;
  spec.num_queries = queries.size();
  const std::vector<double> schedule = make_arrival_schedule_ns(spec);

  ServingResult result;
  result.offered_qps = spec.offered_qps;
  result.num_queries = queries.size();
  if (config.collect_ranks) result.ranks.resize(queries.size());

  core::AdaptiveBatcher batcher(config.batch_max_keys,
                                config.batch_max_delay_ns);
  std::deque<InFlightRound> in_flight;
  std::size_t next_flush_first = 0;  // arrival index of the next round's head

  const WallTimer epoch;  // replay time zero

  // Stamp one completed round: fold its engine report, record each
  // query's caller-observed latency from its scheduled arrival, and
  // copy ranks home. The first report seeds engine_total (a default
  // RunReport carries the default method; merge would reject it).
  std::uint64_t retired = 0;
  const auto retire = [&](InFlightRound& round) {
    core::RunReport report = client.wait(round.ticket);
    if (retired++ == 0)
      result.engine_total = std::move(report);
    else
      result.engine_total.merge(report);
    const double done_ns = epoch.elapsed_ns();
    for (const double arrival : round.arrivals_ns)
      result.observed_latency_ns.add(done_ns - arrival);
    if (round.ranks) {
      std::copy(round.ranks->begin(), round.ranks->end(),
                result.ranks.begin() +
                    static_cast<std::ptrdiff_t>(round.first_query));
    }
  };

  using Trigger = core::AdaptiveBatcher::Trigger;
  const auto flush = [&](double now_ns, Trigger why) {
    switch (why) {
      case Trigger::kSize: ++result.size_flushes; break;
      case Trigger::kDeadline: ++result.deadline_flushes; break;
      case Trigger::kIdle: ++result.idle_flushes; break;
      case Trigger::kNone: DICI_CHECK_MSG(false, "flush without a trigger");
    }
    core::AdaptiveBatcher::Batch batch = batcher.take(now_ns);
    InFlightRound round;
    round.first_query = next_flush_first;
    next_flush_first += batch.keys.size();
    round.arrivals_ns.reserve(batch.keys.size());
    for (std::size_t i = 0; i < batch.keys.size(); ++i)
      round.arrivals_ns.push_back(now_ns - batch.queued_ns[i]);
    if (config.collect_ranks)
      round.ranks = std::make_unique<std::vector<rank_t>>();
    // Back-pressure BEFORE submitting: the oldest round must finish to
    // free a slot. This wait is wall time the arriving queries keep
    // accruing — open loop, so it lands in the percentiles.
    while (in_flight.size() >= config.max_in_flight) {
      retire(in_flight.front());
      in_flight.pop_front();
    }
    round.ticket = client.submit(batch.keys, round.ranks.get(),
                                 {.queued_ns = batch.queued_ns});
    in_flight.push_back(std::move(round));
  };

  std::size_t next_arrival = 0;
  while (next_arrival < schedule.size() || !batcher.empty()) {
    // Stamp the rounds that finished BEFORE deciding whether to flush:
    // completion times should not wait for the next arrival gap, and a
    // round that just finished may leave the fleet idle, which sends
    // the pending round at once.
    while (!in_flight.empty() && client.ready(in_flight.front().ticket)) {
      retire(in_flight.front());
      in_flight.pop_front();
    }

    // Ingest every arrival that is due; max_keys caps each round.
    const double now_ns = epoch.elapsed_ns();
    while (next_arrival < schedule.size() &&
           schedule[next_arrival] <= now_ns) {
      batcher.push(queries[next_arrival], schedule[next_arrival]);
      ++next_arrival;
      if (batcher.full()) flush(now_ns, Trigger::kSize);
    }
    const Trigger why = batcher.trigger(now_ns, in_flight.size());
    if (why != Trigger::kNone) flush(now_ns, why);

    // Wait until something can happen. With nothing in flight the
    // batcher is empty (it just flushed kIdle), so only the next arrival
    // can; with rounds in flight, also the pending round's deadline or
    // the oldest round's completion, which stamps its queries and may
    // leave the fleet idle.
    if (in_flight.empty()) {
      if (next_arrival < schedule.size())
        wait_until(epoch, schedule[next_arrival]);
      continue;
    }
    double target_ns = next_arrival < schedule.size()
                           ? schedule[next_arrival]
                           : std::numeric_limits<double>::infinity();
    if (!batcher.empty())
      target_ns = std::min(target_ns, batcher.next_deadline_ns());
    const core::Ticket& oldest = in_flight.front().ticket;
    while (epoch.elapsed_ns() < target_ns && !client.ready(oldest)) {
      // spin — a round's service time is short and its end matters
    }
  }

  while (!in_flight.empty()) {
    retire(in_flight.front());
    in_flight.pop_front();
  }

  result.batches =
      result.size_flushes + result.deadline_flushes + result.idle_flushes;
  result.wall_seconds = epoch.elapsed_sec();
  result.achieved_qps =
      result.wall_seconds > 0
          ? static_cast<double>(result.num_queries) / result.wall_seconds
          : 0;
  return result;
}

ServingConfig serving_config_from(const ScenarioSpec& spec) {
  DICI_CHECK_FMT(spec.arrival != ArrivalProcess::kClosed,
                 "scenario '%s' is closed-loop (arrival = closed): no "
                 "serving config to derive",
                 spec.name.c_str());
  ServingConfig config;
  config.arrivals.process = spec.arrival;
  config.arrivals.offered_qps = spec.offered_qps;
  config.arrivals.num_queries = spec.num_queries;
  // Salted so the arrival draws are decorrelated from the spec's index
  // and query streams (which use seed and a query salt of their own).
  config.arrivals.seed = spec.seed ^ 0x9e3779b97f4a7c15ull;
  config.batch_max_keys =
      std::max<std::size_t>(1, spec.batch_bytes / sizeof(key_t));
  return config;
}

}  // namespace dici::workload
