// The open-loop serving loop: replay an arrival schedule against a
// Client and measure what a front end would actually observe.
//
// This is where the three serving pieces meet:
//   - open_loop.hpp draws the arrival instants (Poisson or bursty) at a
//     fixed offered load, independent of how fast the engine answers;
//   - core::AdaptiveBatcher accumulates arrivals into rounds, reporting
//     each query's accrued wait. A round goes out when it is full, when
//     its oldest query reaches the deadline, or at once when no earlier
//     round is in flight (work-conserving: batching only pays while the
//     fleet is busy);
//   - Client::submit(queries, ranks, {.queued_ns = ...}) dispatches each round
//     asynchronously, and Client::ready() lets the loop stamp
//     completions without stalling the arrival clock.
//
// Latency is recorded from the ARRIVAL instant, not the submit instant:
// a query that sat in the batcher (or behind max_in_flight
// back-pressure) is charged that wait. This is the open-loop
// discipline — the schedule never slows down because the engine fell
// behind, so queueing delay shows up in the percentiles instead of
// silently stretching the experiment (no coordinated omission).
//
// Two latency views come back and should agree for wall-clock backends:
//   - observed_latency_ns: caller-side, wait()-return minus scheduled
//     arrival — works on any backend, includes ticket-poll slack;
//   - engine RunReport::latency_ns (when track_latency is on): the
//     engine's own per-query stamps plus the declared queued_ns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/run_report.hpp"
#include "src/util/stats.hpp"
#include "src/util/types.hpp"
#include "src/workload/open_loop.hpp"

namespace dici::workload {

struct ScenarioSpec;  // scenario.hpp

struct ServingConfig {
  /// Arrival schedule recipe. process must be kPoisson or kBursty;
  /// num_queries is overridden with the query stream's length.
  OpenLoopSpec arrivals;
  /// AdaptiveBatcher size trigger: the most queries in one dispatch
  /// round.
  std::size_t batch_max_keys = 1024;
  /// AdaptiveBatcher deadline trigger: the most ns a query waits for its
  /// round while earlier rounds are in flight. With none in flight a
  /// round goes out at once (the idle trigger), so both knobs are upper
  /// bounds that bind only under load.
  double batch_max_delay_ns = 200e3;
  /// Submit-ahead depth: rounds in flight before the loop back-pressures
  /// on the oldest ticket (matches the engine-side ring slack).
  std::size_t max_in_flight = 8;
  /// Collect every query's rank (arrival order) into ServingResult::ranks
  /// so tests can verify answers against workload::reference_ranks.
  bool collect_ranks = false;
};

struct ServingResult {
  double offered_qps = 0;   ///< the schedule's long-run target rate
  double achieved_qps = 0;  ///< queries / wall_seconds actually sustained
  double wall_seconds = 0;  ///< first arrival to last completion
  std::uint64_t num_queries = 0;
  /// Dispatch rounds submitted: size_flushes + deadline_flushes +
  /// idle_flushes.
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;     ///< rounds flushed full
  std::uint64_t deadline_flushes = 0; ///< rounds flushed by the deadline
  std::uint64_t idle_flushes = 0;     ///< rounds flushed with none in flight
  /// Caller-observed response time per query: wait()-return minus
  /// scheduled arrival (ns). Bounded memory (Summary histogram).
  Summary observed_latency_ns;
  /// Merged engine reports over every round (RunReport::merge), with
  /// RunReport::latency_ns filled when the backend tracks latency.
  core::RunReport engine_total;
  /// Per-query ranks in arrival order (empty unless collect_ranks).
  std::vector<rank_t> ranks;
};

/// Replay `queries` against `client` on the config's arrival schedule.
/// Arrival i is queries[i] at schedule[i] ns past the replay epoch; the
/// loop sleeps out quiet gaps, batches arrivals adaptively, keeps up to
/// max_in_flight rounds submitted, and stamps each round's completion.
/// The last round goes out by the same triggers as the rest.
/// Runs open loop: if the engine can't keep up, latency grows without
/// bound — that divergence is the signal bench_response_time sweeps for.
ServingResult run_open_loop(core::Client& client,
                            std::span<const key_t> queries,
                            const ServingConfig& config);

/// Derive a ServingConfig from a registry spec (scenario.hpp): the
/// spec's arrival process and offered_qps become the OpenLoopSpec (seed
/// salted away from the index/query draws), batch_max_keys mirrors the
/// spec's batch_bytes in keys. Aborts if the spec is closed-loop.
ServingConfig serving_config_from(const ScenarioSpec& spec);

}  // namespace dici::workload
