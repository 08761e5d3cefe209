// Open-loop serving — real response times under real arrivals.
//
// examples/db_dispatch.cpp computes batch-fill latency analytically; this
// example measures it. Queries arrive on their own clock (Poisson or
// bursty at --qps), an AdaptiveBatcher forms dispatch rounds (full, at
// the deadline, or at once while no round is in flight), and the
// parallel engine answers while the percentile meter runs from each
// query's ARRIVAL instant — so batching wait, queueing wait, and service
// time all land in p50/p99/p999. Every answer is checked against
// workload::reference_ranks; the example exits 1 on any mismatch.
//
//   $ ./open_loop_serving
//   $ ./open_loop_serving --process bursty --qps 2000000
//   $ ./open_loop_serving --maxdelayus 50   # tighter deadline
#include <cstdio>

#include "src/core/parallel_engine.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/workload/serving.hpp"
#include "src/workload/workload.hpp"

int main(int argc, char** argv) {
  using namespace dici;
  Cli cli("Open-loop serving: arrivals -> adaptive batches -> percentiles");
  cli.add_int("rows", "indexed row keys", 327680);
  cli.add_int("queries", "point queries", 1 << 17);
  cli.add_double("qps", "offered load (queries/sec)", 1e6);
  cli.add_string("process", "arrival process: poisson | bursty", "poisson");
  cli.add_int("batchkeys", "batcher size trigger", 1024);
  cli.add_double("maxdelayus", "batcher deadline (us)", 200);
  cli.add_int("threads", "worker threads", 4);
  if (!cli.parse(argc, argv)) return 0;

  workload::ArrivalProcess process{};
  if (!workload::parse_arrival_process(cli.get_string("process"), &process) ||
      process == workload::ArrivalProcess::kClosed) {
    std::fprintf(stderr, "--process must be poisson or bursty\n");
    return 1;
  }

  Rng rng(31);
  const auto rows = workload::make_sorted_unique_keys(
      static_cast<std::size_t>(cli.get_int("rows")), rng);
  const auto queries = workload::make_uniform_queries(
      static_cast<std::size_t>(cli.get_int("queries")), rng);

  core::ParallelConfig cfg;
  cfg.num_threads = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("threads")));
  cfg.track_latency = true;
  const core::ParallelNativeEngine engine(cfg);
  const auto index = engine.build(rows);
  const auto client = index->connect();

  workload::ServingConfig serving;
  serving.arrivals.process = process;
  serving.arrivals.offered_qps = cli.get_double("qps");
  serving.batch_max_keys = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("batchkeys")));
  serving.batch_max_delay_ns = cli.get_double("maxdelayus") * 1e3;
  serving.collect_ranks = true;

  std::printf("index: %zu row keys; %zu queries arriving %s at %.2f Mqps\n"
              "batcher: flush at once while idle; while busy at %zu keys\n"
              "         or %.0f us, whichever first\n\n",
              rows.size(), queries.size(),
              workload::arrival_process_name(process),
              serving.arrivals.offered_qps / 1e6, serving.batch_max_keys,
              serving.batch_max_delay_ns / 1e3);

  const auto result = workload::run_open_loop(*client, queries, serving);

  TextTable t({"metric", "value"});
  const auto& lat = result.observed_latency_ns;
  t.add_row({"achieved Mqps", format_double(result.achieved_qps / 1e6, 2)});
  t.add_row({"batches", std::to_string(result.batches)});
  t.add_row({"  flushed full", std::to_string(result.size_flushes)});
  t.add_row({"  flushed by deadline", std::to_string(result.deadline_flushes)});
  t.add_row({"  flushed while idle", std::to_string(result.idle_flushes)});
  t.add_row({"p50 us", format_double(lat.percentile(50) / 1e3, 1)});
  t.add_row({"p99 us", format_double(lat.percentile(99) / 1e3, 1)});
  t.add_row({"p999 us", format_double(lat.percentile(99.9) / 1e3, 1)});
  t.add_row({"max us", format_double(lat.max() / 1e3, 1)});
  t.add_row({"engine p99 us",
             format_double(result.engine_total.latency_ns.percentile(99) / 1e3,
                           1)});
  t.print();
  std::printf(
      "\n  Knobs: raise --qps toward the engine's peak and watch rounds\n"
      "  grow from idle flushes to full ones, then p99 go vertical (the\n"
      "  knee bench_response_time sweeps for). Tighten --maxdelayus to cap\n"
      "  the wait behind a busy fleet; shrink --batchkeys to make the size\n"
      "  trigger bind sooner under heavy load.\n");

  const auto expected = workload::reference_ranks(rows, queries);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < expected.size(); ++i)
    if (result.ranks[i] != expected[i]) ++mismatches;
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu of %zu ranks differ from the reference\n",
                 mismatches, expected.size());
    return 1;
  }
  std::printf("  all %zu ranks match the reference.\n", expected.size());
  return 0;
}
