// E6b — Response time vs offered load (Sec. 4.1's throughput /
// response-time trade-off, measured for real).
//
// Two instruments in one binary:
//
// 1. The paper's method table (simulator): per-query virtual-time
//    response percentiles next to throughput for Methods A / B / C-3 —
//    the original Figure-3 discussion, quantified.
//
// 2. The serving-layer sweep (every backend): an open-loop Poisson
//    arrival stream (workload::run_open_loop — AdaptiveBatcher rounds,
//    queued_ns-accounted submits, ready()-polled completions) replayed
//    at a ladder of offered loads expressed as fractions of each
//    backend's measured closed-loop peak. Each point reports
//    caller-observed p50/p99/p999 (arrival -> result, wall clock) and
//    the engine's own RunReport::latency_ns percentiles. From the curve
//    we derive, per backend:
//      - the KNEE: the highest offered load whose p99 stays within
//        --knee-factor x the best p99 seen on the curve (past it,
//        queueing delay takes over and the curve goes vertical);
//      - MAX LOAD UNDER SLO: the highest offered load whose p99 meets
//        the --slo-us budget — the number a capacity planner wants.
//
// The binary exits non-zero if any backend produces a non-finite p99 or
// the knee finder fails to return a load point, so CI's bench-smoke can
// gate on it directly.
//
//   $ ./bench_response_time                      # full sweep
//   $ ./bench_response_time --quick --json BENCH_response_time.json
#include "bench/bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/parallel_engine.hpp"
#include "src/util/affinity.hpp"
#include "src/util/timer.hpp"
#include "src/workload/serving.hpp"

using namespace dici;

namespace {

struct LoadPoint {
  double offered_qps = 0;
  double achieved_qps = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;          // caller-observed
  double engine_p50_us = 0, engine_p99_us = 0, engine_p999_us = 0;
  std::uint64_t batches = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t idle_flushes = 0;
};

struct BackendCurve {
  std::string backend;
  std::uint32_t slaves = 0;
  double peak_qps = 0;
  std::vector<LoadPoint> points;
  double knee_offered_qps = 0;  // 0 = knee finder failed
  double knee_p99_us = 0;
  double max_load_under_slo_qps = 0;  // 0 = no point met the SLO
};

/// Closed-loop peak: stream every query through in `round_keys` slices
/// at depth-4 pipelining and take wall throughput. Doubles as warmup
/// (index pages touched, worker fleet spun up) before the open-loop
/// points are timed.
double measure_peak_qps(core::Client& client, std::span<const dici::key_t> queries,
                        std::size_t round_keys) {
  constexpr std::size_t kDepth = 4;
  std::vector<core::Ticket> tickets;
  tickets.reserve(kDepth);
  WallTimer timer;
  for (std::size_t begin = 0; begin < queries.size(); begin += round_keys) {
    const std::size_t len = std::min(round_keys, queries.size() - begin);
    if (tickets.size() >= kDepth) {
      client.wait(tickets.front());
      tickets.erase(tickets.begin());
    }
    tickets.push_back(client.submit(queries.subspan(begin, len)));
  }
  for (const auto& ticket : tickets) client.wait(ticket);
  const double sec = timer.elapsed_sec();
  return sec > 0 ? static_cast<double>(queries.size()) / sec : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("Response time vs offered load for all backends");
  cli.add_int("keys", "index keys", bench::kDefaultIndexKeys);
  cli.add_int("queries", "search keys per load point", 1 << 17);
  cli.add_int("batchkeys", "serving batcher size trigger (queries)", 1024);
  cli.add_double("maxdelayus", "serving batcher deadline (us)", 200);
  cli.add_double("slous", "p99 SLO budget (us)", 5000);
  cli.add_double("kneefactor", "knee = last load with p99 <= factor x best",
                 3.0);
  cli.add_string("json", "write the machine-readable summary here", "");
  cli.add_flag("quick", "tiny sizes for CI smoke runs", false);
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_flag("quick");
  const auto w = bench::make_workload(
      quick ? (1u << 14) : static_cast<std::size_t>(cli.get_int("keys")),
      quick ? (1u << 14) : static_cast<std::size_t>(cli.get_int("queries")));
  const auto batch_keys = static_cast<std::size_t>(
      std::max<std::int64_t>(1, quick ? 256 : cli.get_int("batchkeys")));
  const double max_delay_ns = cli.get_double("maxdelayus") * 1e3;
  const double slo_us = cli.get_double("slous");
  const double knee_factor = std::max(1.0, cli.get_double("kneefactor"));

  // ------------------------------------------------------------------
  // Part 1: the paper's per-method table (simulator, virtual time).
  // ------------------------------------------------------------------
  bench::print_header(
      "E6b — Throughput AND response time (Sec. 4.1)",
      "Methods in the simulator, then every backend under open-loop load");

  {
    TextTable t({"method", "batch", "Mqps", "p50 us", "p99 us", "max us"});
    struct Case {
      core::Method method;
      std::uint64_t batch;
    };
    const Case cases[] = {
        {core::Method::kA, 64 * KiB},    // batch irrelevant for A
        {core::Method::kB, 64 * KiB},   {core::Method::kB, 256 * KiB},
        {core::Method::kC3, 16 * KiB},  {core::Method::kC3, 64 * KiB},
        {core::Method::kC3, 256 * KiB},
    };
    for (const auto& c : cases) {
      core::ExperimentConfig cfg = bench::paper_config(c.method, c.batch);
      cfg.track_latency = true;
      const auto report =
          core::SimCluster(cfg).run(w.index_keys, w.queries, nullptr);
      t.add_row({core::method_name(c.method), format_bytes(c.batch),
                 format_double(report.throughput_qps() / 1e6, 2),
                 format_double(report.latency_ns.percentile(50) / 1e3, 1),
                 format_double(report.latency_ns.percentile(99) / 1e3, 1),
                 format_double(report.latency_ns.max() / 1e3, 1)});
    }
    t.print();
    std::printf(
        "\n  Reading: Method A answers each query fastest but tops out on\n"
        "  throughput; Method B only reaches its throughput with batches\n"
        "  whose queries wait for the whole pass; Method C-3 matches B's\n"
        "  throughput at a fraction of the wait — the both-worlds claim.\n\n");
  }

  // ------------------------------------------------------------------
  // Part 2: latency vs offered load, every backend, measured wall clock.
  // ------------------------------------------------------------------
  const std::vector<double> fractions =
      quick ? std::vector<double>{0.3, 0.6, 0.9, 1.1}
            : std::vector<double>{0.25, 0.5, 0.7, 0.85, 0.95, 1.05, 1.2};

  core::ExperimentConfig cfg =
      bench::paper_config(core::Method::kC3, 64 * KiB);
  if (quick) cfg.num_nodes = 5;
  cfg.track_latency = true;

  std::vector<BackendCurve> curves;
  for (const core::Backend backend :
       {core::Backend::kSim, core::Backend::kParallelNative}) {
    BackendCurve curve;
    curve.backend = core::backend_name(backend);
    // The simulator keeps the paper's node count. parallel-native gets
    // one worker per allowed CPU but one, because the open-loop
    // generator spins on a CPU of its own: with more workers than that,
    // a worker shares a CPU with the generator or a sibling, and the
    // low-load p99 reads a scheduler quantum instead of the engine.
    core::ExperimentConfig backend_cfg = cfg;
    if (backend == core::Backend::kParallelNative) {
      const auto workers = static_cast<std::uint32_t>(
          std::max(1, available_cpus() - 1));
      backend_cfg.num_nodes = std::min(
          backend_cfg.num_nodes, backend_cfg.num_masters + workers);
    }
    curve.slaves = backend_cfg.num_slaves();
    const auto engine = core::make_engine(backend, backend_cfg);
    const auto index = engine->build(w.index_keys);
    const auto client = index->connect();
    curve.peak_qps = measure_peak_qps(*client, w.queries, batch_keys);

    for (const double frac : fractions) {
      workload::ServingConfig serving;
      serving.arrivals.process = workload::ArrivalProcess::kPoisson;
      serving.arrivals.offered_qps = frac * curve.peak_qps;
      serving.arrivals.seed = 20050601 + curves.size();
      serving.batch_max_keys = batch_keys;
      serving.batch_max_delay_ns = max_delay_ns;
      const auto run = workload::run_open_loop(*client, w.queries, serving);

      LoadPoint p;
      p.offered_qps = run.offered_qps;
      p.achieved_qps = run.achieved_qps;
      p.p50_us = run.observed_latency_ns.percentile(50) / 1e3;
      p.p99_us = run.observed_latency_ns.percentile(99) / 1e3;
      p.p999_us = run.observed_latency_ns.percentile(99.9) / 1e3;
      p.engine_p50_us = run.engine_total.latency_ns.percentile(50) / 1e3;
      p.engine_p99_us = run.engine_total.latency_ns.percentile(99) / 1e3;
      p.engine_p999_us = run.engine_total.latency_ns.percentile(99.9) / 1e3;
      p.batches = run.batches;
      p.deadline_flushes = run.deadline_flushes;
      p.idle_flushes = run.idle_flushes;
      curve.points.push_back(p);
    }

    // Knee: best (lowest) p99 anywhere on the curve sets the baseline;
    // the knee is the highest offered load still within knee_factor of
    // it. The baseline point itself always qualifies, so a finite curve
    // always yields a knee.
    double best_p99 = curve.points.front().p99_us;
    for (const auto& p : curve.points) best_p99 = std::min(best_p99, p.p99_us);
    for (const auto& p : curve.points) {
      if (std::isfinite(p.p99_us) && p.p99_us <= knee_factor * best_p99 &&
          p.offered_qps > curve.knee_offered_qps) {
        curve.knee_offered_qps = p.offered_qps;
        curve.knee_p99_us = p.p99_us;
      }
      if (std::isfinite(p.p99_us) && p.p99_us <= slo_us)
        curve.max_load_under_slo_qps =
            std::max(curve.max_load_under_slo_qps, p.offered_qps);
    }
    curves.push_back(std::move(curve));
  }

  for (const auto& curve : curves) {
    std::printf("backend %s (%u slaves) — closed-loop peak %.2f Mqps\n",
                curve.backend.c_str(), curve.slaves, curve.peak_qps / 1e6);
    TextTable t({"offered Mqps", "achieved Mqps", "p50 us", "p99 us",
                 "p999 us", "engine p99 us", "batches", "deadline", "idle"});
    for (const auto& p : curve.points)
      t.add_row({format_double(p.offered_qps / 1e6, 2),
                 format_double(p.achieved_qps / 1e6, 2),
                 format_double(p.p50_us, 1), format_double(p.p99_us, 1),
                 format_double(p.p999_us, 1),
                 format_double(p.engine_p99_us, 1), std::to_string(p.batches),
                 std::to_string(p.deadline_flushes),
                 std::to_string(p.idle_flushes)});
    t.print();
    std::printf("  knee: %.2f Mqps (p99 %.1f us, <= %.1fx best)   "
                "max load under %.0f us SLO: %.2f Mqps\n\n",
                curve.knee_offered_qps / 1e6, curve.knee_p99_us, knee_factor,
                slo_us, curve.max_load_under_slo_qps / 1e6);
  }
  std::printf(
      "  Reading: at light load most rounds flush while no round is in\n"
      "  flight (the idle column), so a query waits for little more than\n"
      "  one round's service time and p99 stays low. As load rises,\n"
      "  arrivals pile up behind the round in flight, rounds grow, and\n"
      "  the size and deadline triggers take over. Past the knee, arrivals\n"
      "  outpace the engine and queueing delay compounds (open loop: the\n"
      "  schedule does not slow down for a slow server), so p99 goes\n"
      "  vertical. The knee load and the SLO load are the serving-capacity\n"
      "  numbers the closed-loop Mqps tables cannot show.\n");

  // Machine-readable artifact + smoke gate.
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::string json = "{\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"slo_p99_us\": %.9g,\n  \"knee_factor\": %.9g,\n"
                  "  \"backends\": [\n",
                  slo_us, knee_factor);
    json += buf;
    for (std::size_t b = 0; b < curves.size(); ++b) {
      const auto& curve = curves[b];
      std::snprintf(buf, sizeof(buf),
                    "    {\"backend\": \"%s\", \"peak_qps\": %.9g, "
                    "\"knee_offered_qps\": %.9g, \"knee_p99_us\": %.9g, "
                    "\"max_load_under_slo_qps\": %.9g, \"points\": [\n",
                    curve.backend.c_str(), curve.peak_qps,
                    curve.knee_offered_qps, curve.knee_p99_us,
                    curve.max_load_under_slo_qps);
      json += buf;
      for (std::size_t i = 0; i < curve.points.size(); ++i) {
        const auto& p = curve.points[i];
        std::snprintf(
            buf, sizeof(buf),
            "      {\"offered_qps\": %.9g, \"achieved_qps\": %.9g, "
            "\"p50_us\": %.9g, \"p99_us\": %.9g, \"p999_us\": %.9g, "
            "\"engine_p50_us\": %.9g, \"engine_p99_us\": %.9g, "
            "\"engine_p999_us\": %.9g, \"batches\": %llu, "
            "\"deadline_flushes\": %llu, \"idle_flushes\": %llu}%s\n",
            p.offered_qps, p.achieved_qps, p.p50_us, p.p99_us, p.p999_us,
            p.engine_p50_us, p.engine_p99_us, p.engine_p999_us,
            static_cast<unsigned long long>(p.batches),
            static_cast<unsigned long long>(p.deadline_flushes),
            static_cast<unsigned long long>(p.idle_flushes),
            i + 1 < curve.points.size() ? "," : "");
        json += buf;
      }
      json += b + 1 < curves.size() ? "    ]},\n" : "    ]}\n";
    }
    json += "  ]\n}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\n  wrote %s (%zu backends x %zu load points)\n",
                json_path.c_str(), curves.size(), fractions.size());
  }

  // Smoke gate: every backend must have finite tail percentiles and a
  // knee load point, or CI fails the run.
  int failures = 0;
  for (const auto& curve : curves) {
    for (const auto& p : curve.points)
      if (!std::isfinite(p.p99_us) || !std::isfinite(p.p999_us)) {
        std::fprintf(stderr, "GATE: %s has a non-finite p99/p999 at "
                     "offered %.3g qps\n",
                     curve.backend.c_str(), p.offered_qps);
        ++failures;
      }
    if (!(curve.knee_offered_qps > 0)) {
      std::fprintf(stderr, "GATE: %s knee finder returned no load point\n",
                   curve.backend.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
