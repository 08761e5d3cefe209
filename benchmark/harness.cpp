#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "json.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "src/arch/machine.hpp"
#include "src/cluster/cluster_engine.hpp"
#include "src/core/store.hpp"
#include "src/util/affinity.hpp"
#include "src/util/bytes.hpp"
#include "src/util/stats.hpp"
#include "src/util/timer.hpp"
#include "src/workload/open_loop.hpp"
#include "src/workload/serving.hpp"

namespace bench {

namespace core = dici::core;
namespace wl = dici::workload;
using dici::Summary;
using dici::WallTimer;

namespace {

// --- Settings shared by every workload -------------------------------------

constexpr double kSloUs = 1000.0;            ///< p99 latency limit
constexpr std::size_t kSubmitKeys = 16384;   ///< closed-loop submit size
constexpr std::size_t kPipelineDepth = 4;    ///< closed-loop submits in flight
constexpr std::size_t kBatchKeys = 1024;     ///< serving batcher size trigger
constexpr double kBatchDelayNs = 200e3;      ///< serving batcher deadline
constexpr std::size_t kMaxInFlight = 8;      ///< serving rounds in flight
constexpr double kMinAchievedRatio = 0.98;   ///< below it the backlog grows
constexpr double kMaxGenLagMs = 1.0;         ///< a later-finishing trial is invalid
constexpr double kWritesPerSec = 80'000;     ///< skew-rw writer rate
constexpr std::size_t kWriteGroup = 64;      ///< writes per flush (half erases)

/// How much of everything one run does. Trial lengths scale with the
/// --seconds budget t = seconds / 100: an untraced run spends about 87 t
/// measuring, 102 t when the ladder search probes four rungs. Many short
/// open-loop trials and their median, not a few long ones: on a shared
/// host, millisecond stalls ruin the p99 of whichever trial they land
/// in, and the shorter the trials, the smaller the share of them a stall
/// reaches (with trials of t, about a quarter of skew-rw's caught one and
/// the median p99 moved with that share). Many builds with one
/// closed-loop trial each, not a few with several: throughput moves with
/// where a build's threads and processes land, so trials of one build
/// agree and builds do not.
struct Plan {
  unsigned key_log2;
  std::size_t pool;
  double open_s;            ///< one open-loop trial
  double closed_s;          ///< one closed-loop trial
  int builds;               ///< timed builds, each serving the two below
  int closed_per_build;
  int mid_per_build;        ///< open-loop trials at the mid rate
  int ladder_trials;        ///< open-loop trials per probed rung
  std::size_t ladder_steps;
  int traced_trials;        ///< traced closed-loop trials (x mid_per_build open)
  double layer_budget_s;    ///< each isolated layer timing
};

Plan plan_for(const RunOptions& o) {
  if (o.smoke) return {14, std::size_t{1} << 18, 0.02, 0.03, 1, 1, 1, 1, 2, 1, 0.01};
  const double t = std::clamp(o.seconds / 100.0, 0.02, 1.0);
  return {o.spec->key_log2, std::size_t{1} << 22,
          t / 4,            1.5 * t,
          14,               1,
          4,                60,
          o.spec->ladder_mqps.size(),
          5,                std::clamp(o.seconds / 100.0, 0.01, 0.3)};
}

core::ExperimentConfig config_for(const WorkloadSpec& w, bool track_latency) {
  core::ExperimentConfig cfg;
  cfg.method = core::Method::kC3;
  // The default-constructed MachineSpec has no cache geometry.
  cfg.machine = dici::arch::modern_cluster();
  cfg.num_nodes = w.workers + 1;  // + the dispatching client
  cfg.batch_bytes = 64 * dici::KiB;
  cfg.track_latency = track_latency;
  if (w.backend == core::Backend::kCluster)
    cfg.transport = dici::net::TransportKind::kTcp;
  return cfg;
}

/// What a workload serves from: a built Index, or a Store around one.
struct Target {
  std::shared_ptr<const core::Index> index;
  std::shared_ptr<core::Store> store;

  std::unique_ptr<core::Client> connect() const {
    return store ? store->connect() : index->connect();
  }
};

Target build_target(const WorkloadSpec& w, bool track_latency,
                    std::span<const key_t> keys) {
  Target t;
  if (w.skewed_rw) {
    t.store = core::make_store(w.backend, config_for(w, track_latency), keys);
    return t;
  }
  t.index = core::make_engine(w.backend, config_for(w, track_latency))->build(keys);
  if (w.backend != core::Backend::kCluster) return t;
  // Each spawned node gets a core of its own, as it would have a machine
  // of its own. Left to the scheduler, fresh node processes share cores
  // for most of a second after every build, and p99 triples meanwhile.
  const std::vector<int> cpus = dici::allowed_cpus();
  const std::vector<int> pids = dici::cluster::cluster_node_pids(*t.index);
  for (std::size_t i = 0; i < pids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(dici::pin_target(cpus, static_cast<int>(i)), &one);
    sched_setaffinity(pids[i], sizeof(one), &one);  // best effort
  }
  return t;
}

/// Operations attempted, failed (refused or failed submissions and
/// writes) and answered wrongly, over the whole run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

/// Pins the calling thread to the allowed CPU `from_last` places from
/// the end (best effort). The load generator runs on the last allowed
/// CPU (the writer on the one before), while the parallel engine pins
/// its workers from the first CPU up — so the generator never
/// time-shares a core with a worker.
void pin_from_last(std::size_t from_last) {
  const std::vector<int> cpus = dici::allowed_cpus();
  dici::pin_current_thread_to_os_cpu(
      cpus[cpus.size() - 1 - std::min(from_last, cpus.size() - 1)]);
}

/// Runs `body` on a thread of its own pinned to the last allowed CPU,
/// and waits for it. The calling thread keeps its mask: engines take
/// their pin targets from the building thread's mask, so they must be
/// built on an unpinned thread.
template <class Body>
void run_pinned(Body&& body) {
  std::exception_ptr error;
  std::thread thread([&] {
    pin_from_last(0);
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  });
  thread.join();
  if (error) std::rethrow_exception(error);
}

void note_failure(const char* what) {
  static std::atomic<int> shown{0};
  if (shown++ < 5) std::fprintf(stderr, "dici_bench: operation failed: %s\n", what);
}

/// Answers in `got` that differ from the expected ranks of the pool
/// queries starting at `at` (wrapping at the pool's end).
std::uint64_t mismatches(const Inputs& in, std::size_t at,
                         std::span<const rank_t> got) {
  std::uint64_t bad = 0;
  for (const rank_t r : got) {
    bad += r != in.expected[at];
    if (++at == in.expected.size()) at = 0;
  }
  return bad;
}

// --- Closed loop: one client, kPipelineDepth submits in flight --------------

struct ClosedTrial {
  double seconds = 0;
  std::uint64_t answered = 0;
  core::RunReport total;  ///< merged over the answered submissions
  double mqps() const { return seconds > 0 ? answered / seconds / 1e6 : 0; }
};

/// Per-call wall times, collected in traced runs only.
struct CallTimes {
  Summary submit_ns;
  Summary wait_ns;
};

class ClosedLoop {
 public:
  ClosedLoop(const Inputs& in, Tally& tally)
      : in_(in), tally_(tally), block_(std::min(kSubmitKeys, in.pool.size())) {}

  /// Submit consecutive pool blocks for `seconds`, then drain. Answers
  /// are kept and checked after the timer stops.
  ClosedTrial run(core::Client& client, double seconds, Tracer& tracer,
                  std::uint64_t parent, CallTimes* times) {
    ClosedTrial trial;
    struct Pending {
      core::Ticket ticket;
      std::size_t slot;
    };
    std::deque<Pending> pending;
    std::vector<std::size_t> offsets;
    std::vector<bool> answered;
    const auto retire = [&] {
      const Pending p = pending.front();
      pending.pop_front();
      Scope span(tracer, "wait", parent, p.ticket.id());
      const WallTimer call;
      try {
        core::RunReport report = client.wait(p.ticket);
        if (trial.answered == 0)
          trial.total = std::move(report);
        else
          trial.total.merge(report);
        trial.answered += block_;
        answered[p.slot] = true;
      } catch (const std::exception& e) {
        tally_.failed += block_;
        note_failure(e.what());
      }
      if (times) times->wait_ns.add(call.elapsed_ns());
    };

    const WallTimer timer;
    std::size_t slots = 0;
    while (timer.elapsed_sec() < seconds) {
      if (pending.size() == kPipelineDepth) retire();
      if (slots == outs_.size()) outs_.emplace_back();
      const std::size_t at = (next_block_++ * block_) % in_.pool.size();
      offsets.push_back(at);
      answered.push_back(false);
      const std::size_t slot = slots++;
      Scope span(tracer, "submit", parent);
      const WallTimer call;
      try {
        const core::Ticket ticket = client.submit(
            std::span(in_.pool).subspan(at, block_), &outs_[slot]);
        tracer.set_request(span.id(), ticket.id());
        pending.push_back({ticket, slot});
      } catch (const std::exception& e) {
        tally_.failed += block_;
        note_failure(e.what());
      }
      if (times) times->submit_ns.add(call.elapsed_ns());
    }
    while (!pending.empty()) retire();
    trial.seconds = timer.elapsed_sec();

    tally_.attempted += slots * block_;
    for (std::size_t s = 0; s < slots; ++s)
      if (answered[s]) tally_.wrong += mismatches(in_, offsets[s], outs_[s]);
    return trial;
  }

 private:
  const Inputs& in_;
  Tally& tally_;
  const std::size_t block_;
  std::size_t next_block_ = 0;
  /// One rank buffer per submit slot, reused across trials. A deque so
  /// buffers never move while the engine writes into them.
  std::deque<std::vector<rank_t>> outs_;
};

// --- Open loop: Poisson arrivals through the serving batcher ----------------

struct OpenTrial {
  bool ok = false;  ///< false when the trial's submissions failed
  double achieved_ratio = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t samples = 0;
  /// Last completion minus last scheduled arrival.
  double gen_lag_ms = 0;
  wl::ServingResult run;
};

/// rate x seconds queries from the pool at `*cursor`, replayed on a
/// Poisson schedule; latency runs from each query's scheduled arrival.
OpenTrial open_trial(core::Client& client, const Inputs& in, std::size_t* cursor,
                     double mqps, double seconds, std::uint64_t seed,
                     Tally& tally, Tracer& tracer, std::uint64_t parent) {
  const std::size_t n = std::max<std::size_t>(
      kBatchKeys, static_cast<std::size_t>(std::llround(mqps * 1e6 * seconds)));
  const std::size_t start = *cursor;
  std::vector<key_t> queries(n);
  for (std::size_t j = 0, at = start; j < n; ++j) {
    queries[j] = in.pool[at];
    if (++at == in.pool.size()) at = 0;
  }
  *cursor = (start + n) % in.pool.size();

  wl::ServingConfig config;
  config.arrivals.process = wl::ArrivalProcess::kPoisson;
  config.arrivals.offered_qps = mqps * 1e6;
  config.arrivals.seed = seed;
  config.batch_max_keys = kBatchKeys;
  config.batch_max_delay_ns = kBatchDelayNs;
  config.max_in_flight = kMaxInFlight;
  config.collect_ranks = true;
  wl::OpenLoopSpec schedule = config.arrivals;
  schedule.num_queries = n;
  const double last_arrival_ns = wl::make_arrival_schedule_ns(schedule).back();

  OpenTrial t;
  tally.attempted += n;
  try {
    Scope span(tracer, "open_trial", parent);
    t.run = wl::run_open_loop(client, queries, config);
  } catch (const std::exception& e) {
    tally.failed += n;
    note_failure(e.what());
    return t;
  }
  tally.wrong += mismatches(in, start, t.run.ranks);
  t.run.ranks = {};
  t.ok = true;
  t.achieved_ratio = t.run.achieved_qps / t.run.offered_qps;
  const Summary& lat = t.run.observed_latency_ns;
  t.p50_us = lat.percentile(50) / 1e3;
  t.p99_us = lat.percentile(99) / 1e3;
  t.p999_us = lat.percentile(99.9) / 1e3;
  t.samples = lat.count();
  t.gen_lag_ms = (t.run.wall_seconds * 1e9 - last_arrival_ns) / 1e6;
  return t;
}

// --- skew-rw's writer ---------------------------------------------------------

/// One writer thread: every 64 / kWritesPerSec seconds a group of 32
/// inserts and 32 erases, then flush(). Inserts are odd keys in the
/// write region (never base keys, never repeated); erases take the
/// oldest live write-region keys, so every write changes the live set
/// and the delta grows until the background rebuild folds it. The
/// writer also polls Store::rebuild_active() to time rebuild windows.
class WriteLoad {
 public:
  WriteLoad(std::shared_ptr<core::Store> store, std::span<const key_t> keys,
            Tracer& tracer)
      : store_(std::move(store)), tracer_(tracer) {
    for (const key_t k : keys)
      if (k >= kWriteRegion) live_.push_back(k);
    rebuilds_before_ = store_->rebuilds();
    thread_ = std::thread([this] { loop(); });
  }

  ~WriteLoad() { join(); }
  WriteLoad(const WriteLoad&) = delete;
  WriteLoad& operator=(const WriteLoad&) = delete;

  /// Stop writing and add the writes and failed writes to `tally`. Call
  /// once.
  void stop(Tally& tally) {
    join();
    tally.attempted += writes;
    tally.failed += failed;
  }

  // Valid after stop().
  Summary group_ns;    ///< first insert to flush() return
  Summary flush_ns;    ///< flush() alone
  Summary rebuild_ns;  ///< rebuild_active() windows
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;  ///< writes that changed nothing
  double seconds = 0;
  std::uint64_t rebuilds() const { return rebuilds_after_ - rebuilds_before_; }

 private:
  void join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void poll_rebuild() {
    const bool active = store_->rebuild_active();
    if (active && !in_rebuild_) rebuild_start_.start();
    if (!active && in_rebuild_) rebuild_ns.add(rebuild_start_.elapsed_ns());
    in_rebuild_ = active;
  }

  void loop() {
    try {
      write();
    } catch (const std::exception& e) {
      failed += kWriteGroup;
      note_failure(e.what());
    }
    seconds = clock_.elapsed_sec();
    rebuilds_after_ = store_->rebuilds();
  }

  void write() {
    pin_from_last(1);
    const auto writer = store_->writer();
    const double interval_s = static_cast<double>(kWriteGroup) / kWritesPerSec;
    clock_.start();
    std::vector<key_t> inserts(kWriteGroup / 2), erases(kWriteGroup / 2);
    for (std::uint64_t group = 0; !stop_.load(); ++group) {
      const double due = static_cast<double>(group) * interval_s;
      for (double left; (left = due - clock_.elapsed_sec()) > 0 && !stop_.load();) {
        poll_rebuild();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(left, 50e-6)));
      }
      poll_rebuild();
      for (key_t& k : inserts) {
        // A bijection of the counter onto the 2^28 odd write-region keys.
        const std::uint64_t slot = (next_insert_++ * 0x9E3779B1ull) & ((1u << 28) - 1);
        k = static_cast<key_t>(kWriteRegion + 2 * slot + 1);
        live_.push_back(k);
      }
      for (key_t& k : erases) {
        k = live_.front();
        live_.pop_front();
      }
      Scope span(tracer_, "writer.group");
      const WallTimer group_timer;
      std::size_t changed = 0;
      {
        Scope s(tracer_, "writer.insert", span.id());
        changed += writer->insert(inserts);
      }
      {
        Scope s(tracer_, "writer.erase", span.id());
        changed += writer->erase(erases);
      }
      const WallTimer flush_timer;
      {
        Scope s(tracer_, "writer.flush", span.id());
        writer->flush();
      }
      flush_ns.add(flush_timer.elapsed_ns());
      group_ns.add(group_timer.elapsed_ns());
      writes += kWriteGroup;
      failed += kWriteGroup - changed;
    }
  }

  std::shared_ptr<core::Store> store_;
  Tracer& tracer_;
  std::deque<key_t> live_;  ///< live write-region keys, oldest first
  std::uint64_t next_insert_ = 0;
  bool in_rebuild_ = false;
  WallTimer clock_;
  WallTimer rebuild_start_;
  std::uint64_t rebuilds_before_ = 0, rebuilds_after_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it uses
};

// --- Reporting ----------------------------------------------------------------

struct Reported {
  std::string name;
  double value = 0;
  std::vector<double> samples;  ///< per-trial values behind a median
  std::uint64_t count = 0;      ///< latency samples behind a percentile
};

/// The first line of `path` that starts with `prefix` ("" if none).
std::string line_of(const std::string& path, const std::string& prefix = "") {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);)
    if (line.rfind(prefix, 0) == 0) return line;
  return "";
}

/// The host fingerprint, as a JSON object. Call before any pinning.
std::string host_json() {
  std::string cpu = line_of("/proc/cpuinfo", "model name");
  if (const auto colon = cpu.find(": "); colon != std::string::npos)
    cpu = cpu.substr(colon + 2);
  int numa = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/sys/devices/system/node", ec)) {
    const std::string name = e.path().filename().string();
    numa += name.rfind("node", 0) == 0 && name.size() > 4 &&
            std::isdigit(static_cast<unsigned char>(name[4]));
  }
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  JsonWriter w;
  w.begin_object();
  w.key("cpu").value(cpu);
  w.key("nproc").value(std::uint64_t(dici::allowed_cpus().size()));
  w.key("l2").value(line_of(cache + "index2/size"));
  w.key("l3").value(line_of(cache + "index3/size"));
  w.key("numa_nodes").value(std::uint64_t(numa));
  w.end_object();
  return w.str();
}

const char* unit_of(const std::string& name) {
  const MetricDef* def = find_metric(name);
  return def != nullptr ? def->unit : "";
}

/// Human-readable table, the result file, and the last stdout line.
int finish(const RunOptions& o, const Plan& plan, const std::string& host,
           const Tally& tally, const std::vector<Reported>& metrics,
           const std::string& ladder) {
  std::printf("\n%-34s %14s  %-8s %s\n", "metric", "value", "unit",
              "[q1, q3] over samples");
  for (const Reported& m : metrics) {
    std::printf("%-34s %14.4f  %-8s", m.name.c_str(), m.value, unit_of(m.name));
    if (m.samples.size() > 1) {
      const Quartiles q = quartiles(m.samples);
      std::printf(" [%.4f, %.4f] n=%zu", q.q1, q.q3, m.samples.size());
    }
    std::printf("\n");
  }
  std::printf("attempted %llu, failed %llu, wrong %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.wrong));

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dici-bench/1");
  w.key("workload").value(o.spec->name);
  w.key("seed").value(o.seed);
  w.key("trace").value(o.trace);
  w.key("smoke").value(o.smoke);
  w.key("git_sha").value(o.git_sha);
  w.key("host").raw(host);
  w.key("plan").begin_object();
  w.key("key_log2").value(std::uint64_t(plan.key_log2));
  w.key("open_trial_s").value(plan.open_s);
  w.key("closed_trial_s").value(plan.closed_s);
  w.key("builds").value(std::uint64_t(plan.builds));
  w.key("closed_per_build").value(std::uint64_t(plan.closed_per_build));
  w.key("mid_per_build").value(std::uint64_t(plan.mid_per_build));
  w.key("ladder_trials").value(std::uint64_t(plan.ladder_trials));
  w.end_object();
  w.key("correct").value(tally.wrong == 0);
  w.key("attempted").value(tally.attempted);
  w.key("failed").value(tally.failed);
  w.key("wrong").value(tally.wrong);
  w.key("metrics").begin_object();
  for (const Reported& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(unit_of(m.name));
    if (!m.samples.empty()) {
      const Quartiles q = quartiles(m.samples);
      w.key("q1").value(q.q1);
      w.key("q3").value(q.q3);
      w.key("samples").begin_array();
      for (const double s : m.samples) w.value(s);
      w.end_array();
    }
    if (m.count > 0) w.key("count").value(m.count);
    w.end_object();
  }
  w.end_object();
  if (!ladder.empty()) w.key("ladder").raw(ladder);
  w.end_object();

  const std::string path = o.out_dir + "/" + o.spec->name + "-seed" +
                           std::to_string(o.seed) + (o.trace ? "-trace" : "") +
                           ".json";
  const bool wrote = write_file(path, w.str() + "\n");
  if (!wrote) std::fprintf(stderr, "dici_bench: cannot write %s\n", path.c_str());

  // The result line: exactly the metrics BENCHMARK.json lists for this
  // kind of run.
  std::vector<std::string> listed = o.declared.per_layer;
  if (!o.trace) {
    listed.clear();
    for (const auto& [name, bound] : o.declared.bounds) listed.push_back(name);
  }
  JsonWriter line;
  line.begin_object();
  line.key("correct").value(tally.wrong == 0);
  line.key("attempted").value(tally.attempted);
  line.key("failed").value(tally.failed);
  line.key("metrics").begin_object();
  for (const std::string& name : listed) {
    const auto m = std::find_if(metrics.begin(), metrics.end(),
                                [&](const Reported& r) { return r.name == name; });
    if (m == metrics.end()) {
      std::fprintf(stderr, "dici_bench: BENCHMARK.json lists %s, which this run "
                   "did not measure\n", name.c_str());
      return 2;
    }
    line.key(name).begin_object();
    line.key("value").value(m->value);
    line.key("unit").value(unit_of(name));
    line.end_object();
  }
  line.end_object();
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  if (tally.wrong > 0) return 1;
  return wrote ? 0 : 2;
}

Reported median_of(const char* name, std::vector<double> samples) {
  const double value = median(samples);
  return {name, value, std::move(samples), 0};
}

// --- The ladder -----------------------------------------------------------------

struct LadderStep {
  double offered_mqps = 0;
  std::vector<double> p99_us;
  std::vector<double> achieved;
  double median_p99_us = 0;
  double median_achieved = 0;
  bool pass = false;
};

/// The rate at which p99 crosses the SLO: log-linear in p99 between the
/// highest rung that met it and the rung above, which missed (a
/// continuous reading of "the highest ladder rate under the SLO"). Null
/// `met`: even the lowest rung missed; null `missed`: the top rung met
/// the SLO, so it is reported as a floor.
double max_under_slo(const LadderStep* met, const LadderStep* missed) {
  if (missed == nullptr) return met != nullptr ? met->offered_mqps : 0;
  if (met == nullptr)
    return missed->offered_mqps * std::min(1.0, kSloUs / missed->median_p99_us);
  if (missed->median_p99_us <= kSloUs) return met->offered_mqps;  // backlog only
  const double f = std::log(kSloUs / met->median_p99_us) /
                   std::log(missed->median_p99_us / met->median_p99_us);
  return met->offered_mqps + f * (missed->offered_mqps - met->offered_mqps);
}

std::string ladder_json(const std::vector<LadderStep>& steps) {
  JsonWriter w;
  w.begin_array();
  for (const LadderStep& s : steps) {
    w.begin_object();
    w.key("offered_mqps").value(s.offered_mqps);
    w.key("median_p99_us").value(s.median_p99_us);
    w.key("median_achieved_ratio").value(s.median_achieved);
    w.key("pass").value(s.pass);
    w.key("p99_us").begin_array();
    for (const double v : s.p99_us) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  return w.str();
}

std::uint64_t arrival_seed(const RunOptions& o, std::uint64_t trial) {
  return (o.seed << 20) ^ (trial * 0x9e3779b97f4a7c15ull);
}

// --- End-to-end run -------------------------------------------------------------

int run_end_to_end(const RunOptions& o, const Plan& plan, const Inputs& in,
                   const std::string& host) {
  const WorkloadSpec& w = *o.spec;
  Tracer tracer(false);
  Tally tally;

  Summary write_ns;
  const auto stop_writer = [&](std::unique_ptr<WriteLoad>& writer) {
    if (!writer) return;
    writer->stop(tally);
    write_ns.merge(writer->group_ns);
    writer.reset();
  };

  // Each build serves closed-loop and mid-rate trials after a discarded
  // warm-up, so those medians span builds as well as trials: every build
  // places its threads (and, on cluster-tcp, its processes) anew, and
  // some placements are measurably slower than others.
  std::vector<double> setup, mqps, p50, p99, p999;
  std::uint64_t latency_samples = 0, trial_no = 0;
  std::size_t cursor = 0;
  int invalid = 0;
  ClosedLoop closed(in, tally);
  Target target;
  std::unique_ptr<core::Client> client;
  std::unique_ptr<WriteLoad> writer;
  for (int b = 0; b < plan.builds; ++b) {
    stop_writer(writer);  // tear the previous build down outside the timer
    client.reset();
    target = {};
    const WallTimer timer;
    target = build_target(w, false, in.keys);
    setup.push_back(timer.elapsed_sec());
    client = target.connect();
    if (w.skewed_rw) writer = std::make_unique<WriteLoad>(target.store, in.keys, tracer);
    run_pinned([&] {
      closed.run(*client, plan.closed_s / 3, tracer, 0, nullptr);
      for (int i = 0; i < plan.closed_per_build; ++i)
        mqps.push_back(closed.run(*client, plan.closed_s, tracer, 0, nullptr).mqps());
      for (int i = 0; i < plan.mid_per_build; ++i) {
        const OpenTrial t = open_trial(*client, in, &cursor, w.mid_mqps, plan.open_s,
                                       arrival_seed(o, trial_no++), tally, tracer, 0);
        if (!t.ok) continue;
        p50.push_back(t.p50_us);
        p99.push_back(t.p99_us);
        p999.push_back(t.p999_us);
        latency_samples += t.samples;
        invalid += t.gen_lag_ms > kMaxGenLagMs;
      }
    });
  }

  // Binary search over the rungs for the highest one that meets the SLO
  // with no growing backlog: about three rungs probed instead of a scan
  // from the bottom, so each probed rung gets more trials.
  std::vector<LadderStep> ladder;  // in probe order
  int met = -1, missed = static_cast<int>(plan.ladder_steps);
  const LadderStep* met_step = nullptr;
  const LadderStep* missed_step = nullptr;
  ladder.reserve(plan.ladder_steps);
  run_pinned([&] {
    while (missed - met > 1) {
      const int rung = (met + missed) / 2;
      LadderStep step;
      step.offered_mqps = w.ladder_mqps[static_cast<std::size_t>(rung)];
      for (int i = 0; i < plan.ladder_trials; ++i) {
        const OpenTrial t = open_trial(*client, in, &cursor, step.offered_mqps,
                                       plan.open_s, arrival_seed(o, trial_no++),
                                       tally, tracer, 0);
        step.p99_us.push_back(t.ok ? t.p99_us : INFINITY);
        step.achieved.push_back(t.ok ? t.achieved_ratio : 0.0);
      }
      step.median_p99_us = median(step.p99_us);
      step.median_achieved = median(step.achieved);
      step.pass = step.median_p99_us <= kSloUs &&
                  step.median_achieved >= kMinAchievedRatio;
      ladder.push_back(std::move(step));
      (ladder.back().pass ? met_step : missed_step) = &ladder.back();
      (ladder.back().pass ? met : missed) = rung;
    }
  });

  std::vector<Reported> metrics;
  metrics.push_back(median_of("setup_s", setup));
  metrics.push_back(median_of("lookup_mqps", mqps));
  metrics.push_back(median_of("p50_us", p50));
  metrics.push_back(median_of("p99_us", p99));
  metrics.back().count = latency_samples;
  metrics.push_back(
      {"max_mqps_under_slo", max_under_slo(met_step, missed_step), {}, 0});
  stop_writer(writer);
  if (w.skewed_rw)
    metrics.push_back(
        {"write_p99_us", write_ns.percentile(99) / 1e3, {}, write_ns.count()});
  metrics.push_back({"error_rate",
                     tally.attempted ? static_cast<double>(tally.failed) /
                                           static_cast<double>(tally.attempted)
                                     : 0.0,
                     {}, tally.attempted});

  const double p999_median = median(p999);
  std::printf("%s: p999 %.1f us over %llu samples (%llu beyond it); "
              "%d of %d mid-rate trials ran more than %.1f ms late\n",
              w.name, p999_median, static_cast<unsigned long long>(latency_samples),
              static_cast<unsigned long long>(latency_samples / 1000), invalid,
              plan.builds * plan.mid_per_build, kMaxGenLagMs);
  std::printf("%s: ladder", w.name);
  for (const LadderStep& s : ladder)
    std::printf("  %.1f Mqps p99 %.0f us %s", s.offered_mqps, s.median_p99_us,
                s.pass ? "ok" : "MISS");
  std::printf("\n");

  client.reset();
  target = {};
  return finish(o, plan, host, tally, metrics, ladder_json(ladder));
}

// --- Traced run -------------------------------------------------------------------

/// Depth-1 rounds of kBatchKeys queries for `seconds`; each round's
/// latency lands in `during` when a rebuild was running at its submit
/// or completion, else in `steady`.
void rebuild_probe(core::Client& client, const Inputs& in, const core::Store& store,
                   double seconds, Tally& tally, Summary* during, Summary* steady) {
  std::vector<rank_t> ranks;
  std::size_t at = 0;
  const WallTimer timer;
  while (timer.elapsed_sec() < seconds) {
    if (at + kBatchKeys > in.pool.size()) at = 0;
    const bool before = store.rebuild_active();
    const WallTimer round;
    tally.attempted += kBatchKeys;
    try {
      client.wait(client.submit(std::span(in.pool).subspan(at, kBatchKeys), &ranks));
    } catch (const std::exception& e) {
      tally.failed += kBatchKeys;
      note_failure(e.what());
      continue;
    }
    const double ns = round.elapsed_ns();
    (before || store.rebuild_active() ? during : steady)->add(ns);
    tally.wrong += mismatches(in, at, ranks);
    at += kBatchKeys;
  }
}

/// The traced run's measurements, all inside one root span that closes
/// before this returns.
std::vector<Reported> measure_traced(const RunOptions& o, const Plan& plan,
                                     const Inputs& in, Tracer& tracer,
                                     Tally& tally) {
  const WorkloadSpec& w = *o.spec;
  Tracer off(false);
  std::vector<Reported> metrics;
  const Scope root(tracer, "workload");

  // Untraced engine first: the reference throughput for the overhead.
  std::vector<double> untraced;
  {
    Target target;
    {
      Scope span(tracer, "build", root.id());
      target = build_target(w, false, in.keys);
    }
    auto client = target.connect();
    std::unique_ptr<WriteLoad> writer;
    if (w.skewed_rw) writer = std::make_unique<WriteLoad>(target.store, in.keys, off);
    ClosedLoop closed(in, tally);
    run_pinned([&] {
      closed.run(*client, plan.closed_s / 3, off, 0, nullptr);  // warm-up
      for (int i = 0; i < plan.traced_trials; ++i)
        untraced.push_back(closed.run(*client, plan.closed_s, off, 0, nullptr).mqps());
    });
    if (writer) writer->stop(tally);
  }
  if (w.backend == core::Backend::kCluster)
    metrics.push_back(median_of("cluster.closed_mqps", untraced));

  // The same engine with per-query latency stamps and per-call spans.
  CallTimes calls;
  core::RunReport total;
  double closed_seconds = 0;
  std::uint64_t answered = 0;
  std::vector<double> traced;
  Summary engine_latency;
  std::vector<double> lag, achieved;
  std::uint64_t rounds = 0, deadline_rounds = 0, served = 0;
  {
    Target target;
    {
      Scope span(tracer, "build", root.id());
      target = build_target(w, true, in.keys);
    }
    auto client = target.connect();
    std::unique_ptr<WriteLoad> writer;
    if (w.skewed_rw) writer = std::make_unique<WriteLoad>(target.store, in.keys, tracer);
    ClosedLoop closed(in, tally);
    Summary during, steady;  // skew-rw's rebuild probe
    run_pinned([&] {
      closed.run(*client, plan.closed_s / 3, off, 0, nullptr);  // warm-up
      for (int i = 0; i < plan.traced_trials; ++i) {
        Scope span(tracer, "closed_trial", root.id());
        ClosedTrial t = closed.run(*client, plan.closed_s, tracer, span.id(), &calls);
        traced.push_back(t.mqps());
        if (t.answered == 0) continue;
        if (answered == 0)
          total = std::move(t.total);
        else
          total.merge(t.total);
        answered += t.answered;
        closed_seconds += t.seconds;
      }

      std::size_t cursor = 0;
      for (int i = 0; i < plan.traced_trials * plan.mid_per_build; ++i) {
        const OpenTrial t = open_trial(*client, in, &cursor, w.mid_mqps, plan.open_s,
                                       arrival_seed(o, static_cast<std::uint64_t>(i)),
                                       tally, tracer, root.id());
        if (!t.ok) continue;
        engine_latency.merge(t.run.engine_total.latency_ns);
        lag.push_back(t.gen_lag_ms);
        achieved.push_back(t.achieved_ratio);
        rounds += t.run.batches;
        deadline_rounds += t.run.deadline_flushes;
        served += t.run.num_queries;
      }

      if (writer) {
        Scope span(tracer, "rebuild_probe", root.id());
        rebuild_probe(*client, in, *target.store, plan.closed_s, tally, &during,
                      &steady);
      }
    });

    if (writer) {
      writer->stop(tally);
      metrics.push_back(
          {"store.rebuilds_per_s",
           writer->seconds > 0 ? writer->rebuilds() / writer->seconds : 0, {},
           writer->rebuilds()});
      metrics.push_back({"store.rebuild_ms", writer->rebuild_ns.mean() / 1e6, {},
                         writer->rebuild_ns.count()});
      metrics.push_back({"store.flush_us", writer->flush_ns.mean() / 1e3, {},
                         writer->flush_ns.count()});
      metrics.push_back({"store.p99_during_rebuild_us",
                         during.percentile(99) / 1e3, {}, during.count()});
      std::printf("%s: probe rounds p99 %.1f us steady (%zu rounds), %.1f us "
                  "during rebuilds (%zu rounds); writer %.0f writes/s\n",
                  w.name, steady.percentile(99) / 1e3, steady.count(),
                  during.percentile(99) / 1e3, during.count(),
                  writer->seconds > 0 ? writer->writes / writer->seconds : 0.0);
    }
  }

  const double q = answered > 0 ? static_cast<double>(answered) : 1.0;
  double resolver_busy_ns = 0;
  for (std::size_t n = 1; n < total.nodes.size(); ++n)
    resolver_busy_ns += dici::ps_to_ns(total.nodes[n].busy);
  const double messages = std::max<double>(1.0, static_cast<double>(total.messages));
  metrics.push_back(median_of("workload.gen_lag_ms", lag));
  metrics.push_back(median_of("workload.achieved_ratio", achieved));
  metrics.push_back({"batcher.keys_per_round",
                     rounds ? static_cast<double>(served) / rounds : 0, {}, rounds});
  metrics.push_back({"batcher.deadline_share",
                     rounds ? static_cast<double>(deadline_rounds) / rounds : 0, {},
                     rounds});
  metrics.push_back({"core.submit_us", calls.submit_ns.mean() / 1e3, {},
                     calls.submit_ns.count()});
  metrics.push_back(
      {"core.wait_us", calls.wait_ns.mean() / 1e3, {}, calls.wait_ns.count()});
  metrics.push_back({"core.dispatch_ns_per_query",
                     total.nodes.empty() ? 0 : dici::ps_to_ns(total.nodes[0].busy) / q,
                     {}, answered});
  metrics.push_back({"core.messages_per_kquery", total.messages * 1e3 / q, {},
                     total.messages});
  metrics.push_back({"core.worker_idle_fraction", total.slave_idle_fraction, {}, 0});
  metrics.push_back({"core.stolen_share",
                     static_cast<double>(total.stolen_messages) / messages, {},
                     total.stolen_messages});
  metrics.push_back({"core.engine_p50_us", engine_latency.percentile(50) / 1e3, {},
                     engine_latency.count()});
  metrics.push_back({"core.engine_p99_us", engine_latency.percentile(99) / 1e3, {},
                     engine_latency.count()});
  metrics.push_back({"index.resolve_ns_per_query", resolver_busy_ns / q, {}, answered});
  metrics.push_back({"net.wire_bytes_per_query",
                     static_cast<double>(total.wire_bytes) / q, {}, answered});
  metrics.push_back(
      {"cluster.node_busy_share",
       closed_seconds > 0 ? resolver_busy_ns / 1e9 / (w.workers * closed_seconds) : 0,
       {}, 0});
  if (w.backend == core::Backend::kCluster) {
    metrics.push_back({"cluster.retries", static_cast<double>(total.retries), {}, 0});
    metrics.push_back(
        {"cluster.failovers", static_cast<double>(total.failovers), {}, 0});
  }
  metrics.push_back({"trace.overhead_share", 1.0 - median(traced) / median(untraced),
                     {}, 0});

  LayerInputs layer_in;
  layer_in.keys = in.keys;
  layer_in.queries =
      std::span(in.pool).first(std::min<std::size_t>(in.pool.size(), 1u << 20));
  layer_in.shards = w.workers;
  const core::ExperimentConfig config = config_for(w, false);
  layer_in.kernel = config.kernel;
  layer_in.message_keys =
      std::max<std::size_t>(1, static_cast<std::size_t>(q / messages));
  layer_in.batch_bytes = config.batch_bytes;
  layer_in.max_delta_keys = config.max_delta_keys;
  layer_in.budget_s = plan.layer_budget_s;
  {
    Scope span(tracer, "isolated", root.id());
    for (const LayerValue& v : isolated_layers(layer_in, tracer, span.id()))
      metrics.push_back({v.name, v.value, {}, 0});
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const Reported& a, const Reported& b) { return a.name < b.name; });
  return metrics;
}

int run_traced(const RunOptions& o, const Plan& plan, const Inputs& in,
               const std::string& host) {
  Tracer tracer(true);
  Tally tally;
  const std::vector<Reported> metrics = measure_traced(o, plan, in, tracer, tally);
  const std::string trace_path = o.out_dir + "/trace-" + o.spec->name + ".json";
  if (!write_file(trace_path, tracer.to_json(o.spec->name, o.seed)))
    std::fprintf(stderr, "dici_bench: cannot write %s\n", trace_path.c_str());
  return finish(o, plan, host, tally, metrics, "");
}

}  // namespace

int run_workload(const RunOptions& o) {
  const Plan plan = plan_for(o);
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  std::printf("dici_bench %s seed %llu: %s run, 2^%u keys, %.2f s open-loop "
              "trials\n",
              o.spec->name, static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "end-to-end", plan.key_log2, plan.open_s);
  std::fflush(stdout);
  const Inputs in = make_inputs(*o.spec, plan.key_log2, plan.pool, o.seed);
  const std::string host = host_json();
  return o.trace ? run_traced(o, plan, in, host)
                 : run_end_to_end(o, plan, in, host);
}

}  // namespace bench
