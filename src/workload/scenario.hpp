// Scenario matrix: one instrument, many systematically varied setups.
//
// The merger-survey discipline applied to this system: instead of ad-hoc
// one-off experiments, a ScenarioSpec declares a workload shape
// (distribution, sizes, batching, method) once, a registry collects the
// named specs, and run_scenario_matrix drives the cross product
// scenario x backend through the v2 Engine API — one built index, one
// client pipelining `in_flight` query batches through submit/wait —
// verifying every rank against workload::reference_ranks and emitting
// one machine-readable summary.
// Every future backend (NUMA, remote) and every future workload plugs
// into this matrix and is measured the same way.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/util/types.hpp"
#include "src/workload/open_loop.hpp"

namespace dici::workload {

/// Query stream shapes. Uniform/zipf stress throughput and skewed load
/// balance; hotspot concentrates traffic on a narrow key window (one
/// overloaded slave); sorted-ascending sweeps the key space in order
/// (worst case for range-partition locality churn); adversarial-boundary
/// aims every query at index keys and their neighbours, 0, and the key
/// maximum, pinning the upper_bound edge ranks and the partition
/// delimiter seams.
enum class Distribution {
  kUniform,
  kZipf,
  kHotspot,
  kSortedAscending,
  kAdversarialBoundary,
};

/// All five shapes, in declaration order — the matrix's workload axis.
std::span<const Distribution> all_distributions();

const char* distribution_name(Distribution d);

/// Parse "uniform" | "zipf" | "hotspot" | "sorted-ascending" |
/// "adversarial-boundary"; returns false on anything else.
bool parse_distribution(const std::string& name, Distribution* out);

/// One declarative cell recipe: everything needed to reproduce a
/// workload and run it through a backend, with a stable name for
/// reports.
struct ScenarioSpec {
  std::string name;
  Distribution distribution = Distribution::kUniform;
  std::size_t index_keys = 1u << 15;
  std::size_t num_queries = 1u << 15;
  /// The query stream is sliced into this many Client::submit calls
  /// (the streaming axis; >= 1).
  std::size_t stream_batches = 4;
  /// Dispatcher round size inside the engines (Figure 3's x-axis).
  std::uint64_t batch_bytes = 8 * KiB;
  core::Method method = core::Method::kC3;
  std::uint32_t num_nodes = 5;
  std::uint64_t seed = 20050501;

  // Distribution-specific knobs (ignored by the others).
  double zipf_s = 1.1;
  std::size_t zipf_buckets = 0;  ///< 0 = one bucket per slave
  double hot_fraction = 0.9;     ///< share of queries inside the hot window
  double hot_width = 1.0 / 64;   ///< hot window width as key-space fraction

  // Open-loop serving knobs (open_loop.hpp / serving.hpp). kClosed (the
  // default) is the classic submit-wait matrix; a spec with kPoisson or
  // kBursty declares WHEN its queries arrive too, and is replayed by
  // workload::run_open_loop at offered_qps (serving_config_from turns
  // the spec into a ServingConfig). run_scenario_matrix stays
  // closed-loop either way — the arrival axis belongs to
  // bench_response_time's latency-vs-load sweep.
  ArrivalProcess arrival = ArrivalProcess::kClosed;
  double offered_qps = 0;  ///< long-run arrival rate when open loop
};

/// The spec's index: `index_keys` sorted unique draws from Rng(seed).
std::vector<key_t> make_scenario_index(const ScenarioSpec& spec);

/// Generate the spec's query stream (deterministic for a given spec:
/// same seed => byte-identical stream; the query Rng is salted so the
/// stream is decorrelated from the index draws). `index_keys` is
/// consulted by the adversarial-boundary shape only.
std::vector<key_t> make_scenario_queries(const ScenarioSpec& spec,
                                         std::span<const key_t> index_keys);

// The individual generators behind make_scenario_queries (uniform and
// zipf live in workload.hpp). Tested directly for shape and determinism.

/// `hot_fraction` of the queries fall in a window of `hot_width` *
/// 2^32 keys whose position is drawn from `rng`; the rest are uniform.
std::vector<key_t> make_hotspot_queries(std::size_t n, double hot_fraction,
                                        double hot_width, Rng& rng);

/// Uniform draws sorted ascending — the full key-space sweep.
std::vector<key_t> make_sorted_ascending_queries(std::size_t n, Rng& rng);

/// Every query is an index key or its immediate neighbour (k-1, k, k+1),
/// except queries 0 and 1 which are pinned to key 0 and the key-space
/// maximum — so the stream always exercises both documented edge ranks:
/// 0 (query below the smallest key, when it is > 0) and n (query >= the
/// largest key).
std::vector<key_t> make_adversarial_boundary_queries(
    std::size_t n, std::span<const key_t> index_keys, Rng& rng);

/// Named collection of specs; names are unique (DICI_CHECK).
class ScenarioRegistry {
 public:
  void add(ScenarioSpec spec);
  const std::vector<ScenarioSpec>& specs() const { return specs_; }
  /// nullptr when no spec has that name.
  const ScenarioSpec* find(const std::string& name) const;

 private:
  std::vector<ScenarioSpec> specs_;
};

/// The default matrix: one spec per distribution at the given scale,
/// named after its distribution.
ScenarioRegistry default_scenarios(std::size_t index_keys,
                                   std::size_t num_queries);

/// One scenario x backend x kernel x placement cell of the matrix run.
struct ScenarioCell {
  std::string scenario;
  Distribution distribution{};
  std::string backend;
  /// Search kernel the cell's config carried (search_kernel_name).
  std::string kernel;
  /// Shard placement the cell's config carried (placement_name). The
  /// parallel-native and cluster backends act on it; other backends run
  /// one cell at the first requested placement.
  std::string placement;
  /// How the cell's frames moved (net::transport_name) for cluster
  /// cells; "-" for backends that never serialize a frame.
  std::string transport = "-";
  std::uint64_t stream_batches = 0;
  std::uint64_t in_flight = 1;  ///< submit-ahead depth the cell ran with
  std::uint64_t num_queries = 0;
  /// Write mix the cell ran at (MatrixOptions::write_fractions). 0 =
  /// the classic read-only cell over an immutable Index; > 0 routes
  /// reads through a core::Store with an interleaved write stream.
  double write_fraction = 0;
  std::uint64_t writes = 0;  ///< insert+erase ops interleaved with reads
  bool verified = false;      ///< ranks were checked against the reference
  bool ranks_ok = false;      ///< every rank matched (true when !verified)
  std::uint64_t mismatches = 0;
  /// Summed per-batch makespan (virtual time for sim). At in_flight > 1
  /// batches overlap, so this exceeds elapsed wall time (see
  /// MatrixOptions::in_flight).
  double seconds = 0;
  double per_key_ns = 0;
  double throughput_qps = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
};

struct MatrixOptions {
  std::vector<core::Backend> backends = {core::kAllBackends.begin(),
                                         core::kAllBackends.end()};
  /// Check every rank of every batch against reference_ranks.
  bool verify = true;
  /// Search kernels swept per backend (the kernel axis). Parallel-native
  /// and the cluster switch their C-3 slave code per kernel; the simulator's
  /// cost model abstracts comparator behaviour, so its kernel cells
  /// verify that the answer is invariant, not that timing moves.
  std::vector<core::SearchKernel> kernels = {core::kDefaultSearchKernel};
  /// Shard placements swept per kernel (the placement axis).
  /// Parallel-native lays shards out per NUMA node and the cluster
  /// backend assigns shard replicas to nodes, so those two sweep the
  /// axis; the simulator runs one cell (at the first placement)
  /// instead of duplicating identical runs. Every placement cell is
  /// rank-verified like any other, pinning the "placement moves bytes,
  /// never answers" invariant.
  std::vector<core::Placement> placements = {core::Placement::kInterleave};
  /// Frame transport cluster cells run over (socket | fork | tcp — the
  /// last two spawn real dici_node processes); the other backends never
  /// serialize a frame and ignore it.
  net::TransportKind transport = net::TransportKind::kSocket;
  /// Forced NUMA node count for the native engines' topology (0 =
  /// discover the host). CI sets this > 1 so single-node runners still
  /// execute every placement and same-node-first stealing path.
  std::uint32_t numa_nodes = 0;
  /// Read/write mixes swept per placement (the v3 write-path axis).
  /// 0 keeps the classic read-only cell: Engine::build + Index
  /// ::connect, expectations precomputed once. A fraction > 0 runs the
  /// SAME query stream through a core::Store instead: before each
  /// submitted batch the harness draws writes_for_reads() writes,
  /// pushes them through a Writer (and a LiveSetReference mirror),
  /// flushes, and prices that batch's expected ranks from the mirror
  /// at submit time — so verification is exact regardless of when the
  /// store's background rebuild publishes a folded generation.
  std::vector<double> write_fractions = {0.0};
  /// Batches kept in flight per client (clamped to >= 1): each cell
  /// submits up to this many batches ahead before waiting the oldest,
  /// exercising the async pipeline on backends that have one. NOTE on
  /// timing: ScenarioCell::seconds sums per-batch makespans (merge's
  /// sequential semantics); at depth > 1 in-flight batches overlap, so
  /// the sum exceeds elapsed wall time — depth 1 (the default) keeps
  /// the timing honest and comparable across backends, depth > 1 is
  /// for exercising/verifying the pipeline (bench_multiclient is the
  /// wall-clock instrument for pipelined throughput).
  std::size_t in_flight = 1;
};

/// Drive the cross product: for each spec, build the index and query
/// stream once, then for each (backend, kernel, placement) connect one
/// client and pipeline the batches through submit/wait at
/// options.in_flight depth. kParallelNative and kCluster cells are
/// skipped for specs whose method is not C-3 (both shard sorted arrays
/// only); backends without a placement axis run the first placement
/// only. Returns one cell per (spec, backend, kernel, placement)
/// actually run, in spec-major order.
std::vector<ScenarioCell> run_scenario_matrix(const ScenarioRegistry& registry,
                                              const MatrixOptions& options);

/// True iff every verified cell's ranks matched.
bool all_cells_ok(std::span<const ScenarioCell> cells);

/// Machine-readable summary: a JSON array of cell objects, stable field
/// order, newline-terminated — CI uploads this as the run artifact.
std::string matrix_to_json(std::span<const ScenarioCell> cells);

}  // namespace dici::workload
