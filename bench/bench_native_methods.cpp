// AB5 — Native kernels on THIS host (google-benchmark).
//
// The cluster-scale results come from the simulator; these microbenches
// sanity-check the real data structures on real hardware: sorted-array
// binary search vs explicit-pointer tree vs CSB+ tree vs buffered batch
// traversal, plus the threaded Method C-3 end-to-end path.
#include <benchmark/benchmark.h>

#include <map>

#include "src/core/engine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/index/batched_search.hpp"
#include "src/index/buffered.hpp"
#include "src/index/eytzinger.hpp"
#include "src/index/fast_search.hpp"
#include "src/index/partitioner.hpp"
#include "src/index/sorted_array.hpp"
#include "src/index/static_tree.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload.hpp"

namespace dici {
namespace {

struct Data {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
};

const Data& data(std::size_t n) {
  static std::map<std::size_t, Data> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(n);
    Data d;
    d.keys = workload::make_sorted_unique_keys(n, rng);
    d.queries = workload::make_uniform_queries(1 << 16, rng);
    it = cache.emplace(n, std::move(d)).first;
  }
  return it->second;
}

void BM_SortedArrayLookup(benchmark::State& state) {
  const auto& d = data(static_cast<std::size_t>(state.range(0)));
  const index::SortedArrayIndex idx(d.keys);
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.upper_bound_rank(d.queries[qi]));
    qi = (qi + 1) % d.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SortedArrayLookup)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18)
    ->Arg(1 << 21);

template <index::TreeLayout Layout>
void BM_TreeLookup(benchmark::State& state) {
  const auto& d = data(static_cast<std::size_t>(state.range(0)));
  const index::StaticTree tree(d.keys, {64, Layout, 4});
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.lookup(d.queries[qi]));
    qi = (qi + 1) % d.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeLookup<index::TreeLayout::kExplicitPointers>)
    ->Arg(1 << 15)->Arg(1 << 18)->Arg(1 << 21);
BENCHMARK(BM_TreeLookup<index::TreeLayout::kCsbFirstChild>)
    ->Arg(1 << 15)->Arg(1 << 18)->Arg(1 << 21);

void BM_BufferedBatch(benchmark::State& state) {
  const auto& d = data(1 << 21);
  const index::StaticTree tree(
      d.keys, {64, index::TreeLayout::kExplicitPointers, 4});
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<index::BufferedItem> items;
  for (std::size_t i = 0; i < batch; ++i)
    items.push_back({d.queries[i % d.queries.size()],
                     static_cast<std::uint32_t>(i)});
  index::BufferedConfig cfg;
  cfg.target_cache_bytes = 256 * 1024;
  sim::NullProbe probe;
  index::BufferedResults results;
  for (auto _ : state) {
    results.clear();
    index::buffered_lookup(
        tree, std::span<const index::BufferedItem>(items), cfg, probe,
        results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BufferedBatch)->Arg(1 << 11)->Arg(1 << 14)->Arg(1 << 16);

void BM_BranchlessUpperBound(benchmark::State& state) {
  const auto& d = data(static_cast<std::size_t>(state.range(0)));
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index::branchless_upper_bound(d.keys, d.queries[qi]));
    qi = (qi + 1) % d.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchlessUpperBound)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18)
    ->Arg(1 << 21);

void BM_EytzingerLookup(benchmark::State& state) {
  const auto& d = data(static_cast<std::size_t>(state.range(0)));
  const index::EytzingerLayout layout(d.keys);
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index::eytzinger_upper_bound(layout, d.queries[qi]));
    qi = (qi + 1) % d.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EytzingerLookup)->Arg(1 << 15)->Arg(1 << 18)->Arg(1 << 21);

// The interleaved kernel is measured per-message (the shape the worker
// loop feeds it), not per-lookup: W lockstep searches only overlap
// their misses when the batch is there to interleave.
void BM_BatchedEytzinger(benchmark::State& state) {
  const auto& d = data(static_cast<std::size_t>(state.range(0)));
  const index::EytzingerLayout layout(d.keys);
  const std::size_t batch = 1 << 12;
  std::vector<rank_t> out(batch);
  std::size_t qi = 0;
  for (auto _ : state) {
    const std::span<const key_t> slice(
        d.queries.data() + qi, std::min(batch, d.queries.size() - qi));
    index::resolve_batch(index::SearchKernel::kBatchedEytzinger, d.keys,
                         &layout, slice, out.data());
    benchmark::DoNotOptimize(out.data());
    qi = (qi + batch < d.queries.size()) ? qi + batch : 0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchedEytzinger)->Arg(1 << 15)->Arg(1 << 18)->Arg(1 << 21);

// End-to-end Method C-3 through the unified Engine seam on
// ParallelNativeEngine: each iteration builds the index (worker spawn
// included), serves one batch and tears it down
// (bench_parallel_scaling sweeps the curve in depth).
void BM_EngineC3EndToEnd(benchmark::State& state) {
  const auto& d = data(1 << 20);
  core::ExperimentConfig cfg;
  cfg.method = core::Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.batch_bytes = 64 * 1024;
  const auto engine = core::make_engine(core::Backend::kParallelNative, cfg);
  for (auto _ : state) {
    const auto report = engine->run(d.keys, d.queries, nullptr);
    benchmark::DoNotOptimize(report.makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(d.queries.size()));
}
BENCHMARK(BM_EngineC3EndToEnd)->Arg(2)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_RoutePartitioner(benchmark::State& state) {
  const auto& d = data(1 << 20);
  const index::RangePartitioner part(
      d.keys, static_cast<std::uint32_t>(state.range(0)));
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.route(d.queries[qi]));
    qi = (qi + 1) % d.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutePartitioner)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace dici

BENCHMARK_MAIN();
