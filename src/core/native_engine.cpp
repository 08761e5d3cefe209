#include "src/core/native_engine.hpp"

#include <thread>

#include "src/core/dispatch.hpp"

#include "src/index/batched_search.hpp"
#include "src/index/buffered.hpp"
#include "src/index/eytzinger.hpp"
#include "src/index/partitioner.hpp"
#include "src/index/static_tree.hpp"
#include "src/net/blocking_queue.hpp"
#include "src/util/affinity.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {

namespace {

/// The wall-clock RunReport both run paths return. No
/// normalize_replicated division here: the simulator measures A/B on ONE
/// node and credits a free dispatcher by dividing, whereas the native
/// engine runs num_nodes real worker threads — its wall time already IS
/// the whole-cluster makespan.
RunReport wall_report(const NativeConfig& config, std::size_t num_queries,
                      double seconds, std::uint64_t messages) {
  RunReport report;
  report.method = config.method;
  report.num_queries = num_queries;
  report.num_nodes = config.num_nodes;
  report.batch_bytes = config.batch_bytes;
  report.raw_makespan = ns_to_ps(seconds * 1e9);
  report.makespan = report.raw_makespan;
  report.messages = messages;
  return report;
}

}  // namespace

NativeCluster::NativeCluster(const NativeConfig& config) : config_(config) {
  DICI_CHECK(config_.num_nodes >= 1);
  DICI_CHECK(config_.batch_bytes >= sizeof(key_t));
}

RunReport NativeCluster::run(std::span<const key_t> index_keys,
                             std::span<const key_t> queries,
                             std::vector<rank_t>* out_ranks) const {
  DICI_CHECK(!index_keys.empty());
  if (out_ranks != nullptr) out_ranks->assign(queries.size(), 0);
  return is_distributed(config_.method)
             ? run_distributed(index_keys, queries, out_ranks)
             : run_replicated(index_keys, queries, out_ranks);
}

// Methods A/B natively: N workers share the (replicated-in-spirit,
// physically shared read-only) tree, each owning a contiguous slice of
// the query stream — the zero-overhead load balancer the paper credits.
RunReport NativeCluster::run_replicated(std::span<const key_t> index_keys,
                                        std::span<const key_t> queries,
                                        std::vector<rank_t>* out_ranks) const {
  const index::TreeConfig tree_cfg{config_.tree_node_bytes,
                                   index::TreeLayout::kExplicitPointers};
  const index::StaticTree tree(index_keys, tree_cfg);
  const std::uint32_t workers = config_.num_nodes;
  std::vector<rank_t> sink(out_ranks == nullptr ? queries.size() : 0);
  rank_t* out = out_ranks != nullptr ? out_ranks->data() : sink.data();

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      if (config_.pin_threads) pin_current_thread(static_cast<int>(w));
      const std::size_t begin = queries.size() * w / workers;
      const std::size_t end = queries.size() * (w + 1) / workers;
      if (config_.method == Method::kA) {
        for (std::size_t i = begin; i < end; ++i)
          out[i] = tree.lookup(queries[i]);
      } else {
        sim::NullProbe probe;
        index::BufferedConfig buf_cfg;
        buf_cfg.target_cache_bytes = config_.buffered_target_bytes;
        buf_cfg.buffer_fraction = config_.buffer_fraction;
        index::BufferedResults results;
        std::vector<index::BufferedItem> items;
        for (const auto& [b, e] :
             workload::batch_ranges(end - begin, config_.batch_bytes)) {
          items.clear();
          for (std::size_t i = begin + b; i < begin + e; ++i)
            items.push_back({queries[i], static_cast<std::uint32_t>(i)});
          results.clear();
          index::buffered_lookup(
              tree, std::span<const index::BufferedItem>(items), buf_cfg,
              probe, results);
          for (const auto& [id, rank] : results) out[id] = rank;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return wall_report(config_, queries.size(), timer.elapsed_sec(), 0);
}

// Method C natively: a master thread routes batches into per-slave
// queues; slave threads resolve them against their cache-sized partition
// and scatter results straight into the output array (the "dispatch to
// the target" step — no reply hop needed in shared memory).
RunReport NativeCluster::run_distributed(std::span<const key_t> index_keys,
                                         std::span<const key_t> queries,
                                         std::vector<rank_t>* out_ranks) const {
  DICI_CHECK_MSG(config_.num_nodes >= 2,
                 "Method C needs a master and at least one slave");
  const std::uint32_t S = config_.num_nodes - 1;
  const index::RangePartitioner partitioner(index_keys, S);

  std::vector<net::BlockingQueue<DispatchBatch>> queues(S);
  std::vector<rank_t> sink(out_ranks == nullptr ? queries.size() : 0);
  rank_t* out = out_ranks != nullptr ? out_ranks->data() : sink.data();
  std::uint64_t messages = 0;

  WallTimer timer;
  std::vector<std::thread> slaves;
  slaves.reserve(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    slaves.emplace_back([&, s] {
      if (config_.pin_threads) pin_current_thread(static_cast<int>(s + 1));
      const auto part = partitioner.keys_of(s);
      const rank_t offset = partitioner.start_of(s);
      // C-3 resolves whole batches through the configured search kernel;
      // the BFS copy is laid out once, before the stream starts, when an
      // eytzinger kernel asks for it.
      std::unique_ptr<index::EytzingerLayout> layout;
      if (config_.method == Method::kC3 &&
          kernel_layout(config_.kernel) == KeyLayout::kEytzinger)
        layout = std::make_unique<index::EytzingerLayout>(part);
      std::vector<rank_t> local;
      // C-1/C-2 build a tree over the partition instead.
      std::unique_ptr<index::StaticTree> tree;
      index::BufferedConfig buf_cfg;
      if (config_.method != Method::kC3) {
        const index::TreeConfig tree_cfg{
            config_.tree_node_bytes,
            config_.method == Method::kC1
                ? index::TreeLayout::kCsbFirstChild
                : index::TreeLayout::kExplicitPointers};
        tree = std::make_unique<index::StaticTree>(part, tree_cfg);
        buf_cfg.target_cache_bytes = config_.buffered_target_bytes;
        buf_cfg.buffer_fraction = config_.buffer_fraction;
      }
      sim::NullProbe probe;
      index::BufferedResults results;
      std::vector<index::BufferedItem> items;
      while (auto batch = queues[s].pop()) {
        switch (config_.method) {
          case Method::kC1:
            for (std::size_t j = 0; j < batch->keys.size(); ++j)
              out[batch->ids[j]] = offset + tree->lookup(batch->keys[j]);
            break;
          case Method::kC2: {
            items.clear();
            for (std::size_t j = 0; j < batch->keys.size(); ++j)
              items.push_back(
                  {batch->keys[j], static_cast<std::uint32_t>(j)});
            results.clear();
            index::buffered_lookup(
                *tree, std::span<const index::BufferedItem>(items), buf_cfg,
                probe, results);
            for (const auto& [id, rank] : results)
              out[batch->ids[id]] = offset + rank;
            break;
          }
          default:
            // One kernel call per message (the interleaved kernel keeps
            // several misses in flight), then the id scatter.
            local.resize(batch->keys.size());
            index::resolve_batch(config_.kernel, part, layout.get(),
                                 batch->keys, local.data());
            for (std::size_t j = 0; j < batch->keys.size(); ++j)
              out[batch->ids[j]] = offset + local[j];
            break;
        }
      }
    });
  }

  // Master: route in rounds of batch_bytes, flushing per-slave batches.
  // It gets its own thread, pinned like the slaves: pinning the caller
  // instead would leak a one-CPU mask into every fleet it builds later.
  std::thread master([&] {
    if (config_.pin_threads) pin_current_thread(0);
    messages = dispatch_master_rounds(
        queries, config_.batch_bytes, S,
        [&](key_t q) { return partitioner.route(q); },
        [&](std::uint32_t s, DispatchBatch&& batch) {
          queues[s].push(std::move(batch));
        });
    for (auto& q : queues) q.close();
  });
  master.join();
  for (auto& t : slaves) t.join();
  return wall_report(config_, queries.size(), timer.elapsed_sec(), messages);
}

}  // namespace dici::core
