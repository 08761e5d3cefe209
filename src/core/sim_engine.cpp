#include "src/core/sim_engine.hpp"

#include <algorithm>
#include <memory>

#include "src/index/buffered.hpp"
#include "src/index/delta.hpp"
#include "src/index/partitioner.hpp"
#include "src/index/sorted_array.hpp"
#include "src/index/static_tree.hpp"
#include "src/net/link.hpp"
#include "src/net/sim_network.hpp"
#include "src/sim/address_space.hpp"
#include "src/sim/probe.hpp"
#include "src/util/assert.hpp"
#include "src/workload/workload.hpp"

namespace dici::core {

const char* method_name(Method method) {
  switch (method) {
    case Method::kA: return "A";
    case Method::kB: return "B";
    case Method::kC1: return "C-1";
    case Method::kC2: return "C-2";
    case Method::kC3: return "C-3";
  }
  return "?";
}

const char* flush_policy_name(FlushPolicy policy) {
  switch (policy) {
    case FlushPolicy::kMasterRound: return "master-round";
    case FlushPolicy::kPerSlaveThreshold: return "per-slave-threshold";
  }
  return "?";
}

SimCluster::SimCluster(const ExperimentConfig& config) : config_(config) {
  validate(config_);
}

RunReport SimCluster::run_once(std::span<const key_t> index_keys,
                               std::span<const key_t> queries,
                               std::vector<rank_t>* out_ranks) const {
  DICI_CHECK(!index_keys.empty());
  if (out_ranks != nullptr) out_ranks->assign(queries.size(), 0);
  return is_distributed(config_.method)
             ? run_distributed(index_keys, queries, out_ranks)
             : run_replicated(index_keys, queries, out_ranks);
}

namespace {

class SimIndex;

/// The simulator's client: each submission is one full simulated run
/// over the shared key array, resolved synchronously (virtual time, not
/// wall time, is the product — there is nothing to pipeline). run_once
/// is const and self-contained, so many clients may share one SimIndex
/// from different threads.
class SimClient : public Client {
 public:
  SimClient(std::shared_ptr<const Index> index, const SimCluster* cluster)
      : Client(std::move(index)), cluster_(cluster) {}

  const char* backend() const override { return backend_name(Backend::kSim); }

 private:
  std::unique_ptr<Completion> do_submit(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) override {
    // options.queued_ns (real pre-submit wall-clock wait) is ignored:
    // the simulator's latency axis is VIRTUAL time from its cost model,
    // and mixing measured wall nanoseconds into it would corrupt the
    // model.
    RunReport report = cluster_->run_once(index().keys(), queries, out_ranks);
    // Delta merge as a post-pass (rank correction only — the simulated
    // cost model does not yet charge the delta probe's cache lines).
    if (options.delta != nullptr && out_ranks != nullptr)
      options.delta->correct(queries, out_ranks->data());
    return std::make_unique<ImmediateCompletion>(std::move(report));
  }

  const SimCluster* cluster_;  // owned by the SimIndex
};

/// The simulator's index: the shared key array plus a config copy (so
/// the index outlives the engine that built it).
class SimIndex : public Index {
 public:
  SimIndex(const ExperimentConfig& config, std::span<const key_t> index_keys)
      : Index(index_keys), cluster_(config) {}

  const char* backend() const override { return backend_name(Backend::kSim); }

 private:
  std::unique_ptr<Client> do_connect(
      std::shared_ptr<const Index> self) const override {
    return std::make_unique<SimClient>(std::move(self), &cluster_);
  }

  SimCluster cluster_;
};

}  // namespace

std::shared_ptr<const Index> SimCluster::build(
    std::span<const key_t> index_keys) const {
  return std::make_shared<const SimIndex>(config_, index_keys);
}

namespace {

void fill_node_report(NodeReport& report, const sim::MemoryProbe& probe) {
  report.busy = probe.charged();
  report.charges = probe.breakdown();
  report.l1 = probe.l1_stats();
  report.l2 = probe.l2_stats();
  report.tlb = probe.tlb_stats();
}

}  // namespace

// ---------------------------------------------------------------------------
// Methods A and B: the paper measures them on a single node over the whole
// query stream and divides by the cluster size, crediting a zero-overhead
// load balancer (Sec. 4.1). We reproduce that protocol exactly.
// ---------------------------------------------------------------------------
RunReport SimCluster::run_replicated(std::span<const key_t> index_keys,
                                     std::span<const key_t> queries,
                                     std::vector<rank_t>* out_ranks) const {
  sim::AddressSpace space(config_.machine.l2.line_bytes);
  const index::TreeConfig tree_cfg = config_.replicated_tree();
  const index::StaticTree tree(index_keys, tree_cfg, &space);
  sim::MemoryProbe probe(config_.machine, config_.pollute_streams);

  const sim::laddr_t query_base =
      space.allocate(queries.size() * sizeof(key_t));
  const sim::laddr_t result_base =
      space.allocate(queries.size() * sizeof(rank_t));

  Summary latency_ns;
  if (config_.method == Method::kA) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const picos_t read_at = probe.charged();
      probe.stream_read(query_base + i * sizeof(key_t), sizeof(key_t));
      const rank_t rank = tree.lookup(queries[i], probe);
      probe.stream_write(result_base + i * sizeof(rank_t), sizeof(rank_t));
      if (out_ranks != nullptr) (*out_ranks)[i] = rank;
      if (config_.track_latency)
        latency_ns.add(ps_to_ns(probe.charged() - read_at));
    }
  } else {
    DICI_CHECK(config_.method == Method::kB);
    index::BufferedConfig buf_cfg;
    buf_cfg.target_cache_bytes = config_.machine.l2.size_bytes;
    buf_cfg.buffer_fraction = config_.buffer_fraction;
    buf_cfg.scratch_bytes = 2 * config_.batch_bytes;
    buf_cfg.scratch_base = space.allocate(buf_cfg.scratch_bytes);

    index::BufferedResults results;
    std::vector<index::BufferedItem> items;
    for (const auto& [begin, end] :
         workload::batch_ranges(queries.size(), config_.batch_bytes)) {
      items.clear();
      for (std::size_t i = begin; i < end; ++i)
        items.push_back({queries[i], static_cast<std::uint32_t>(i)});
      const picos_t batch_start = probe.charged();
      probe.stream_read(query_base + begin * sizeof(key_t),
                        (end - begin) * sizeof(key_t));
      results.clear();
      index::buffered_lookup(tree, std::span<const index::BufferedItem>(items),
                             buf_cfg, probe, results);
      if (out_ranks != nullptr)
        for (const auto& [id, rank] : results) (*out_ranks)[id] = rank;
      if (config_.track_latency) {
        // Every key in the batch waits from the batch's start until the
        // whole buffered pass completes.
        const double wait = ps_to_ns(probe.charged() - batch_start);
        for (std::size_t i = begin; i < end; ++i) latency_ns.add(wait);
      }
    }
  }

  RunReport report;
  report.method = config_.method;
  report.num_queries = queries.size();
  report.num_nodes = config_.num_nodes;
  report.batch_bytes = config_.batch_bytes;
  report.raw_makespan = probe.charged();
  report.makespan = config_.normalize_replicated
                        ? report.raw_makespan / config_.num_nodes
                        : report.raw_makespan;
  report.nodes.resize(1);
  fill_node_report(report.nodes[0], probe);
  report.nodes[0].finish = report.raw_makespan;
  report.nodes[0].queries = queries.size();
  report.latency_ns = std::move(latency_ns);
  return report;
}

// ---------------------------------------------------------------------------
// Method C: master + slaves over the virtual network.
//
// The master ingests the query stream in rounds of batch_bytes. Within a
// round each key is routed through the delimiter array into the staging
// buffer of its slave; at the end of the round every non-empty staging
// buffer goes out as one message (MPI_Isend — the NIC drains it while the
// master keeps routing). Slaves process messages in arrival order and
// send one result message back per batch; the run completes when the
// master has routed everything and every result message has landed.
// ---------------------------------------------------------------------------
// With multiple masters (Sec. 3.2's overload remedy) the query stream is
// split evenly; each master owns a replica of the delimiter array and its
// own NIC, and slaves serve batches from all masters in arrival order.
RunReport SimCluster::run_distributed(std::span<const key_t> index_keys,
                                      std::span<const key_t> queries,
                                      std::vector<rank_t>* out_ranks) const {
  const std::uint32_t M = config_.num_masters;
  const std::uint32_t S = config_.num_slaves();
  DICI_CHECK(M >= 1);
  DICI_CHECK_MSG(config_.num_nodes > M, "Method C needs at least one slave");
  const arch::MachineSpec& machine = config_.machine;
  const picos_t msg_overhead = ns_to_ps(machine.msg_cpu_overhead_us * 1e3);

  net::SimNetwork network(config_.num_nodes, net::LinkModel(machine));
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;

  // --- Slave state ----------------------------------------------------------
  // The partitions are defined once; each master replicates only the
  // delimiters. Node ids: masters are 0..M-1, slave s is M+s. Slave s
  // owns partition s; with fewer keys than slaves the surplus idle.
  const std::uint32_t P = index::clamp_parts(S, index_keys.size());
  const index::RangePartitioner partitioner(index_keys, P);
  struct Slave {
    sim::AddressSpace space;
    std::unique_ptr<sim::MemoryProbe> probe;
    std::unique_ptr<index::StaticTree> tree;          // C-1 / C-2
    std::unique_ptr<index::SortedArrayIndex> array;   // C-3
    index::BufferedConfig buf_cfg;                    // C-2
    sim::laddr_t recv_base = 0;
    sim::laddr_t result_base = 0;
    picos_t clock = 0;
    picos_t idle = 0;
    std::uint64_t queries = 0;
    rank_t rank_offset = 0;
  };
  std::vector<Slave> slaves(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    Slave& sl = slaves[s];
    sl.space = sim::AddressSpace(machine.l2.line_bytes);
    sl.probe =
        std::make_unique<sim::MemoryProbe>(machine, config_.pollute_streams);
    if (s >= P) continue;
    sl.rank_offset = partitioner.start_of(s);
    const auto part = partitioner.keys_of(s);
    if (config_.method == Method::kC3) {
      sl.array = std::make_unique<index::SortedArrayIndex>(
          part, sl.space.allocate(part.size() * sizeof(key_t)));
    } else {
      sl.tree = std::make_unique<index::StaticTree>(
          part, config_.slave_tree(config_.method), &sl.space);
      if (config_.method == Method::kC2) {
        sl.buf_cfg.target_cache_bytes = machine.l1.size_bytes;
        sl.buf_cfg.buffer_fraction = config_.buffer_fraction;
        sl.buf_cfg.scratch_bytes = 2 * config_.batch_bytes;
        sl.buf_cfg.scratch_base = sl.space.allocate(sl.buf_cfg.scratch_bytes);
      }
    }
    sl.recv_base = sl.space.allocate(config_.batch_bytes);
    sl.result_base = sl.space.allocate(config_.batch_bytes);
  }

  // --- Masters route their share of the stream -------------------------------
  struct Batch {
    picos_t delivered;
    net::node_id_t src_master;
    std::vector<key_t> keys;
    std::vector<std::uint32_t> ids;  // bookkeeping only, not on the wire
  };
  std::vector<std::vector<Batch>> inbox(S);
  // Front-end arrival time of each query (the master reading it off the
  // stream), for response-time accounting.
  std::vector<picos_t> arrivals(config_.track_latency ? queries.size() : 0);

  struct Master {
    std::unique_ptr<sim::AddressSpace> space;
    std::unique_ptr<index::RangePartitioner> delimiters;
    std::unique_ptr<sim::MemoryProbe> probe;
  };
  std::vector<Master> masters(M);
  const std::size_t keys_per_round =
      static_cast<std::size_t>(config_.batch_bytes / sizeof(key_t));

  for (std::uint32_t m = 0; m < M; ++m) {
    Master& ms = masters[m];
    ms.space = std::make_unique<sim::AddressSpace>(machine.l2.line_bytes);
    ms.delimiters = std::make_unique<index::RangePartitioner>(
        index_keys, P,
        ms.space->allocate(P > 1 ? (P - 1) * sizeof(key_t)
                                 : sizeof(key_t)));
    ms.probe =
        std::make_unique<sim::MemoryProbe>(machine, config_.pollute_streams);
    const std::size_t begin = queries.size() * m / M;
    const std::size_t end = queries.size() * (m + 1) / M;
    const sim::laddr_t query_base =
        ms.space->allocate((end - begin) * sizeof(key_t));
    std::vector<sim::laddr_t> staging_base(S);
    for (auto& base : staging_base)
      base = ms.space->allocate(config_.batch_bytes + machine.l2.line_bytes);

    std::vector<std::vector<key_t>> staging_keys(S);
    std::vector<std::vector<std::uint32_t>> staging_ids(S);
    std::vector<std::size_t> staged_fill(S, 0);
    auto flush_slave = [&](std::uint32_t s) {
      if (staging_keys[s].empty()) return;
      const std::uint64_t payload = staging_keys[s].size() * sizeof(key_t);
      ms.probe->compute(ps_to_ns(msg_overhead));  // MPI/OS send cost
      const picos_t delivered =
          network.send(m, M + s, payload + config_.message_header_bytes,
                       ms.probe->charged());
      messages += 1;
      wire_bytes += payload + config_.message_header_bytes;
      inbox[s].push_back({delivered, m, std::move(staging_keys[s]),
                          std::move(staging_ids[s])});
      staging_keys[s] = {};
      staging_ids[s] = {};
    };

    std::size_t round_fill = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const key_t q = queries[i];
      if (config_.track_latency) arrivals[i] = ms.probe->charged();
      ms.probe->stream_read(query_base + (i - begin) * sizeof(key_t),
                            sizeof(key_t));
      const std::uint32_t s = ms.delimiters->route(q, *ms.probe);
      ms.probe->stream_write(
          staging_base[s] + (staged_fill[s] % keys_per_round) * sizeof(key_t),
          sizeof(key_t));
      ++staged_fill[s];
      staging_keys[s].push_back(q);
      staging_ids[s].push_back(static_cast<std::uint32_t>(i));
      if (config_.flush_policy == FlushPolicy::kPerSlaveThreshold) {
        if (staging_keys[s].size() >= keys_per_round) flush_slave(s);
      } else if (++round_fill == keys_per_round) {
        for (std::uint32_t slave = 0; slave < S; ++slave) flush_slave(slave);
        round_fill = 0;
      }
    }
    for (std::uint32_t slave = 0; slave < S; ++slave) flush_slave(slave);
  }
  picos_t master_finish = 0;
  for (const Master& ms : masters)
    master_finish = std::max(master_finish, ms.probe->charged());

  // Batches from different masters interleave at each slave: serve them
  // in arrival order.
  for (auto& box : inbox)
    std::stable_sort(box.begin(), box.end(),
                     [](const Batch& a, const Batch& b) {
                       return a.delivered < b.delivered;
                     });

  // --- Slave processing + replies --------------------------------------------
  picos_t completion = master_finish;
  struct Reply {
    picos_t ready;
    net::node_id_t src;
    net::node_id_t dst;
    std::uint64_t bytes;
    std::uint32_t slave;
    std::size_t batch_index;  // into inbox[slave], for latency accounting
  };
  std::vector<Reply> replies;
  index::BufferedResults buffered_results;
  std::vector<index::BufferedItem> items;
  for (std::uint32_t s = 0; s < S; ++s) {
    Slave& sl = slaves[s];
    sim::MemoryProbe& probe = *sl.probe;
    for (std::size_t bi = 0; bi < inbox[s].size(); ++bi) {
      const Batch& batch = inbox[s][bi];
      const picos_t start = std::max(sl.clock, batch.delivered);
      sl.idle += start - sl.clock;
      sl.clock = start;
      const picos_t busy_before = probe.charged();
      const std::uint64_t payload = batch.keys.size() * sizeof(key_t);

      probe.compute(ps_to_ns(msg_overhead));  // MPI/OS receive cost
      if (config_.dma_pollution) probe.dma_fill(sl.recv_base, payload);
      probe.stream_read(sl.recv_base, payload);

      switch (config_.method) {
        case Method::kC1:
          for (std::size_t j = 0; j < batch.keys.size(); ++j) {
            const rank_t local = sl.tree->lookup(batch.keys[j], probe);
            if (out_ranks != nullptr)
              (*out_ranks)[batch.ids[j]] = sl.rank_offset + local;
          }
          break;
        case Method::kC2: {
          items.clear();
          for (std::size_t j = 0; j < batch.keys.size(); ++j)
            items.push_back({batch.keys[j], static_cast<std::uint32_t>(j)});
          buffered_results.clear();
          index::buffered_lookup(
              *sl.tree, std::span<const index::BufferedItem>(items),
              sl.buf_cfg, probe, buffered_results);
          if (out_ranks != nullptr)
            for (const auto& [id, rank] : buffered_results)
              (*out_ranks)[batch.ids[id]] = sl.rank_offset + rank;
          break;
        }
        case Method::kC3:
          for (std::size_t j = 0; j < batch.keys.size(); ++j) {
            const rank_t local =
                sl.array->upper_bound_rank(batch.keys[j], probe);
            if (out_ranks != nullptr)
              (*out_ranks)[batch.ids[j]] = sl.rank_offset + local;
          }
          break;
        default:
          DICI_CHECK_MSG(false, "replicated method in distributed engine");
      }
      probe.stream_write(sl.result_base, payload);
      probe.compute(ps_to_ns(msg_overhead));  // MPI/OS send cost
      sl.clock += probe.charged() - busy_before;
      sl.queries += batch.keys.size();

      replies.push_back({sl.clock, static_cast<net::node_id_t>(M + s),
                         batch.src_master,
                         payload + config_.message_header_bytes, s, bi});
    }
  }

  // Replies were generated slave-by-slave, but each master's ingress NIC
  // serves them in *time* order; sort before scheduling so one slave's
  // replies do not spuriously queue behind another's.
  std::sort(replies.begin(), replies.end(),
            [](const Reply& a, const Reply& b) { return a.ready < b.ready; });
  Summary latency_ns;
  for (const Reply& reply : replies) {
    const picos_t delivered =
        network.send(reply.src, reply.dst, reply.bytes, reply.ready);
    messages += 1;
    wire_bytes += reply.bytes;
    completion = std::max(completion, delivered);
    if (config_.track_latency) {
      // Response time of every query in this batch: from the master
      // reading it off the stream to its result landing back.
      for (const auto id : inbox[reply.slave][reply.batch_index].ids)
        latency_ns.add(ps_to_ns(delivered - arrivals[id]));
    }
  }

  // --- Report -----------------------------------------------------------------
  RunReport report;
  report.method = config_.method;
  report.num_queries = queries.size();
  report.num_nodes = config_.num_nodes;
  report.batch_bytes = config_.batch_bytes;
  report.raw_makespan = completion;
  report.makespan = completion;  // no normalization: C uses all nodes as-is
  report.messages = messages;
  report.wire_bytes = wire_bytes;
  report.nodes.resize(config_.num_nodes);

  for (std::uint32_t m = 0; m < M; ++m) {
    NodeReport& node = report.nodes[m];
    fill_node_report(node, *masters[m].probe);
    node.finish = masters[m].probe->charged();
    node.queries = queries.size() * (m + 1) / M - queries.size() * m / M;
    node.nic = network.stats(m);
  }

  double idle_sum = 0.0;
  for (std::uint32_t s = 0; s < S; ++s) {
    NodeReport& node = report.nodes[M + s];
    fill_node_report(node, *slaves[s].probe);
    node.finish = slaves[s].clock;
    node.idle = slaves[s].idle;
    node.queries = slaves[s].queries;
    node.nic = network.stats(M + s);
    idle_sum += 1.0 - static_cast<double>(node.busy) /
                          static_cast<double>(report.raw_makespan);
  }
  report.slave_idle_fraction = idle_sum / S;
  report.latency_ns = std::move(latency_ns);
  return report;
}

}  // namespace dici::core
