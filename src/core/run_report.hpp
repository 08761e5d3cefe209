// Result of one simulated (or native) experiment run.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/config.hpp"
#include "src/net/sim_network.hpp"
#include "src/util/assert.hpp"
#include "src/util/stats.hpp"
#include "src/sim/cache.hpp"
#include "src/sim/probe.hpp"
#include "src/sim/tlb.hpp"
#include "src/util/types.hpp"

namespace dici::core {

/// Per-node accounting. Node 0 is the master for distributed methods;
/// replicated methods report their single measured node.
struct NodeReport {
  picos_t finish = 0;  ///< node-local clock when its last work completed
  picos_t busy = 0;    ///< time charged by the probe (CPU + memory)
  picos_t idle = 0;    ///< waited on message arrivals
  std::uint64_t queries = 0;
  sim::ChargeBreakdown charges;
  sim::CacheStats l1;
  sim::CacheStats l2;
  sim::TlbStats tlb;
  net::NicStats nic;
};

struct RunReport {
  Method method{};
  std::uint64_t num_queries = 0;
  std::uint32_t num_nodes = 1;
  std::uint64_t batch_bytes = 0;

  /// Virtual time until every result was delivered, unnormalized.
  picos_t raw_makespan = 0;
  /// Normalized makespan: raw / num_nodes for replicated methods when
  /// the config asks for it (Sec. 4.1's fairness rule), raw otherwise.
  picos_t makespan = 0;

  double seconds() const { return ps_to_sec(makespan); }
  double per_key_ns() const {
    return num_queries ? ps_to_ns(makespan) / static_cast<double>(num_queries)
                       : 0.0;
  }
  /// Queries per second at the normalized makespan.
  double throughput_qps() const {
    return seconds() > 0 ? static_cast<double>(num_queries) / seconds() : 0.0;
  }

  /// Mean over slaves of (1 - busy/raw_makespan); 0 for A/B.
  double slave_idle_fraction = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  /// Messages resolved by a worker other than the shard's owner —
  /// ParallelNativeEngine's work stealing (0 elsewhere, and 0 there
  /// when stealing is off or the load never skews).
  std::uint64_t stolen_messages = 0;

  // Recovery events (cluster backend; 0 elsewhere and on a healthy
  // run). `messages` above counts actual sends, so under faults
  // messages > the no-fault chunk count by roughly retries + failovers.
  /// Re-sends of unanswered chunks (covers dropped/corrupted/delayed
  /// frames and nudges at suspect nodes).
  std::uint64_t retries = 0;
  /// Chunks re-routed to a surviving replica after their node died or
  /// exhausted its retries.
  std::uint64_t failovers = 0;
  /// DEAD nodes re-admitted (join handshake + shard re-scatter) during
  /// this report's window. Index-lifetime events, attributed to the
  /// first batch waited after they happened.
  std::uint64_t rejoins = 0;
  /// Wall time those re-joins took, end to end.
  std::uint64_t recovery_ns = 0;

  /// Per-query response time in ns (read by the dispatcher -> result
  /// delivered), populated when ExperimentConfig::track_latency is set.
  /// This is what the paper's "response time" axis means: how long a
  /// query waits on batching before its answer exists (Sec. 4.1's
  /// Method-A-responds-fastest observation falls out of it).
  ///
  /// Clock domain is per backend: the simulator records VIRTUAL time
  /// from its cost model; the native backends record measured WALL time
  /// from Client::submit (plus any pre-submit queue wait the caller
  /// declared via submit()'s queued_ns) to the completion stamp of the
  /// message that resolved the query. Memory is bounded regardless of
  /// query count: Summary degrades from exact samples to a log-bucketed
  /// histogram past Summary::kExactCap, so million-query sessions pay
  /// ~48 KB, not O(n).
  Summary latency_ns;

  std::vector<NodeReport> nodes;

  /// Fold a subsequent batch's report into this one with *sequential*
  /// semantics — the stream served batch after batch on the same built
  /// index, so makespans add and counters add. Client::wait uses this
  /// to maintain the client's total().
  ///
  /// Per-node detail: `nodes` layouts are backend-defined (the sim
  /// reports every simulated node, ParallelNativeEngine dispatcher +
  /// workers, the cluster dispatcher + nodes), so element-wise addition
  /// is only meaningful when both reports describe the same node set. The
  /// chosen — and defended — semantics for a size mismatch (e.g.
  /// reports from different backends, or a backend that changed shape
  /// mid-stream): the scalar totals above stay exact, and `nodes` is
  /// emptied rather than concatenated or truncated, because a partial
  /// or mixed per-node sum would silently misattribute work. Callers
  /// needing per-node detail across a merge must keep layouts equal;
  /// an empty `nodes` after merge is the documented "detail dropped"
  /// signal, never UB. Merging across *methods* is a programming error
  /// and aborts.
  void merge(const RunReport& other) {
    DICI_CHECK_FMT(method == other.method,
                   "RunReport::method mismatch: merging %s into %s — totals "
                   "from different methods are not comparable",
                   method_name(other.method), method_name(method));
    const picos_t prev_raw = raw_makespan;
    num_queries += other.num_queries;
    raw_makespan += other.raw_makespan;
    makespan += other.makespan;
    messages += other.messages;
    wire_bytes += other.wire_bytes;
    stolen_messages += other.stolen_messages;
    retries += other.retries;
    failovers += other.failovers;
    rejoins += other.rejoins;
    recovery_ns += other.recovery_ns;
    // Idle fraction is a rate, not a counter: weight each batch's value
    // by the wall (raw) time over which it was observed. When both
    // makespans are zero there is no observation time to reweight over,
    // so the previously accumulated value is PRESERVED — zeroing it
    // would let an empty-batch merge erase real idle measurements.
    if (raw_makespan > 0) {
      slave_idle_fraction =
          (slave_idle_fraction * static_cast<double>(prev_raw) +
           other.slave_idle_fraction *
               static_cast<double>(other.raw_makespan)) /
          static_cast<double>(raw_makespan);
    }
    latency_ns.merge(other.latency_ns);
    // Same layout: element-wise. Mismatch: drop detail (see above).
    if (nodes.size() == other.nodes.size()) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        NodeReport& n = nodes[i];
        const NodeReport& o = other.nodes[i];
        n.finish += o.finish;
        n.busy += o.busy;
        n.idle += o.idle;
        n.queries += o.queries;
        n.charges.compute += o.charges.compute;
        n.charges.l2_hit += o.charges.l2_hit;
        n.charges.memory += o.charges.memory;
        n.charges.stream += o.charges.stream;
        n.charges.tlb += o.charges.tlb;
        n.l1.hits += o.l1.hits;
        n.l1.misses += o.l1.misses;
        n.l1.evictions += o.l1.evictions;
        n.l2.hits += o.l2.hits;
        n.l2.misses += o.l2.misses;
        n.l2.evictions += o.l2.evictions;
        n.tlb.hits += o.tlb.hits;
        n.tlb.misses += o.tlb.misses;
        n.nic.messages_sent += o.nic.messages_sent;
        n.nic.bytes_sent += o.nic.bytes_sent;
        n.nic.messages_received += o.nic.messages_received;
        n.nic.bytes_received += o.nic.bytes_received;
        n.nic.egress_busy += o.nic.egress_busy;
        n.nic.ingress_busy += o.nic.ingress_busy;
      }
    } else {
      nodes.clear();
    }
  }
};

}  // namespace dici::core
