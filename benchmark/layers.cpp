#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "metrics.hpp"
#include "src/arch/machine.hpp"
#include "src/core/dispatch.hpp"
#include "src/index/batched_search.hpp"
#include "src/index/delta.hpp"
#include "src/index/partitioner.hpp"
#include "src/model/method_costs.hpp"
#include "src/net/link.hpp"
#include "src/net/spsc_ring.hpp"
#include "src/net/transport.hpp"
#include "src/net/wire.hpp"
#include "src/util/assert.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace bench {

namespace core = dici::core;
namespace idx = dici::index;
namespace net = dici::net;
using namespace std::chrono_literals;

namespace {

/// Repeat `rep` (which returns the units of work it did) for the budget,
/// at least three times; the median nanoseconds per unit.
template <typename Rep>
double median_ns_per_unit(double budget_s, Rep&& rep) {
  std::vector<double> per_unit;
  const dici::WallTimer total;
  while (total.elapsed_sec() < budget_s || per_unit.size() < 3) {
    const dici::WallTimer timer;
    const double units = rep();
    per_unit.push_back(timer.elapsed_ns() / units);
  }
  return median(std::move(per_unit));
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Push a timestamp to a consumer parked in wait_pop; the median
/// push-to-pop delay in microseconds.
double hub_handoff_us(double budget_s) {
  net::SpscRingHub<std::int64_t> hub;
  const auto channel = hub.open(64);
  std::vector<double> delays_ns;
  std::thread consumer([&] {
    std::int64_t pushed = 0;
    while (hub.pop(pushed))
      delays_ns.push_back(static_cast<double>(steady_ns() - pushed));
  });
  const dici::WallTimer total;
  std::size_t pushes = 0;
  while (total.elapsed_sec() < budget_s || pushes < 100) {
    std::this_thread::sleep_for(100us);  // long enough for the consumer to park
    channel->push(steady_ns());
    ++pushes;
  }
  channel->close();
  hub.close();
  consumer.join();
  return median(std::move(delays_ns)) / 1e3;
}

/// Round trips of `frame` through an echo thread over an in-process
/// loopback-TCP pair; half the mean round trip in microseconds.
double tcp_oneway_us(const net::Frame& frame, double budget_s) {
  auto [near, far] = net::make_transport_pair(net::TransportKind::kTcp);
  std::thread echo([&far = *far] {
    net::Frame f;
    std::string error;
    while (far.recv(&f, 1s, &error) == net::Endpoint::RecvResult::kFrame)
      if (far.send(f, 1s) != net::Endpoint::SendResult::kOk) return;
  });
  net::Frame reply;
  std::string error;
  const auto round_trip = [&] {
    return near->send(frame, 1s) == net::Endpoint::SendResult::kOk &&
           near->recv(&reply, 1s, &error) == net::Endpoint::RecvResult::kFrame;
  };
  bool ok = true;
  for (int i = 0; i < 16 && ok; ++i) ok = round_trip();  // warm the path
  const dici::WallTimer timer;
  std::size_t rounds = 0;
  while (ok && timer.elapsed_sec() < budget_s) {
    ok = round_trip();
    ++rounds;
  }
  const double sec = timer.elapsed_sec();
  near->close();
  echo.join();
  if (!ok) {
    std::fprintf(stderr, "tcp ping-pong failed: %s\n", error.c_str());
    return 0;
  }
  return sec * 1e6 / (2.0 * static_cast<double>(rounds));
}

}  // namespace

std::vector<LayerValue> isolated_layers(const LayerInputs& in, Tracer& tracer,
                                        std::uint64_t parent_span) {
  std::vector<LayerValue> out;
  const double budget = in.budget_s;
  const idx::RangePartitioner partitioner(in.keys, in.shards);

  {
    Scope span(tracer, "iso.route", parent_span);
    std::uint64_t sink = 0;
    out.push_back({"core.route_ns_per_query", median_ns_per_unit(budget, [&] {
                     core::dispatch_master_rounds(
                         in.queries, in.batch_bytes, partitioner.parts(),
                         [&](key_t q) { return partitioner.route(q); },
                         [&](std::uint32_t, core::DispatchBatch&& batch) {
                           sink += batch.keys.size();
                         });
                     return static_cast<double>(in.queries.size());
                   })});
    DICI_CHECK(sink > 0);
  }

  // The busiest shard (the hot one on skew-rw), probed one message at a
  // time at the in-situ mean message size.
  std::vector<std::vector<key_t>> routed(partitioner.parts());
  for (const key_t q : in.queries) routed[partitioner.route(q)].push_back(q);
  const std::uint32_t hot = static_cast<std::uint32_t>(
      std::max_element(routed.begin(), routed.end(),
                       [](const auto& a, const auto& b) {
                         return a.size() < b.size();
                       }) -
      routed.begin());
  const std::span<const key_t> shard_keys = partitioner.keys_of(hot);
  {
    Scope span(tracer, "iso.resolve", parent_span);
    const bool eytzinger = idx::kernel_layout(in.kernel) == idx::KeyLayout::kEytzinger;
    const idx::EytzingerLayout layout =
        eytzinger ? idx::EytzingerLayout(shard_keys) : idx::EytzingerLayout{};
    const std::vector<key_t>& qs = routed[hot];
    std::vector<rank_t> ranks(in.message_keys);
    out.push_back(
        {"index.resolve_iso_ns_per_query", median_ns_per_unit(budget, [&] {
           for (std::size_t at = 0; at < qs.size(); at += in.message_keys) {
             const std::size_t n = std::min(in.message_keys, qs.size() - at);
             idx::resolve_batch(in.kernel, shard_keys, eytzinger ? &layout : nullptr,
                                std::span(qs).subspan(at, n), ranks.data());
           }
           return static_cast<double>(qs.size());
         })});
  }

  // A full delta: max_delta_keys inserts spread over the key space
  // (odd keys, so none is a base key).
  idx::DeltaBuffer buffer;
  {
    dici::Rng rng(in.keys.size());
    std::vector<key_t> inserts(in.max_delta_keys);
    for (key_t& k : inserts) k = static_cast<key_t>(rng.next() >> 32) | 1u;
    buffer.insert(inserts, in.keys);
  }
  const auto snapshot = buffer.snapshot();
  {
    Scope span(tracer, "iso.delta_correct", parent_span);
    std::vector<rank_t> ranks(in.queries.size());
    out.push_back(
        {"index.delta_correct_ns_per_query", median_ns_per_unit(budget, [&] {
           std::fill(ranks.begin(), ranks.end(), 0);
           snapshot->correct(in.queries, ranks.data());
           return static_cast<double>(ranks.size());
         })});
  }
  {
    Scope span(tracer, "iso.fold_delta", parent_span);
    std::size_t folded_keys = 0;
    out.push_back({"index.fold_delta_ms", median_ns_per_unit(budget, [&] {
                                            folded_keys +=
                                                idx::fold_delta(in.keys, *snapshot)
                                                    .size();
                                            return 1.0;
                                          }) / 1e6});
    DICI_CHECK(folded_keys > 0);
  }

  {
    Scope span(tracer, "iso.hub_handoff", parent_span);
    out.push_back({"net.hub_handoff_us", hub_handoff_us(budget)});
  }

  // One dispatched message and its reply at the in-situ mean size.
  net::QueryBatchMsg query_msg;
  query_msg.keys.assign(in.queries.begin(),
                        in.queries.begin() +
                            static_cast<std::ptrdiff_t>(std::min(
                                in.message_keys, in.queries.size())));
  query_msg.ids.resize(query_msg.keys.size());
  std::iota(query_msg.ids.begin(), query_msg.ids.end(), 0u);
  net::RankBatchMsg rank_msg;
  rank_msg.ids = query_msg.ids;
  rank_msg.ranks.assign(query_msg.keys.size(), 7);
  const net::Frame query_frame =
      net::encode_query_batch(net::kCoordinatorId, query_msg);
  const net::Frame rank_frame = net::encode_rank_batch(0, rank_msg);
  {
    Scope span(tracer, "iso.encode", parent_span);
    out.push_back({"net.encode_us_per_msg", median_ns_per_unit(budget, [&] {
                                              for (int i = 0; i < 16; ++i) {
                                                net::encode_query_batch(
                                                    net::kCoordinatorId, query_msg);
                                                net::encode_rank_batch(0, rank_msg);
                                              }
                                              return 32.0;
                                            }) / 1e3});
  }
  {
    Scope span(tracer, "iso.decode", parent_span);
    net::QueryBatchMsg q;
    net::RankBatchMsg r;
    std::string error;
    bool ok = true;
    const double us = median_ns_per_unit(budget, [&] {
                        for (int i = 0; i < 16; ++i) {
                          ok &= net::decode_query_batch(query_frame, &q, &error);
                          ok &= net::decode_rank_batch(rank_frame, &r, &error);
                        }
                        return 32.0;
                      }) / 1e3;
    if (!ok) std::fprintf(stderr, "decode failed: %s\n", error.c_str());
    out.push_back({"net.decode_us_per_msg", us});
  }
  {
    Scope span(tracer, "iso.tcp_pingpong", parent_span);
    out.push_back({"net.tcp_oneway_us", tcp_oneway_us(query_frame, budget)});
  }

  // The paper's cost model at the same sizes, for comparison.
  const dici::arch::MachineSpec machine = dici::arch::modern_cluster();
  const std::uint64_t frame_bytes =
      net::kFrameHeaderBytes + query_frame.payload.size();
  out.push_back(
      {"model.message_us",
       static_cast<double>(net::LinkModel(machine).message_ps(frame_bytes)) /
           1e6});
  out.push_back({"model.c3_slave_ns_per_key",
                 dici::model::method_c_slave_per_key(
                     machine, dici::model::c_params_for_sorted_array(
                                  shard_keys.size(), machine, 1))
                     .total_ns()});
  return out;
}

}  // namespace bench
