// The master's dispatch loop, shared by ParallelNativeEngine and the
// cluster coordinator.
//
// kMasterRound semantics (the simulator's default): route each query to
// a lane, stage it, and flush every non-empty staging buffer once
// batch_bytes of the query stream has been ingested — plus a final
// flush at end of stream. Keeping this in one place means the threaded
// and the message-passing backends cannot drift apart on batching
// behaviour.
//
// Scope note, post batch-kernel migration: this file is the ROUTING
// side of dispatch and it is per-query by nature — each query's shard
// is its own upper_bound over the delimiters, there is no batch shape
// to exploit before routing has created the batches. The RESOLUTION
// side (what a slave does with a flushed DispatchBatch) lives in
// index/batched_search.hpp's resolve_batch, which parallel-native
// workers and cluster nodes call on whole messages; the old per-query
// run_kernel helpers died with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/util/assert.hpp"
#include "src/util/types.hpp"

namespace dici::core {

/// One staged message: a lane's slice of the current dispatch round.
struct DispatchBatch {
  std::vector<key_t> keys;
  std::vector<std::uint32_t> ids;  ///< query indexes, for the order-preserving scatter
};

/// Route `queries` into `lanes` staging buffers and deliver them with
/// `send(lane, DispatchBatch&&)` in rounds of `batch_bytes`. Returns the
/// number of messages sent.
template <typename RouteFn, typename SendFn>
std::uint64_t dispatch_master_rounds(std::span<const key_t> queries,
                                     std::uint64_t batch_bytes,
                                     std::uint32_t lanes, RouteFn&& route,
                                     SendFn&& send) {
  DICI_CHECK_MSG(queries.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "query ids are 32-bit; split the stream into <4G chunks");
  std::vector<DispatchBatch> staging(lanes);
  const std::size_t keys_per_round = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, batch_bytes / sizeof(key_t)));
  std::uint64_t messages = 0;
  auto flush = [&](std::uint32_t lane) {
    if (staging[lane].keys.empty()) return;
    ++messages;
    send(lane, std::move(staging[lane]));
    staging[lane] = {};
  };
  std::size_t round_fill = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t lane = route(queries[i]);
    staging[lane].keys.push_back(queries[i]);
    staging[lane].ids.push_back(static_cast<std::uint32_t>(i));
    if (++round_fill == keys_per_round) {
      for (std::uint32_t l = 0; l < lanes; ++l) flush(l);
      round_fill = 0;
    }
  }
  for (std::uint32_t l = 0; l < lanes; ++l) flush(l);
  return messages;
}

}  // namespace dici::core
