// Publish-subscribe routing — the paper's middleware workload ("request
// processing in publish-subscribe middleware", Sec. 1).
//
// Topic ids are range-partitioned across broker nodes. Each published
// message must reach the broker owning its topic range. The router
// keeps only the partition delimiters (the paper's master data
// structure) and streams message batches to the brokers. lookup_batch
// runs on ParallelNativeEngine: brokers are real worker threads, and the
// run reports end-to-end throughput on this host. Every routed slot is
// checked against the scalar index.lookup(); any difference exits 1.
//
//   $ ./example_pubsub_router [--topics N] [--messages N] [--brokers N]
#include <cstdio>

#include "src/core/distributed_index.hpp"
#include "src/util/bytes.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"
#include "src/workload/workload.hpp"

int main(int argc, char** argv) {
  using namespace dici;
  Cli cli("Publish-subscribe topic routing over range-partitioned brokers");
  cli.add_int("topics", "registered topic ids", 500000);
  cli.add_int("messages", "messages to route", 1 << 20);
  cli.add_int("brokers", "broker threads", 4);
  cli.add_double("skew", "Zipf exponent of topic popularity", 1.0);
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(23);
  auto topics = workload::make_sorted_unique_keys(
      static_cast<std::size_t>(cli.get_int("topics")), rng);
  const auto brokers = static_cast<std::uint32_t>(cli.get_int("brokers"));
  DistributedInCacheIndex index(std::move(topics), brokers);

  // Popular topics dominate real pub-sub traffic: Zipf over topic space.
  const auto publishes = workload::make_zipf_queries(
      static_cast<std::size_t>(cli.get_int("messages")), 1024,
      cli.get_double("skew"), rng);

  std::printf("%zu topics over %u brokers; routing %zu publishes "
              "(Zipf s=%.1f)\n",
              index.size(), index.partitions(), publishes.size(),
              cli.get_double("skew"));

  // Broker load preview from the router's delimiters alone.
  std::vector<std::uint64_t> load(brokers, 0);
  for (const auto topic : publishes) ++load[index.route(topic)];
  std::printf("broker load:");
  for (const auto l : load)
    std::printf(" %.1f%%",
                100.0 * static_cast<double>(l) /
                    static_cast<double>(publishes.size()));
  std::printf("\n");

  // Route everything through the threaded master/broker pipeline.
  WallTimer timer;
  const auto slots = index.lookup_batch(publishes, 64 * KiB);
  const double sec = timer.elapsed_sec();
  std::uint64_t delivered = 0;
  std::uint64_t misrouted = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    misrouted += slots[i] != index.lookup(publishes[i]);
    delivered += slots[i] > 0 &&
                 index.keys()[slots[i] - 1] == publishes[i];
  }
  std::printf(
      "routed %zu publishes in %.3f s (%.2f M msg/s); %llu hit a "
      "registered topic exactly\n",
      publishes.size(), sec,
      static_cast<double>(publishes.size()) / sec / 1e6,
      static_cast<unsigned long long>(delivered));
  std::printf("unmatched publishes fall to the range owner for wildcard "
              "evaluation — same dataflow, no extra lookup\n");
  if (misrouted != 0) {
    std::fprintf(stderr,
                 "MISROUTED: %llu of %zu batched slots differ from "
                 "index.lookup()\n",
                 static_cast<unsigned long long>(misrouted), slots.size());
    return 1;
  }
  return 0;
}
