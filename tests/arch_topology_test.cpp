// The node <-> core map behind placement: discovery stays inside the
// allowed cpuset, simulation splits it deterministically, and
// node-scoped pinning degrades gracefully — the contract single-node CI
// machines rely on to still exercise every placement path.
#include "src/arch/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "src/util/affinity.hpp"

namespace dici::arch {
namespace {

std::set<int> allowed_set() {
  const auto cpus = allowed_cpus();
  return {cpus.begin(), cpus.end()};
}

TEST(Topology, DiscoveryCoversAllowedCpusOnly) {
  const Topology topo = discover_topology();
  ASSERT_GE(topo.nodes(), 1u);
  const std::set<int> allowed = allowed_set();
  std::set<int> seen;
  for (std::uint32_t node = 0; node < topo.nodes(); ++node) {
    ASSERT_FALSE(topo.cpus_of(node).empty()) << "node " << node;
    for (const int cpu : topo.cpus_of(node)) {
      EXPECT_TRUE(allowed.count(cpu))
          << "cpu " << cpu << " is outside the allowed mask";
      EXPECT_TRUE(seen.insert(cpu).second)
          << "cpu " << cpu << " appears on two discovered nodes";
    }
  }
  // Discovery never loses an allowed CPU (every pinnable core belongs
  // to some node).
  EXPECT_EQ(seen, allowed);
}

TEST(Topology, NodeOfCpuRoundTrips) {
  const Topology topo = discover_topology();
  for (std::uint32_t node = 0; node < topo.nodes(); ++node)
    for (const int cpu : topo.cpus_of(node))
      EXPECT_EQ(topo.node_of_cpu(cpu), node);
  // Unknown CPUs fall back to node 0, never out of range.
  EXPECT_EQ(topo.node_of_cpu(1 << 20), 0u);
}

TEST(Topology, SimulatedSplitsAllowedCpus) {
  for (const std::uint32_t nodes : {1u, 2u, 3u, 8u}) {
    const Topology topo = simulated_topology(nodes);
    EXPECT_TRUE(topo.simulated);
    ASSERT_EQ(topo.nodes(), nodes);
    const std::set<int> allowed = allowed_set();
    std::set<int> seen;
    for (std::uint32_t node = 0; node < nodes; ++node) {
      // Every node is pinnable even when nodes outnumber CPUs (shared
      // CPUs are the documented degradation).
      ASSERT_FALSE(topo.cpus_of(node).empty());
      for (const int cpu : topo.cpus_of(node)) {
        EXPECT_TRUE(allowed.count(cpu));
        seen.insert(cpu);
      }
    }
    EXPECT_EQ(seen, allowed);  // no allowed CPU is dropped
  }
}

TEST(Topology, SimulatedIsDeterministic) {
  const Topology a = simulated_topology(4);
  const Topology b = simulated_topology(4);
  ASSERT_EQ(a.nodes(), b.nodes());
  for (std::uint32_t node = 0; node < a.nodes(); ++node)
    EXPECT_EQ(a.cpus_of(node), b.cpus_of(node));
}

TEST(Topology, MakeTopologySwitchesOnNodeCount) {
  EXPECT_FALSE(make_topology(0).simulated);
  const Topology sim = make_topology(3);
  EXPECT_TRUE(sim.simulated);
  EXPECT_EQ(sim.nodes(), 3u);
}

TEST(Topology, NodePinningIsBestEffort) {
  const Topology topo = simulated_topology(2);
  // Each node from a fresh thread: pinning intersects with the thread's
  // current mask, so only an unconfined thread can land on either node.
  for (std::uint32_t node = 0; node < topo.nodes(); ++node) {
    std::thread t([&] {
      const bool ok = pin_current_thread_to_node(topo, node);
#if defined(__linux__)
      EXPECT_TRUE(ok) << "node " << node;
#else
      (void)ok;
#endif
      // Out-of-range nodes fail cleanly instead of widening the mask.
      EXPECT_FALSE(pin_current_thread_to_node(topo, topo.nodes()));
    });
    t.join();
  }
}

TEST(Topology, NodePinningNeverWidensAConfinedThread) {
#if !defined(__linux__)
  GTEST_SKIP() << "thread pinning is Linux-only";
#endif
  const Topology topo = simulated_topology(2);
  const auto& node0 = topo.cpus_of(0);
  const auto& node1 = topo.cpus_of(1);
  if (std::find_first_of(node0.begin(), node0.end(), node1.begin(),
                         node1.end()) != node0.end())
    GTEST_SKIP() << "the two simulated nodes share a CPU on this host";
  std::thread t([&] {
    ASSERT_TRUE(pin_current_thread_to_node(topo, 0));
    const std::set<int> confined = allowed_set();
    // Node 1's CPUs all lie outside the node-0 mask: the re-pin fails
    // and leaves the mask as it was.
    EXPECT_FALSE(pin_current_thread_to_node(topo, 1));
    EXPECT_EQ(allowed_set(), confined);
  });
  t.join();
}

TEST(Topology, TotalCpusCountsEveryMapping) {
  const Topology topo = simulated_topology(2);
  std::size_t total = 0;
  for (std::uint32_t node = 0; node < topo.nodes(); ++node)
    total += topo.cpus_of(node).size();
  EXPECT_EQ(topo.total_cpus(), total);
}

}  // namespace
}  // namespace dici::arch
