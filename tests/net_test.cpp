#include <gtest/gtest.h>

#include "src/arch/machine.hpp"
#include "src/net/link.hpp"
#include "src/net/sim_network.hpp"
#include "src/util/bytes.hpp"

namespace dici::net {
namespace {

TEST(LinkModel, MyrinetNumbersFromThePaper) {
  const LinkModel link(arch::pentium3_cluster());
  // Sec. 2.2: a 10 KB message takes ~80 us at 1.1 Gb/s (138 MB/s)...
  EXPECT_NEAR(ps_to_ns(link.transfer_ps(10 * 1024)) / 1e3, 74.2, 1.0);
  // ...which clearly dominates the 7 us latency.
  EXPECT_EQ(link.latency_ps(), ns_to_ps(7000.0));
  EXPECT_GT(link.transfer_ps(10 * 1024), 10 * link.latency_ps() / 2);
}

TEST(LinkModel, MessageTimeIsTransferPlusLatency) {
  const LinkModel link(arch::pentium3_cluster());
  EXPECT_EQ(link.message_ps(1000),
            link.transfer_ps(1000) + link.latency_ps());
}

class SimNetworkTest : public ::testing::Test {
 protected:
  LinkModel link_{arch::pentium3_cluster()};
  SimNetwork net_{4, link_};
};

TEST_F(SimNetworkTest, SingleMessageTiming) {
  const picos_t delivered = net_.send(0, 1, 1380, 0);
  // 1380 bytes at 138 MB/s = 10 us transfer + 7 us latency.
  EXPECT_EQ(delivered, link_.transfer_ps(1380) + link_.latency_ps());
}

TEST_F(SimNetworkTest, ReadyTimeDelaysSend) {
  const picos_t t0 = net_.send(0, 1, 1000, 0);
  SimNetwork fresh(4, link_);
  const picos_t t1 = fresh.send(0, 1, 1000, ns_to_ps(5000.0));
  EXPECT_EQ(t1, t0 + ns_to_ps(5000.0));
}

TEST_F(SimNetworkTest, EgressSerializesSameSender) {
  // Two back-to-back messages from node 0: the second's transfer starts
  // after the first's.
  const picos_t d1 = net_.send(0, 1, 10000, 0);
  const picos_t d2 = net_.send(0, 2, 10000, 0);
  EXPECT_EQ(d2 - d1, link_.transfer_ps(10000));
}

TEST_F(SimNetworkTest, DistinctSendersDoNotContendOnEgress) {
  const picos_t d1 = net_.send(0, 2, 10000, 0);
  const picos_t d2 = net_.send(1, 3, 10000, 0);
  EXPECT_EQ(d1, d2);  // parallel paths
}

TEST_F(SimNetworkTest, IngressSerializesSameReceiver) {
  const picos_t d1 = net_.send(0, 3, 10000, 0);
  const picos_t d2 = net_.send(1, 3, 10000, 0);
  // Both arrive at node 3; the second waits for the first's ingress.
  EXPECT_EQ(d2 - d1, link_.transfer_ps(10000));
}

TEST_F(SimNetworkTest, StatsAccumulate) {
  net_.send(0, 1, 500, 0);
  net_.send(0, 1, 700, 0);
  EXPECT_EQ(net_.stats(0).messages_sent, 2u);
  EXPECT_EQ(net_.stats(0).bytes_sent, 1200u);
  EXPECT_EQ(net_.stats(1).messages_received, 2u);
  EXPECT_EQ(net_.stats(1).bytes_received, 1200u);
  EXPECT_EQ(net_.stats(1).messages_sent, 0u);
}

TEST_F(SimNetworkTest, LateReadyAfterBusyEgress) {
  net_.send(0, 1, 100000, 0);  // long transfer occupies egress
  const picos_t busy_until = link_.transfer_ps(100000);
  const picos_t d = net_.send(0, 2, 100, busy_until + 5);
  EXPECT_EQ(d, busy_until + 5 + link_.transfer_ps(100) + link_.latency_ps());
}

TEST(SimNetworkDeath, RejectsLoopback) {
  SimNetwork net(2, LinkModel(arch::pentium3_cluster()));
  EXPECT_DEATH(net.send(1, 1, 10, 0), "loopback");
}

}  // namespace
}  // namespace dici::net
