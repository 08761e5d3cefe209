// AdaptiveBatcher: the size, deadline and idle boundaries, driven by a
// synthetic clock — no sleeps, every edge case exact.
#include "src/core/batcher.hpp"

#include <gtest/gtest.h>

namespace dici::core {
namespace {

using Trigger = AdaptiveBatcher::Trigger;

// A busy fleet: some earlier round is still in flight, so the idle
// trigger cannot fire and size-or-deadline decides alone.
constexpr std::size_t kBusy = 1;
constexpr std::size_t kIdleFleet = 0;

TEST(AdaptiveBatcher, EmptyNeverFlushes) {
  AdaptiveBatcher b(4, 100.0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.trigger(0.0, kBusy), Trigger::kNone);
  EXPECT_EQ(b.trigger(1e18, kBusy), Trigger::kNone);  // far past any deadline
}

TEST(AdaptiveBatcher, EmptyNeverFlushesEvenWhenIdle) {
  AdaptiveBatcher b(4, 100.0);
  EXPECT_EQ(b.trigger(0.0, kIdleFleet), Trigger::kNone);
  EXPECT_EQ(b.trigger(1e18, kIdleFleet), Trigger::kNone);
}

TEST(AdaptiveBatcher, SizeTriggerExactlyAtCapacity) {
  AdaptiveBatcher b(4, 1e9);  // deadline far away: size is the trigger
  for (key_t k = 0; k < 3; ++k) {
    b.push(k, 0.0);
    EXPECT_EQ(b.trigger(1.0, kBusy), Trigger::kNone)
        << "at " << b.size() << " keys";
  }
  b.push(3, 0.0);  // exactly max_keys
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.trigger(1.0, kBusy), Trigger::kSize);
}

TEST(AdaptiveBatcher, DeadlineTriggerExactlyAtMaxDelay) {
  AdaptiveBatcher b(1000, 100.0);
  b.push(7, 50.0);  // oldest arrival at t = 50
  EXPECT_EQ(b.trigger(149.999, kBusy), Trigger::kNone);  // just under
  EXPECT_EQ(b.trigger(150.0, kBusy), Trigger::kDeadline);  // age == max
  EXPECT_EQ(b.trigger(151.0, kBusy), Trigger::kDeadline);
}

TEST(AdaptiveBatcher, DeadlineIsTheOldestQuerys) {
  AdaptiveBatcher b(1000, 100.0);
  b.push(1, 10.0);
  b.push(2, 90.0);  // younger; must not extend the deadline
  EXPECT_DOUBLE_EQ(b.next_deadline_ns(), 110.0);
  EXPECT_EQ(b.trigger(109.0, kBusy), Trigger::kNone);
  EXPECT_EQ(b.trigger(110.0, kBusy), Trigger::kDeadline);
}

TEST(AdaptiveBatcher, OnePendingKeyFlushesAtOnceWhenIdle) {
  AdaptiveBatcher b(4, 100.0);
  b.push(9, 50.0);
  EXPECT_EQ(b.trigger(50.0, kIdleFleet), Trigger::kIdle);  // no wait at all
}

TEST(AdaptiveBatcher, OnePendingKeyWaitsForSizeOrDeadlineWhileBusy) {
  // One round in flight: the pending key waits for the deadline...
  AdaptiveBatcher b(4, 100.0);
  b.push(9, 50.0);
  EXPECT_EQ(b.trigger(50.0, kBusy), Trigger::kNone);
  EXPECT_EQ(b.trigger(149.0, kBusy), Trigger::kNone);  // deadline - 1
  EXPECT_EQ(b.trigger(150.0, kBusy), Trigger::kDeadline);
  // ...or for the batch to fill, whichever comes first.
  for (key_t k = 10; k < 12; ++k) {
    b.push(k, 60.0);
    EXPECT_EQ(b.trigger(60.0, kBusy), Trigger::kNone)
        << "at " << b.size() << " keys";
  }
  b.push(12, 60.0);  // exactly max_keys
  EXPECT_EQ(b.trigger(60.0, kBusy), Trigger::kSize);
}

TEST(AdaptiveBatcher, FullBatchReportsSizeEvenWhenIdle) {
  AdaptiveBatcher b(2, 100.0);
  b.push(1, 0.0);
  EXPECT_EQ(b.trigger(0.0, kIdleFleet), Trigger::kIdle);
  b.push(2, 0.0);
  EXPECT_EQ(b.trigger(0.0, kIdleFleet), Trigger::kSize);
  EXPECT_EQ(b.trigger(1e18, kIdleFleet), Trigger::kSize);  // also past deadline
}

TEST(AdaptiveBatcher, TakeReportsPerQueryAccruedWait) {
  AdaptiveBatcher b(8, 100.0);
  b.push(11, 10.0);
  b.push(22, 40.0);
  b.push(33, 40.0);
  const auto batch = b.take(110.0);
  ASSERT_EQ(batch.keys.size(), 3u);
  EXPECT_EQ(batch.keys[0], 11u);
  ASSERT_EQ(batch.queued_ns.size(), 3u);
  EXPECT_DOUBLE_EQ(batch.queued_ns[0], 100.0);  // waited since t=10
  EXPECT_DOUBLE_EQ(batch.queued_ns[1], 70.0);
  EXPECT_DOUBLE_EQ(batch.queued_ns[2], 70.0);
  // take() resets: the next round starts empty with a fresh deadline.
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.trigger(1e18, kBusy), Trigger::kNone);
  b.push(44, 200.0);
  EXPECT_DOUBLE_EQ(b.next_deadline_ns(), 300.0);
}

TEST(AdaptiveBatcher, SizeBeatsDeadlineUnderLoad) {
  // Under load the size trigger fires long before the deadline — the
  // throughput side of the trade-off.
  AdaptiveBatcher b(2, 1000.0);
  b.push(1, 0.0);
  b.push(2, 0.5);
  EXPECT_EQ(b.trigger(1.0, kBusy), Trigger::kSize);  // deadline was t=1000
}

TEST(AdaptiveBatcher, ZeroDelayDegeneratesToImmediateFlush) {
  // max_delay_ns = 0: every pending query is already due — the
  // batcher-less Method-A-style configuration.
  AdaptiveBatcher b(1000, 0.0);
  b.push(5, 42.0);
  EXPECT_EQ(b.trigger(42.0, kBusy), Trigger::kDeadline);
}

TEST(AdaptiveBatcherDeath, RejectsNonsenseKnobs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(AdaptiveBatcher(0, 10.0), "max_keys = 0");
  EXPECT_DEATH(AdaptiveBatcher(4, -1.0), "max_delay_ns = -1");
}

}  // namespace
}  // namespace dici::core
