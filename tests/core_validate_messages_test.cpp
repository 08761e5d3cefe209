// Config-validation diagnostics: a bad ExperimentConfig must die naming
// the offending FIELD and its VALUE, not just a bare DICI_CHECK
// expression — the difference between a five-second fix and a debugger
// session for whoever wired the config.
#include <gtest/gtest.h>

#include "src/arch/machine.hpp"
#include "src/core/engine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/core/store.hpp"
#include "src/util/bytes.hpp"

namespace dici::core {
namespace {

ExperimentConfig good_config() {
  ExperimentConfig cfg;
  cfg.method = Method::kC3;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 5;
  return cfg;
}

class ValidateDeath : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(ValidateDeath, TooFewNodesNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.num_nodes = 1;
  cfg.num_masters = 0;
  EXPECT_DEATH(validate(cfg), "num_nodes = 1");
}

TEST_F(ValidateDeath, TinyBatchNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.batch_bytes = 2;
  EXPECT_DEATH(validate(cfg), "batch_bytes = 2");
}

TEST_F(ValidateDeath, BufferFractionNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.buffer_fraction = 1.5;
  EXPECT_DEATH(validate(cfg), "buffer_fraction = 1.5");
}

TEST_F(ValidateDeath, ZeroMastersNamesField) {
  auto cfg = good_config();
  cfg.num_masters = 0;
  EXPECT_DEATH(validate(cfg), "num_masters = 0");
}

TEST_F(ValidateDeath, AllMastersNoSlaveNamesBothFields) {
  auto cfg = good_config();
  cfg.num_nodes = 3;
  cfg.num_masters = 3;
  EXPECT_DEATH(validate(cfg), "num_nodes = 3 with num_masters = 3");
}

TEST_F(ValidateDeath, RetryKnobsNameFieldAndValue) {
  auto cfg = good_config();
  cfg.max_retries = 1001;
  EXPECT_DEATH(validate(cfg), "max_retries = 1001");
  auto low = good_config();
  low.retry_backoff_us = 50;
  EXPECT_DEATH(validate(low), "retry_backoff_us = 50");
  auto high = good_config();
  high.retry_backoff_us = 20'000'000;
  EXPECT_DEATH(validate(high), "retry_backoff_us = 20000000");
}

TEST_F(ValidateDeath, NativeFlushPolicyNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.flush_policy = FlushPolicy::kPerSlaveThreshold;
  EXPECT_DEATH(check_native_supported(cfg),
               "flush_policy = per-slave-threshold");
}

TEST(ValidateAccepts, TrackLatencyOnEveryNativeBackend) {
  // Once simulator-only (check_native_supported aborted on it),
  // track_latency is now a first-class knob on every backend: the
  // native engines fill RunReport::latency_ns with measured wall time.
  ExperimentConfig cfg;
  cfg.machine = arch::pentium3_cluster();
  cfg.num_nodes = 4;
  cfg.track_latency = true;
  check_native_supported(cfg);  // must not abort
  EXPECT_TRUE(parallel_config_from(cfg).track_latency);
}

TEST_F(ValidateDeath, ParallelWrongMethodNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.method = Method::kA;
  EXPECT_DEATH(parallel_config_from(cfg), "method = A");
}

TEST_F(ValidateDeath, ParallelConfigKnobsNameFieldAndValue) {
  ParallelConfig cfg;
  cfg.num_threads = 0;
  EXPECT_DEATH(ParallelNativeEngine{cfg}, "num_threads = 0");
  ParallelConfig tiny;
  tiny.batch_bytes = 1;
  EXPECT_DEATH(ParallelNativeEngine{tiny}, "batch_bytes = 1");
}

TEST_F(ValidateDeath, BadKernelEnumNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.kernel = static_cast<SearchKernel>(42);
  EXPECT_DEATH(validate(cfg), "kernel = 42");
  // The same miscast dies the same way through every backend factory.
  for (const Backend backend : kAllBackends) {
    EXPECT_DEATH(make_engine(backend, cfg), "kernel = 42")
        << backend_name(backend);
  }
}

TEST_F(ValidateDeath, ParallelKernelKnobsNameFieldAndValue) {
  ParallelConfig bad_kernel;
  bad_kernel.kernel = static_cast<SearchKernel>(9);
  EXPECT_DEATH(ParallelNativeEngine{bad_kernel}, "kernel = 9");
}

TEST_F(ValidateDeath, BadPlacementEnumNamesFieldAndValue) {
  auto cfg = good_config();
  cfg.placement = static_cast<Placement>(17);
  EXPECT_DEATH(validate(cfg), "placement = 17");
  for (const Backend backend : kAllBackends) {
    EXPECT_DEATH(make_engine(backend, cfg), "placement = 17")
        << backend_name(backend);
  }
}

TEST_F(ValidateDeath, ParallelNumaKnobsNameFieldAndValue) {
  ParallelConfig bad_placement;
  bad_placement.placement = static_cast<Placement>(8);
  EXPECT_DEATH(ParallelNativeEngine{bad_placement}, "placement = 8");
  ParallelConfig too_many_nodes;
  too_many_nodes.numa_nodes = 5000;
  EXPECT_DEATH(ParallelNativeEngine{too_many_nodes}, "numa_nodes = 5000");
}

TEST_F(ValidateDeath, WritePathKnobsNameFieldAndValue) {
  auto no_room = good_config();
  no_room.max_delta_keys = 0;
  EXPECT_DEATH(validate(no_room), "max_delta_keys = 0");
  auto zero_trigger = good_config();
  zero_trigger.rebuild_trigger_fraction = 0.0;
  EXPECT_DEATH(validate(zero_trigger), "rebuild_trigger_fraction = 0");
  auto over_trigger = good_config();
  over_trigger.rebuild_trigger_fraction = 1.5;
  EXPECT_DEATH(validate(over_trigger), "rebuild_trigger_fraction = 1.5");
  auto no_threads = good_config();
  no_threads.writer_threads = 0;
  EXPECT_DEATH(validate(no_threads), "writer_threads = 0");
  auto too_many_threads = good_config();
  too_many_threads.writer_threads = 1000;
  EXPECT_DEATH(validate(too_many_threads), "writer_threads = 1000");
}

// StoreOptions repeats the gate with its own field names, so a bad
// store config is attributed to the right struct.
TEST_F(ValidateDeath, StoreOptionsNameFieldAndValue) {
  StoreOptions no_room;
  no_room.max_delta_keys = 0;
  EXPECT_DEATH(validate(no_room), "StoreOptions::max_delta_keys = 0");
  StoreOptions bad_fraction;
  bad_fraction.rebuild_trigger_fraction = -0.25;
  EXPECT_DEATH(validate(bad_fraction),
               "StoreOptions::rebuild_trigger_fraction = -0.25");
  StoreOptions no_threads;
  no_threads.writer_threads = 0;
  EXPECT_DEATH(validate(no_threads), "StoreOptions::writer_threads = 0");
}

TEST_F(ValidateDeath, ClusterHeartbeatKnobsNameFieldAndValue) {
  // The failure detector's cadence: a zero interval means no beats at
  // all, and a timeout under twice the interval means one delayed beat
  // kills a healthy node.
  auto cfg = good_config();
  cfg.heartbeat_interval_ms = 0;
  EXPECT_DEATH(validate(cfg), "heartbeat_interval_ms = 0");
  auto tight = good_config();
  tight.heartbeat_interval_ms = 25;
  tight.heartbeat_timeout_ms = 25;
  EXPECT_DEATH(validate(tight),
               "heartbeat_timeout_ms = 25 with heartbeat_interval_ms = 25");
}

TEST_F(ValidateDeath, BadTransportFlagNamesValueAndChoices) {
  // The CLI-facing transport parse: a typo'd flag dies naming the bad
  // VALUE and enumerating the full valid set, so the fix is a
  // copy-paste away.
  EXPECT_DEATH(net::transport_from_flag("carrier-pigeon", "--transport"),
               "--transport = \"carrier-pigeon\" is not a transport "
               "\\(want socket\\|fork\\|tcp\\)");
  // The retired in-process ring transport is no longer a spelling.
  EXPECT_DEATH(net::transport_from_flag("ring", "--transport"),
               "--transport = \"ring\" is not a transport "
               "\\(want socket\\|fork\\|tcp\\)");
}

TEST(ValidateAccepts, EveryTransportFlagParses) {
  EXPECT_EQ(net::transport_from_flag("socket", "--transport"),
            net::TransportKind::kSocket);
  EXPECT_EQ(net::transport_from_flag("fork", "--transport"),
            net::TransportKind::kFork);
  EXPECT_EQ(net::transport_from_flag("tcp", "--transport"),
            net::TransportKind::kTcp);
}

TEST_F(ValidateDeath, BadKernelFlagNamesValueAndChoices) {
  // The --kernels parse: a kernel that left the menu dies naming the
  // VALUE and the kernels that remain.
  EXPECT_DEATH(search_kernel_from_flag("prefetch", "--kernels"),
               "--kernels = \"prefetch\" is not a search kernel "
               "\\(want std-upper-bound\\|branchless\\|eytzinger\\|"
               "batched-eytzinger\\)");
}

TEST(ValidateAccepts, EveryKernelFlagParses) {
  for (const SearchKernel kernel : all_search_kernels())
    EXPECT_EQ(search_kernel_from_flag(search_kernel_name(kernel), "--kernels"),
              kernel);
}

TEST_F(ValidateDeath, BadBackendFlagNamesValueAndChoices) {
  // The --backends parse: the retired native backend dies naming the
  // VALUE and the backends that remain.
  EXPECT_DEATH(backend_from_flag("native", "--backends"),
               "--backends = \"native\" is not a backend "
               "\\(want sim\\|parallel-native\\|cluster\\)");
}

TEST(ValidateAccepts, EveryBackendFlagParses) {
  for (const Backend backend : kAllBackends)
    EXPECT_EQ(backend_from_flag(backend_name(backend), "--backends"), backend);
}

// The messages gate configs the same way through make_engine, whatever
// the backend.
TEST_F(ValidateDeath, MakeEngineFunnelsThroughValidate) {
  auto cfg = good_config();
  cfg.num_nodes = 1;
  cfg.num_masters = 0;
  for (const Backend backend : kAllBackends) {
    EXPECT_DEATH(make_engine(backend, cfg), "num_nodes = 1")
        << backend_name(backend);
  }
}

}  // namespace
}  // namespace dici::core
