// Tests for the real-time workload drivers (kept short: total sleep time in
// this file is well under a second).
#include "cfs/workload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

namespace ear::cfs {
namespace {

CfsConfig tiny_config() {
  CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;
  cfg.seed = 41;
  return cfg;
}

TEST(WriteWorkload, GeneratesAndRecordsWrites) {
  const auto cfg = tiny_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  MiniCfs cfs(cfg, std::make_unique<InstantTransport>(topo));

  WriteWorkload writes(cfs, /*rate=*/200.0, /*seed=*/1);
  writes.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  writes.stop();

  EXPECT_GT(writes.completed(), 3);
  const auto samples = writes.samples();
  EXPECT_EQ(static_cast<int>(samples.size()), writes.completed());
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].first, samples[i - 1].first) << "sorted by issue";
  }
  const Summary summary = writes.response_summary();
  EXPECT_EQ(summary.count(), samples.size());
  // Instant transport: responses are just bookkeeping overhead.
  EXPECT_LT(summary.mean(), 0.05);
}

TEST(WriteWorkload, StopIsIdempotentAndPromptly) {
  const auto cfg = tiny_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  MiniCfs cfs(cfg, std::make_unique<InstantTransport>(topo));
  WriteWorkload writes(cfs, 50.0, 2);
  writes.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto t0 = std::chrono::steady_clock::now();
  writes.stop();
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_s, 0.5);
  const int count = writes.completed();
  writes.stop();  // second stop: no-op
  EXPECT_EQ(writes.completed(), count);
}

// A zero (or negative) rate is an empty stream, not an infinite wait: no
// request thread starts, no write is issued, and stop returns at once.
TEST(WriteWorkload, ZeroRateIssuesNothing) {
  const auto cfg = tiny_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  MiniCfs cfs(cfg, std::make_unique<InstantTransport>(topo));
  for (const double rate : {0.0, -1.0}) {
    WriteWorkload writes(cfs, rate, 3);
    writes.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    writes.stop();
    EXPECT_EQ(writes.completed(), 0);
    EXPECT_TRUE(writes.samples().empty());
  }
  EXPECT_EQ(cfs.transport().cross_rack_bytes() +
                cfs.transport().intra_rack_bytes(),
            0);
}

TEST(BackgroundTraffic, ZeroRateSendsNothing) {
  const auto cfg = tiny_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  MiniCfs cfs(cfg, std::make_unique<InstantTransport>(topo));
  BackgroundTraffic traffic(cfs, {{0, 2}, {4, 6}}, /*bytes_per_second=*/0,
                            16_KB);
  traffic.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  traffic.stop();
  EXPECT_EQ(cfs.transport().cross_rack_bytes(), 0);
}

TEST(BackgroundTraffic, InjectsBytesWhileRunning) {
  const auto cfg = tiny_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  MiniCfs cfs(cfg, std::make_unique<InstantTransport>(topo));

  BackgroundTraffic traffic(cfs, {{0, 2}, {4, 6}},
                            /*bytes_per_second=*/10e6, /*burst=*/16_KB);
  traffic.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  traffic.stop();

  EXPECT_GT(cfs.transport().cross_rack_bytes(), 0);
}

TEST(BackgroundTraffic, StopHaltsInjection) {
  const auto cfg = tiny_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  MiniCfs cfs(cfg, std::make_unique<InstantTransport>(topo));
  BackgroundTraffic traffic(cfs, {{0, 2}}, 10e6, 16_KB);
  traffic.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  traffic.stop();
  const int64_t after_stop = cfs.transport().cross_rack_bytes();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(cfs.transport().cross_rack_bytes(), after_stop);
}

}  // namespace
}  // namespace ear::cfs
