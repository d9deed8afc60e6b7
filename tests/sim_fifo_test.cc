#include <gtest/gtest.h>

#include "sim/cluster.h"
#include "sim/network.h"

namespace ear::sim {
namespace {

NetConfig fifo_config(double bw = 100.0) {
  NetConfig c;
  c.node_bw = bw;
  c.rack_uplink_bw = bw;
  return c;
}

TEST(FifoNetwork, SingleTransferMatchesMaxMinTiming) {
  // A lone transfer takes size / bandwidth, the timing a max-min fluid link
  // would give it: the reservation slots leave no gaps.
  Engine e;
  const Topology topo(2, 2);
  Network net(e, topo, fifo_config());
  double done = -1;
  net.start_transfer(0, 2, 100, [&] { done = e.now(); });
  e.run();
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST(FifoNetwork, ContendersShareInFifoChunks) {
  // 1 MB/s links; two 1 MB transfers leave node 0 together.  Each holds the
  // up-link in sixteen 64 KB slots, and the slots alternate.
  Engine e;
  const Topology topo(2, 4);
  Network net(e, topo, fifo_config(static_cast<double>(1_MB)));
  std::vector<double> done;
  net.start_transfer(0, 1, 1_MB, [&] { done.push_back(e.now()); });
  net.start_transfer(0, 2, 1_MB, [&] { done.push_back(e.now()); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Interleaved, both finish within one slot of 2 s (serial would be 1 s
  // and 2 s).
  EXPECT_NEAR(done[1], 2.0, 1e-9);
  EXPECT_NEAR(done[0], 2.0 - 1.0 / 16, 1e-9);
}

TEST(FifoNetwork, ShortTransferWaitsAtMostOneSlotOfALongOne) {
  // The slot is a sixteenth of each transfer's own size: a 64 MB transfer
  // holds the shared up-link 4 MB at a time, so a 64 KB transfer that
  // arrives mid-slot waits for that slot, and for no more.
  static_assert(reservation_chunk(64_MB) == 4_MB);
  static_assert(reservation_chunk(100) == 64_KB);
  Engine e;
  const Topology topo(2, 4);
  const double bw = static_cast<double>(16_MB);
  Network net(e, topo, fifo_config(bw));
  double long_done = -1, short_done = -1;
  net.start_transfer(0, 1, 64_MB, [&] { long_done = e.now(); });
  e.schedule_at(0.1, [&] {
    net.start_transfer(0, 2, 64_KB, [&] { short_done = e.now(); });
  });
  e.run();
  const double slot = static_cast<double>(4_MB) / bw;
  const double own = static_cast<double>(64_KB) / bw;
  // It lands right after the slot in flight at its arrival, and the long
  // transfer's second slot queues behind it.
  EXPECT_NEAR(short_done, slot + own, 1e-9);
  EXPECT_NEAR(long_done, static_cast<double>(64_MB) / bw + own, 1e-9);
}

TEST(FifoNetwork, EarlierArrivalFinishesFirst) {
  Engine e;
  const Topology topo(2, 4);
  Network net(e, topo, fifo_config());
  double first = -1, second = -1;
  net.start_transfer(0, 1, 100, [&] { first = e.now(); });
  e.schedule_at(0.5, [&] {
    net.start_transfer(0, 2, 100, [&] { second = e.now(); });
  });
  e.run();
  EXPECT_LT(first, second);
}

TEST(FifoNetwork, DiskReadsSerializePerNode) {
  Engine e;
  const Topology topo(2, 2);
  auto cfg = fifo_config();
  cfg.disk_bw = 50.0;
  Network net(e, topo, cfg);
  std::vector<double> done;
  net.start_disk_read(0, 100, [&] { done.push_back(e.now()); });
  net.start_disk_read(0, 100, [&] { done.push_back(e.now()); });
  // A different node's disk is independent.
  double other = -1;
  net.start_disk_read(1, 100, [&] { other = e.now(); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[1], 4.0, 0.25);  // 200 bytes through one 50 B/s disk
  EXPECT_NEAR(other, 2.0, 1e-6);
}

TEST(FifoNetwork, DiskFreeWhenUnconfigured) {
  Engine e;
  const Topology topo(2, 2);
  Network net(e, topo, fifo_config());
  double done = -1;
  net.start_disk_read(0, 1'000'000, [&] { done = e.now(); });
  e.run();
  EXPECT_NEAR(done, 0.0, 1e-9);
}

TEST(ClusterSim, FifoModeProducesSameWinner) {
  SimConfig base;
  base.racks = 8;
  base.nodes_per_rack = 4;
  base.placement.code = CodeParams{8, 6};
  base.block_size = 8_MB;
  base.encode_processes = 4;
  base.stripes_per_process = 5;
  base.encode_start = 5.0;
  base.seed = 13;

  base.use_ear = false;
  const SimResult rr = ClusterSim(base).run();
  base.use_ear = true;
  const SimResult ear = ClusterSim(base).run();
  EXPECT_GT(ear.encode_throughput_mbps, rr.encode_throughput_mbps);
  EXPECT_EQ(ear.encoding_cross_rack_downloads, 0);
}

TEST(ClusterSim, ComputeDelaySlowsEncoding) {
  SimConfig base;
  base.racks = 8;
  base.nodes_per_rack = 4;
  base.placement.code = CodeParams{8, 6};
  base.block_size = 8_MB;
  base.encode_processes = 4;
  base.stripes_per_process = 5;
  base.encode_start = 1.0;
  base.write_rate = 0;
  base.background_rate = 0;
  base.seed = 21;

  const SimResult fast = ClusterSim(base).run();
  base.encode_compute_seconds = 2.0;
  const SimResult slow = ClusterSim(base).run();
  // 5 stripes per process, 2 s of compute each: at least 10 s slower.
  EXPECT_GE((slow.encode_end - slow.encode_begin) -
                (fast.encode_end - fast.encode_begin),
            9.0);
}

TEST(ClusterSim, DiskBandwidthSlowsEarEncoding) {
  // Single-node racks: every EAR first replica sits on the encoder itself,
  // so all k downloads become disk reads.
  SimConfig base;
  base.racks = 12;
  base.nodes_per_rack = 1;
  base.placement.code = CodeParams{8, 6};
  base.placement.replication = 2;
  base.use_ear = true;
  base.block_size = 8_MB;
  base.encode_processes = 4;
  base.stripes_per_process = 5;
  base.encode_start = 1.0;
  base.write_rate = 0;
  base.background_rate = 0;
  base.seed = 22;

  const SimResult free_disk = ClusterSim(base).run();
  base.net.disk_bw = base.net.node_bw / 10.0;
  const SimResult slow_disk = ClusterSim(base).run();
  EXPECT_GT(slow_disk.encode_end - slow_disk.encode_begin,
            free_disk.encode_end - free_disk.encode_begin);
}

}  // namespace
}  // namespace ear::sim
