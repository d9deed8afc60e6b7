#include "sim/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace ear::sim {
namespace {

// Convenient round numbers: every link 100 bytes/s.
NetConfig flat_config(double bw = 100.0) {
  NetConfig c;
  c.node_bw = bw;
  c.rack_uplink_bw = bw;
  return c;
}

TEST(Network, SingleIntraRackTransferTime) {
  Engine e;
  const Topology topo(2, 4);
  Network net(e, topo, flat_config());
  double done_at = -1;
  net.start_transfer(0, 1, 100, [&] { done_at = e.now(); });
  e.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
  EXPECT_EQ(net.intra_rack_bytes(), 100);
  EXPECT_EQ(net.cross_rack_bytes(), 0);
}

TEST(Network, SingleCrossRackTransferTime) {
  Engine e;
  const Topology topo(2, 4);
  Network net(e, topo, flat_config());
  double done_at = -1;
  net.start_transfer(0, 4, 100, [&] { done_at = e.now(); });
  e.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
  EXPECT_EQ(net.cross_rack_bytes(), 100);
  EXPECT_EQ(net.cross_rack_transfers(), 1);
}

TEST(Network, LocalTransferIsImmediate) {
  Engine e;
  const Topology topo(2, 2);
  Network net(e, topo, flat_config());
  double done_at = -1;
  net.start_transfer(1, 1, 1000000, [&] { done_at = e.now(); });
  e.run();
  EXPECT_NEAR(done_at, 0.0, 1e-9);
  EXPECT_EQ(net.cross_rack_bytes() + net.intra_rack_bytes(), 0);
}

TEST(Network, RackUplinkIsTheCrossRackBottleneck) {
  Engine e;
  const Topology topo(2, 4);
  NetConfig cfg;
  cfg.node_bw = 100.0;
  cfg.rack_uplink_bw = 50.0;  // oversubscribed core
  Network net(e, topo, cfg);
  double done_at = -1;
  net.start_transfer(0, 4, 100, [&] { done_at = e.now(); });
  e.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(Network, DisjointTransfersDoNotInterfere) {
  Engine e;
  const Topology topo(4, 2);
  Network net(e, topo, flat_config());
  std::vector<double> done;
  net.start_transfer(0, 1, 100, [&] { done.push_back(e.now()); });
  net.start_transfer(2, 3, 100, [&] { done.push_back(e.now()); });
  net.start_transfer(4, 5, 100, [&] { done.push_back(e.now()); });
  e.run();
  for (const double t : done) EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST(Network, ManyToOneCongestsReceiverDownlink) {
  Engine e;
  const Topology topo(5, 4);
  Network net(e, topo, flat_config());
  // 4 senders in different racks all target node 0: they queue on its
  // downlink (100 B/s), so the last one lands after 4 s.
  int completed = 0;
  for (NodeId src : {4, 8, 12, 16}) {
    net.start_transfer(src, 0, 100, [&] { ++completed; });
  }
  e.run();
  EXPECT_EQ(completed, 4);
  EXPECT_NEAR(e.now(), 4.0, 1e-9);
}

TEST(Network, CompletionCallbackCanStartNewTransfer) {
  Engine e;
  const Topology topo(2, 2);
  Network net(e, topo, flat_config());
  double chain_done = -1;
  net.start_transfer(0, 1, 100, [&] {
    net.start_transfer(1, 2, 100, [&] { chain_done = e.now(); });
  });
  e.run();
  EXPECT_NEAR(chain_done, 2.0, 1e-9);
}

TEST(Network, ByteAccountingSumsAllTransfers) {
  Engine e;
  const Topology topo(3, 2);
  Network net(e, topo, flat_config());
  net.start_transfer(0, 1, 10, [] {});   // intra
  net.start_transfer(0, 2, 20, [] {});   // cross
  net.start_transfer(3, 5, 30, [] {});   // cross
  e.run();
  EXPECT_EQ(net.intra_rack_bytes(), 10);
  EXPECT_EQ(net.cross_rack_bytes(), 50);
  EXPECT_EQ(net.cross_rack_transfers(), 2);
}

}  // namespace
}  // namespace ear::sim
