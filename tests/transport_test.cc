#include "cfs/transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "qos/qos.h"

namespace ear::cfs {
namespace {

using Clock = std::chrono::steady_clock;

double timed(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(InstantTransport, CountsBytesByLocality) {
  const Topology topo(3, 2);
  InstantTransport t(topo);
  t.transfer(0, 1, 100);  // intra
  t.transfer(0, 2, 200);  // cross
  t.transfer(4, 4, 999);  // local: free
  EXPECT_EQ(t.intra_rack_bytes(), 100);
  EXPECT_EQ(t.cross_rack_bytes(), 200);
}

// Runs `check` on a transport built from `cfg` once per link discipline:
// FIFO (qos.enable off) and weighted fair sharing (qos.enable on).  The
// timing properties below hold for both.
void for_each_discipline(const Topology& topo, ThrottleConfig cfg,
                         const std::function<void(ThrottledTransport&)>& check) {
  for (const bool qos : {false, true}) {
    SCOPED_TRACE(qos ? "qos.enable = true" : "qos.enable = false");
    cfg.qos.enable = qos;
    ThrottledTransport t(topo, cfg);
    check(t);
  }
}

TEST(ThrottledTransport, SingleTransferTakesExpectedTime) {
  ThrottleConfig cfg;
  cfg.node_bw = 10e6;  // 10 MB/s
  cfg.rack_uplink_bw = 10e6;
  cfg.chunk_size = 64_KB;
  for_each_discipline(Topology(2, 2), cfg, [](ThrottledTransport& t) {
    // 1 MB at 10 MB/s = 0.1 s.
    const double elapsed = timed([&] { t.transfer(0, 2, 1_MB); });
    EXPECT_GT(elapsed, 0.08);
    EXPECT_LT(elapsed, 0.25);
    EXPECT_EQ(t.cross_rack_bytes(), 1_MB);
  });
}

TEST(ThrottledTransport, LocalTransferIsFree) {
  ThrottleConfig cfg;
  cfg.node_bw = 1e6;
  cfg.rack_uplink_bw = 1e6;
  for_each_discipline(Topology(2, 2), cfg, [](ThrottledTransport& t) {
    const double elapsed = timed([&] { t.transfer(1, 1, 100_MB); });
    EXPECT_LT(elapsed, 0.01);
  });
}

TEST(ThrottledTransport, ContendingTransfersShareALink) {
  ThrottleConfig cfg;
  cfg.node_bw = 20e6;
  cfg.rack_uplink_bw = 20e6;
  cfg.chunk_size = 64_KB;
  for_each_discipline(Topology(2, 2), cfg, [](ThrottledTransport& t) {
    // Alone: 1 MB through node 0's uplink at 20 MB/s = 50 ms.
    const double alone = timed([&] { t.transfer(0, 1, 1_MB); });

    // Two concurrent transfers out of node 0 share its uplink: ~2x slower.
    std::vector<std::thread> threads;
    const double together = timed([&] {
      threads.emplace_back([&] { t.transfer(0, 1, 1_MB); });
      threads.emplace_back([&] { t.transfer(0, 2, 1_MB); });
      for (auto& th : threads) th.join();
    });
    EXPECT_GT(together, alone * 1.5);
  });
}

TEST(ThrottledTransport, DisjointPathsDoNotContend) {
  ThrottleConfig cfg;
  cfg.node_bw = 20e6;
  cfg.rack_uplink_bw = 20e6;
  cfg.chunk_size = 64_KB;
  for_each_discipline(Topology(4, 2), cfg, [](ThrottledTransport& t) {
    const double alone = timed([&] { t.transfer(0, 1, 1_MB); });
    std::vector<std::thread> threads;
    const double together = timed([&] {
      threads.emplace_back([&] { t.transfer(2, 3, 1_MB); });
      threads.emplace_back([&] { t.transfer(4, 5, 1_MB); });
      for (auto& th : threads) th.join();
    });
    EXPECT_LT(together, alone * 1.8) << "disjoint paths should run in parallel";
  });
}

TEST(ThrottledTransport, OversubscribedCoreSlowsCrossRackOnly) {
  ThrottleConfig cfg;
  cfg.node_bw = 40e6;
  cfg.rack_uplink_bw = 10e6;  // 4:1 oversubscription
  cfg.chunk_size = 64_KB;
  for_each_discipline(Topology(2, 4), cfg, [](ThrottledTransport& t) {
    const double intra = timed([&] { t.transfer(0, 1, 1_MB); });
    const double cross = timed([&] { t.transfer(0, 4, 1_MB); });
    EXPECT_GT(cross, intra * 2.0);
  });
}

// Under FIFO the repair budget is the RepairManager's token bucket, so the
// transport must not meter the repair class too: a repair-scoped inject far
// beyond a tiny class_rate returns at once (a metered one would take hours).
TEST(ThrottledTransport, FifoIgnoresClassBudgets) {
  ThrottleConfig cfg;
  cfg.qos.class_rate[static_cast<int>(qos::TrafficClass::kRepair)] = 1000;
  ThrottledTransport t(Topology(2, 2), cfg);
  ASSERT_FALSE(t.qos_enabled());
  qos::QosScope scope(qos::TrafficClass::kRepair, 0);
  const double elapsed = timed([&] { t.inject(0, 2, 8_MB); });
  EXPECT_LT(elapsed, 1.0);
  EXPECT_EQ(t.cross_rack_bytes(), 8_MB);
}

}  // namespace
}  // namespace ear::cfs
