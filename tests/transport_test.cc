#include "cfs/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/wake_record.h"
#include "datapath/pipeline.h"
#include "datapath/worker_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"
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

// ------------------------------------------------------ wake-up lag credit

// 2 MiB at 20 MB/s in 8 KiB chunks: 256 chunks, 104.9 ms of wire (or disk)
// time.  A stop-and-wait sender idles its link for its wake-up lag after
// every chunk — some 60-100 us each, 15-25% over on this shape.
constexpr Bytes kLoneBytes = 2_MB;
constexpr double kLoneSeconds = static_cast<double>(kLoneBytes) / 20e6;

ThrottleConfig small_chunks() {
  ThrottleConfig cfg;
  cfg.node_bw = 20e6;
  cfg.rack_uplink_bw = 20e6;
  cfg.disk_bw = 20e6;
  cfg.chunk_size = 8_KB;
  return cfg;
}

double on_fresh_thread(const std::function<void()>& fn) {
  double elapsed = 0;
  std::thread([&] { elapsed = timed(fn); }).join();
  return elapsed;
}

// A lone sender's back-to-back chunks keep its links busy: the transfer
// lasts its wire time, not that plus a wake-up lag per chunk.
TEST(ThrottledTransport, LoneChunkedTransferRunsAtWireSpeed) {
  for_each_discipline(Topology(2, 2), small_chunks(), [](ThrottledTransport& t) {
    const double elapsed = timed([&] { t.transfer(0, 2, kLoneBytes); });
    EXPECT_LT(elapsed, 1.05 * kLoneSeconds);
  });
}

TEST(ThrottledTransport, LoneChunkedLocalReadRunsAtDiskSpeed) {
  for_each_discipline(Topology(2, 2), small_chunks(), [](ThrottledTransport& t) {
    const double elapsed = timed([&] { t.local_read(1, kLoneBytes); });
    EXPECT_LT(elapsed, 1.05 * kLoneSeconds);
  });
}

// The credit only gives back a thread's own oversleep, so a transfer or
// disk read issued from a fresh thread never beats bytes / bandwidth.
TEST(LagCredit, FreshThreadNeverBeatsWireTime) {
  for_each_discipline(Topology(2, 2), small_chunks(), [](ThrottledTransport& t) {
    EXPECT_GE(on_fresh_thread([&] { t.transfer(0, 2, kLoneBytes); }),
              kLoneSeconds);
    EXPECT_GE(on_fresh_thread([&] { t.local_read(1, kLoneBytes); }),
              kLoneSeconds);
  });
}

// The credit is the thread's own oversleep and no more, so its serial
// steps never overlap even where the next one runs on an idle link: a disk
// read then a transfer of what was read take at least their sum, however
// many times over.
TEST(LagCredit, SerialStepsOnOtherLinksNeverOverlap) {
  for_each_discipline(Topology(2, 2), small_chunks(), [](ThrottledTransport& t) {
    constexpr int kSteps = 64;
    const double elapsed = on_fresh_thread([&] {
      for (int i = 0; i < kSteps; ++i) {
        t.local_read(0, 8_KB);
        t.transfer(0, 2, 8_KB);
      }
    });
    EXPECT_GE(elapsed, kSteps * 2 * static_cast<double>(8_KB) / 20e6);
  });
}

// A thread that spends longer than its credit on CPU or asleep between two
// transfers is no longer back to back: its next chunk gets no credit (the
// testbed.net.lag_credit_seconds histogram records none) and lasts at
// least its wire time.
TEST(LagCredit, NoCreditAfterALongerGap) {
  obs::Config ocfg;
  ocfg.metrics = true;
  obs::init(ocfg);
  constexpr auto kGap = std::chrono::milliseconds(50);
  const std::function<void()> gaps[] = {
      [&] {
        const auto until = Clock::now() + kGap;
        while (Clock::now() < until) {
        }
      },
      [&] { std::this_thread::sleep_for(kGap); },
  };
  for_each_discipline(Topology(2, 2), small_chunks(), [&](ThrottledTransport& t) {
    // Registered by the transport; the lookup returns its instrument.
    const auto& credited = obs::Registry::instance().histogram(
        "testbed.net.lag_credit_seconds", {});
    for (const auto& gap : gaps) {
      const int64_t warm = credited.count();
      t.transfer(0, 2, 64_KB);  // 8 back-to-back chunks: credit is live
      EXPECT_GT(credited.count(), warm);
      gap();
      const int64_t before = credited.count();
      const double elapsed = timed([&] { t.transfer(0, 2, 8_KB); });
      EXPECT_EQ(credited.count(), before);
      EXPECT_GE(elapsed, static_cast<double>(8_KB) / 20e6);
    }
  });
  obs::shutdown();
}

// Two threads interleaving chunks on one up-link share it: credit or not,
// the link never carries more than its rate.
TEST(LagCredit, SharedLinkNeverBeatsItsRate) {
  for_each_discipline(Topology(3, 1), small_chunks(), [](ThrottledTransport& t) {
    std::vector<std::thread> threads;
    const double together = timed([&] {
      threads.emplace_back([&] { t.transfer(0, 1, kLoneBytes / 2); });
      threads.emplace_back([&] { t.transfer(0, 2, kLoneBytes / 2); });
      for (auto& th : threads) th.join();
    });
    EXPECT_GE(together, kLoneSeconds);
  });
}

// ------------------------------------------------------- chain hand-offs

using datapath::StagedPipeline;

// A two-hop chain: hop 0 crosses racks through 10 MB/s rack links, hop 1
// stays in the reader's rack at 40 MB/s, 4x faster.  Each hop of chunk c is
// handed the time hop 0 landed it, never the chain's start, so however far
// ahead the fast hop could run, no chunk reaches the reader before its
// first-hop end plus its second-hop wire time.
TEST(ChainHandoff, NoChunkLandsBeforeItsUpstreamHopPlusItsWireTime) {
  ThrottleConfig cfg;
  cfg.node_bw = 40e6;
  cfg.rack_uplink_bw = 10e6;
  cfg.chunk_size = 32_KB;
  constexpr int kChunks = 8;
  const double fast_wire_s = static_cast<double>(cfg.chunk_size) / 40e6;
  // Node 0 sits in rack 0; nodes 2 and 3 in rack 1.
  const NodeId path[] = {0, 2, 3};
  for_each_discipline(Topology(2, 2), cfg, [&](ThrottledTransport& t) {
    std::mutex mu;
    // landed[h][c]: when hop h landed chunk c.
    std::vector<std::vector<Clock::time_point>> landed(
        2, std::vector<Clock::time_point>(kChunks));
    StagedPipeline::run_chain(
        kChunks, {2},
        [&](int h, int c) {
          t.transfer(path[h], path[h + 1], cfg.chunk_size);
          // The hand-off now holds when this hop landed the chunk.
          const auto ready = this_thread_wake().ready;
          ASSERT_TRUE(ready.has_value());
          std::lock_guard<std::mutex> lock(mu);
          landed[static_cast<size_t>(h)][static_cast<size_t>(c)] = *ready;
        },
        [](int) {});
    for (int c = 0; c < kChunks; ++c) {
      const double gap = std::chrono::duration<double>(
                             landed[1][static_cast<size_t>(c)] -
                             landed[0][static_cast<size_t>(c)])
                             .count();
      // 1 us covers the timeline's rounding of each slot to clock ticks.
      EXPECT_GE(gap, fast_wire_s - 1e-6) << "chunk " << c;
    }
  });
}

// Runs `probe` once on every thread of the shared pool: one task per
// thread, each held until all have started, so no two share a thread.
// False when the pool had to grow because a thread was still busy, so that
// not every old thread ran a probe.
bool on_every_pool_thread(const std::function<void()>& probe) {
  datapath::WorkerPool& pool = datapath::WorkerPool::shared();
  // Let the threads of the last call park before counting them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int threads = pool.thread_count();
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  {
    datapath::TaskGroup group(pool);
    for (int i = 0; i < threads; ++i) {
      group.submit([&] {
        {
          std::unique_lock<std::mutex> lock(mu);
          ++started;
          cv.notify_all();
          cv.wait(lock, [&] { return started == threads; });
        }
        probe();
      });
    }
    group.wait();
  }
  return pool.thread_count() == threads;
}

// After run_chain returns, no hand-off is left on any thread that ran a
// hop — the pool threads of a many-chunk chain, or the caller of a
// one-chunk chain, even when a hop threw — so a later plain transfer on it
// is not backdated: it takes at least its wire time.
TEST(ChainHandoff, NoReadyTimeOutlivesTheChain) {
  ThrottleConfig cfg;
  cfg.node_bw = 20e6;
  cfg.rack_uplink_bw = 20e6;
  cfg.chunk_size = 64_KB;
  const Topology topo(2, 2);
  const double wire_s = static_cast<double>(cfg.chunk_size) / 20e6;
  // A fresh transport per check, so no sender's own lag credit applies: a
  // transfer beats its wire time only from a stale hand-off, which would
  // date it at least the pause before it.
  const auto plain_transfer_s = [&] {
    ThrottledTransport fresh(topo, cfg);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return timed([&] { fresh.transfer(0, 2, cfg.chunk_size); });
  };

  ThrottledTransport t(topo, cfg);
  StagedPipeline::run_chain(
      4, {2},
      [&](int h, int) { t.transfer(h == 0 ? 0 : 1, h == 0 ? 1 : 2, 16_KB); },
      [](int) {});
  EXPECT_FALSE(this_thread_wake().ready.has_value());
  std::atomic<int> stale{0};
  std::atomic<int> fast{0};
  ASSERT_TRUE(on_every_pool_thread([&] {
    if (this_thread_wake().ready) stale.fetch_add(1);
    if (plain_transfer_s() < wire_s) fast.fetch_add(1);
  }));
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(fast.load(), 0);

  // One chunk: the hops run on the caller.
  StagedPipeline::run_chain(
      1, {2}, [&](int, int) { t.transfer(0, 1, 16_KB); }, [](int) {});
  EXPECT_FALSE(this_thread_wake().ready.has_value());
  EXPECT_GE(plain_transfer_s(), wire_s);
  EXPECT_THROW(StagedPipeline::run_chain(
                   1, {2},
                   [&](int, int) {
                     t.transfer(0, 1, 16_KB);
                     throw std::runtime_error("hop failed");
                   },
                   [](int) {}),
               std::runtime_error);
  EXPECT_FALSE(this_thread_wake().ready.has_value());
  EXPECT_GE(plain_transfer_s(), wire_s);
}

}  // namespace
}  // namespace ear::cfs
