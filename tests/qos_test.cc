// Tests for the cluster-wide QoS subsystem (qos/qos.h, qos/scheduler.h):
// deterministic WFQ grant order and convergence on FairQueueCore, real-time
// fairness / work-conservation / starvation-freedom / budget properties on
// LinkScheduler, the cluster-wide class budget on QosScheduler, weighted
// shares through ThrottledTransport, context-scope semantics, and the
// byte-identity sweep (invariant 11) over a full MiniCfs
// encode / kill / repair / read sequence with QoS off vs on.
//
// Real-time assertions use wide bands so the suite stays reliable under
// TSan's ~5-15x slowdown (the CI TSan job runs this file): ratios between
// two equally-slowed measurements are asserted tightly, absolute durations
// loosely.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/transport.h"
#include "common/rng.h"
#include "failure/repair.h"
#include "qos/qos.h"
#include "qos/scheduler.h"

namespace ear::qos {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr auto kFgRead = TrafficClass::kForegroundRead;
constexpr auto kRepair = TrafficClass::kRepair;

TransferContext ctx_of(TrafficClass cls, int tenant) {
  TransferContext c;
  c.cls = cls;
  c.tenant = tenant;
  return c;
}

bool admit_all(const FairQueueCore::Request&) { return true; }

// ------------------------------------------------------------ FairQueueCore

TEST(FairQueueCore, GrantsInVirtualFinishOrder) {
  QosConfig cfg;
  cfg.tenant_weight[1] = 3.0;
  cfg.tenant_weight[2] = 1.0;
  FairQueueCore core(cfg);

  // Both flows enqueue two equal requests while backlogged.  Tenant 1
  // (weight 12 = class 4 x tenant 3) accumulates virtual finish time three
  // times slower than tenant 2 (weight 4), so the order must be
  // t1, t1, t2, t1-would-be... — concretely with 2 requests each:
  // vfinish t1: B/12, 2B/12;  t2: B/4, 2B/4  ->  t1, t1, t2, t2.
  const uint64_t a1 = core.add(ctx_of(kFgRead, 1), 1200, true);
  const uint64_t b1 = core.add(ctx_of(kFgRead, 2), 1200, true);
  const uint64_t a2 = core.add(ctx_of(kFgRead, 1), 1200, true);
  const uint64_t b2 = core.add(ctx_of(kFgRead, 2), 1200, true);

  std::vector<uint64_t> order;
  FairQueueCore::Request req;
  while (core.grant_next(admit_all, &req)) order.push_back(req.id);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], a1);
  EXPECT_EQ(order[1], a2);
  EXPECT_EQ(order[2], b1);
  EXPECT_EQ(order[3], b2);
}

TEST(FairQueueCore, EqualWeightsGrantFifo) {
  QosConfig cfg;
  FairQueueCore core(cfg);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(core.add(ctx_of(kFgRead, i % 2), 512, true));
  }
  FairQueueCore::Request req;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(core.grant_next(admit_all, &req));
    // Equal vfinish increments: arrival id breaks the tie, i.e. FIFO.
    EXPECT_EQ(req.id, ids[i]);
  }
  EXPECT_TRUE(core.empty());
}

// The deterministic convergence proof: two continuously-backlogged flows
// with 3:1 weights must split granted bytes 3:1 (+/-10%) over any long
// window — no threads, no clock, pure WFQ accounting.
TEST(FairQueueCore, ConvergesToConfiguredWeights) {
  QosConfig cfg;
  cfg.tenant_weight[1] = 3.0;
  cfg.tenant_weight[2] = 1.0;
  FairQueueCore core(cfg);

  // Keep both flows at a backlog of 4 requests; replenish after each grant
  // (the open-loop condition WFQ's guarantees are stated under).
  const Bytes kReq = 64 * 1024;
  int queued[2] = {0, 0};
  int64_t granted[2] = {0, 0};
  const auto top_up = [&] {
    for (int t = 0; t < 2; ++t) {
      while (queued[t] < 4) {
        core.add(ctx_of(kFgRead, t + 1), kReq, true);
        ++queued[t];
      }
    }
  };
  top_up();
  FairQueueCore::Request req;
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(core.grant_next(admit_all, &req));
    granted[req.tenant - 1] += req.bytes;
    --queued[req.tenant - 1];
    top_up();
  }
  const double ratio =
      static_cast<double>(granted[0]) / static_cast<double>(granted[1]);
  EXPECT_GT(ratio, 3.0 * 0.9);
  EXPECT_LT(ratio, 3.0 * 1.1);
}

// Budget deferral must not starve or reorder a class away: requests the
// admit predicate rejects stay queued and are granted once admissible.
TEST(FairQueueCore, DeferredClassIsGrantedOnceAdmissible) {
  QosConfig cfg;
  FairQueueCore core(cfg);
  core.add(ctx_of(kRepair, 0), 1000, true);
  const uint64_t fg = core.add(ctx_of(kFgRead, 1), 1000, true);

  const auto reject_charged_repair = [](const FairQueueCore::Request& r) {
    return !(r.charge && r.class_idx == static_cast<int>(kRepair));
  };
  FairQueueCore::Request req;
  ASSERT_TRUE(core.grant_next(reject_charged_repair, &req));
  EXPECT_EQ(req.id, fg);
  // Repair is deferred, not lost...
  EXPECT_EQ(core.class_size(static_cast<int>(kRepair)), 1u);
  EXPECT_FALSE(core.grant_next(reject_charged_repair, &req));
  // ...and granted as soon as the budget admits it.
  ASSERT_TRUE(core.grant_next(admit_all, &req));
  EXPECT_EQ(req.class_idx, static_cast<int>(kRepair));
  EXPECT_TRUE(core.empty());
}

// Charge-once-per-path semantics: non-charging hops (every link of a
// transfer's path after the first) bypass budget admission entirely.
TEST(FairQueueCore, UnchargedRequestsBypassBudgetAdmission) {
  QosConfig cfg;
  FairQueueCore core(cfg);
  core.add(ctx_of(kRepair, 0), 1000, /*charge=*/false);
  const auto reject_all_charged = [](const FairQueueCore::Request& r) {
    return !r.charge;
  };
  FairQueueCore::Request req;
  ASSERT_TRUE(core.grant_next(reject_all_charged, &req));
  EXPECT_FALSE(req.charge);
}

// ------------------------------------------------------------ LinkScheduler

// Work-conservation, part 1: a single backlogged flow on an otherwise idle
// link gets the full link rate — its class weight (1 of 10) is irrelevant
// without competition.
TEST(LinkScheduler, SingleFlowGetsFullLinkRate) {
  QosConfig cfg;
  const double spb = 1.0 / 40e6;  // 40 MB/s
  LinkScheduler link(spb, cfg);

  const Bytes total = 2 * 1024 * 1024;  // 50 ms of link time
  const auto t0 = Clock::now();
  Clock::time_point end{};
  for (Bytes sent = 0; sent < total; sent += 64 * 1024) {
    end = link.request(ctx_of(TrafficClass::kBackgroundEncode, 0), 64 * 1024);
  }
  std::this_thread::sleep_until(end);
  const double elapsed = seconds_since(t0);
  const double ideal = static_cast<double>(total) * spb;
  EXPECT_GT(elapsed, ideal * 0.8);
  EXPECT_LT(elapsed, ideal * 8);  // generous: TSan, CI noise
}

// Work-conservation, part 2: an unused byte budget on one class must not
// idle the link for other classes.
TEST(LinkScheduler, UnusedBudgetDoesNotIdleTheLink) {
  QosConfig cfg;
  cfg.class_rate[static_cast<int>(kRepair)] = 1000;  // ~nothing
  const double spb = 1.0 / 40e6;
  LinkScheduler link(spb, cfg);

  const Bytes total = 2 * 1024 * 1024;
  const auto t0 = Clock::now();
  Clock::time_point end{};
  for (Bytes sent = 0; sent < total; sent += 64 * 1024) {
    end = link.request(ctx_of(kFgRead, 1), 64 * 1024);
  }
  std::this_thread::sleep_until(end);
  const double elapsed = seconds_since(t0);
  const double ideal = static_cast<double>(total) * spb;
  EXPECT_LT(elapsed, ideal * 8);
}

// A charged request beyond the class budget is deferred for roughly the
// bucket refill time; an uncharged request of the same class is not.
TEST(LinkScheduler, BudgetDefersChargedButNotUnchargedHops) {
  QosConfig cfg;
  // Rate 512 KB/s, bucket starts full at max(rate/2, 256KB) = 256KB.
  cfg.class_rate[static_cast<int>(kRepair)] = 512 * 1024;
  const double spb = 1.0 / 200e6;  // fast link: waits are bucket waits
  LinkScheduler link(spb, cfg);
  const Bytes kB = 256 * 1024;

  // The bucket is debt-style (admit while tokens are positive, charge the
  // full request): the first request drains the full bucket, the second is
  // still admitted into debt, and it is the next charged request that waits
  // for the refill to climb back above zero (~256KB / 512KB/s = 0.5 s).
  link.request(ctx_of(kRepair, 0), kB);
  link.request(ctx_of(kRepair, 0), kB);

  // Uncharged hop: granted without waiting on tokens even while in debt.
  auto t0 = Clock::now();
  link.request(ctx_of(kRepair, 0), kB, /*charge=*/false);
  EXPECT_LT(seconds_since(t0), 0.2);

  // Charged request: deferred until the debt is repaid.
  t0 = Clock::now();
  link.request(ctx_of(kRepair, 0), kB, /*charge=*/true);
  EXPECT_GT(seconds_since(t0), 0.2);
}

// FIFO is the unbounded-horizon case: with no class budget nothing ever
// waits, so no request enters the FairQueueCore and weights never decide an
// order.  Every reservation below lasts an hour or more, so a bounded
// horizon would block the second call that long; no timing bound is needed.
TEST(LinkScheduler, UnboundedHorizonGrantsOnArrivalInCallOrder) {
  QosConfig cfg;
  cfg.grant_horizon = std::numeric_limits<Seconds>::infinity();
  LinkScheduler link(/*seconds_per_byte=*/1.0, cfg);  // bytes = seconds

  // fg-read weighs 4, bg-encode 1: fair queuing would serve fg-read first.
  const TrafficClass cls[] = {TrafficClass::kBackgroundEncode, kFgRead,
                              TrafficClass::kBackgroundEncode,
                              TrafficClass::kBackgroundEncode, kFgRead};
  const Bytes bytes[] = {3600, 7200, 5400, 3600, 10800};
  std::vector<Clock::time_point> ends;
  for (size_t i = 0; i < std::size(bytes); ++i) {
    ends.push_back(link.request(ctx_of(cls[i], 0), bytes[i]));
  }

  // Call order, back to back: each reservation starts where the previous
  // one ended, so end times are exact cumulative byte counts.
  Bytes total = bytes[0];
  for (size_t i = 1; i < ends.size(); ++i) {
    total += bytes[i];
    EXPECT_EQ((ends[i] - ends[0]).count(),
              Clock::duration(std::chrono::seconds(total - bytes[0])).count())
        << "request " << i;
  }
  // At the first arrival the whole backlog sits on the timeline and no
  // request waits beside it.
  const auto first_start = ends[0] - std::chrono::seconds(bytes[0]);
  const LinkScheduler::Sample s = link.sample(first_start);
  EXPECT_EQ(s.queued_bytes, total);
  EXPECT_EQ(s.busy_seconds, static_cast<double>(total));
}

// Lag credit: a request may start up to `credit` before its grant, never
// before the timeline's end.  Two threads interleaving credited requests on
// one link, FIFO and fair alike, never overlap reservations, and none is
// backdated by more than its credit.
TEST(LinkScheduler, LagCreditNeverOverlapsTheTimeline) {
  QosConfig fifo;
  fifo.grant_horizon = std::numeric_limits<Seconds>::infinity();
  for (const QosConfig& cfg : {fifo, QosConfig{}}) {
    SCOPED_TRACE(std::isinf(cfg.grant_horizon) ? "FIFO" : "fair");
    const double spb = 1e-8;  // 100 MB/s: an 8 KiB request lasts ~82 us
    LinkScheduler link(spb, cfg);
    const Bytes kReq = 8 * 1024;
    const auto secs = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(kReq) * spb));
    const auto credit = std::chrono::milliseconds(2);

    std::mutex mu;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> slots;
    std::atomic<int> early{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 200; ++i) {
          const auto asked = Clock::now();
          const auto end = link.request(ctx_of(kFgRead, t), kReq, true, credit);
          if (end - secs < asked - credit) early.fetch_add(1);
          {
            std::lock_guard<std::mutex> lk(mu);
            slots.emplace_back(end - secs, end);
          }
          std::this_thread::sleep_until(end);
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(early.load(), 0);
    std::sort(slots.begin(), slots.end());
    for (size_t i = 1; i < slots.size(); ++i) {
      EXPECT_GE(slots[i].first, slots[i - 1].second) << "slot " << i;
    }
  }
}

// A budget-deferred request is backdated from its grant, not its arrival:
// waiting on the class budget is never credited.  (FIFO has no budgets.)
TEST(LinkScheduler, LagCreditNeverBackdatesPastTheGrant) {
  QosConfig cfg;
  cfg.class_rate[static_cast<int>(kRepair)] = 512 * 1024;
  const double spb = 1.0 / 200e6;
  LinkScheduler link(spb, cfg);
  const Bytes kB = 256 * 1024;

  // Into debt as in BudgetDefersChargedButNotUnchargedHops: the next
  // charged request waits ~0.5 s for the refill.
  link.request(ctx_of(kRepair, 0), kB);
  link.request(ctx_of(kRepair, 0), kB);

  const auto credit = std::chrono::milliseconds(100);
  const auto t0 = Clock::now();
  const auto end = link.request(ctx_of(kRepair, 0), kB, true, credit);
  // Granted no sooner than ~t0 + 0.5 s, so it ends after t0 + 0.4 s - 0.1
  // s; backdated from its arrival it would end before t0.
  EXPECT_GT(std::chrono::duration<double>(end - t0).count(), 0.3);
}

// Starvation-freedom: a weight-1 background flow keeps making progress
// while a weight-12 foreground flow saturates the link from several
// threads.  WFQ gives it ~weight share; the assertion only requires it not
// be starved.
TEST(LinkScheduler, LowWeightFlowIsNotStarved) {
  QosConfig cfg;
  cfg.tenant_weight[1] = 3.0;
  const double spb = 1.0 / 40e6;
  LinkScheduler link(spb, cfg);

  std::atomic<bool> running{true};
  std::atomic<int64_t> fg_bytes{0};
  std::atomic<int64_t> bg_bytes{0};
  const Bytes kReq = 64 * 1024;
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      while (running.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_until(link.request(ctx_of(kFgRead, 1), kReq));
        fg_bytes.fetch_add(kReq, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    while (running.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(
          link.request(ctx_of(TrafficClass::kBackgroundEncode, 0), kReq));
      bg_bytes.fetch_add(kReq, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  running.store(false);
  for (auto& t : threads) t.join();

  EXPECT_GT(bg_bytes.load(), 0);
  // Expected share 1/13; require at least 1/50 (starvation would be ~0).
  EXPECT_GT(static_cast<double>(bg_bytes.load()),
            static_cast<double>(fg_bytes.load()) / 50.0);
}

// ------------------------------------------------------------- QosScheduler

// perfbench qos-repair's link table, in ThrottledTransport's order: 6 racks
// x 2 nodes at 32 MB/s — node up-links, node down-links, rack up-links, rack
// down-links — then 12 free disks (disk_bw 0): 48 links.
std::vector<double> qos_repair_links() {
  std::vector<double> spb(36, 1.0 / 32e6);
  spb.resize(48, 1.0 / 1e18);
  return spb;
}

constexpr double kRepairBudget = 24e6;

// Drives 128 KB repair chunks from one thread per entry of `links`, through
// a QosScheduler with qos-repair's settings, and returns their combined
// granted rate over `window` seconds.  The window opens after `warmup`
// seconds, once the budget's initial burst (its full bucket, half a second
// of rate) is spent.
double sustained_repair_rate(const std::vector<int>& links, double warmup,
                             double window,
                             Clock::duration credit = Clock::duration::zero()) {
  QosConfig cfg;
  cfg.enable = true;
  cfg.tenant_weight[1] = 3.0;
  cfg.tenant_weight[2] = 1.0;
  cfg.class_rate[static_cast<int>(kRepair)] = kRepairBudget;
  cfg.class_weight[static_cast<int>(kRepair)] = 2.0;
  QosScheduler sched(qos_repair_links(), cfg);

  const Bytes kChunk = 128_KB;
  std::atomic<bool> running{true};
  std::atomic<int64_t> granted{0};
  std::vector<std::thread> drivers;
  for (const int link : links) {
    drivers.emplace_back([&, link] {
      while (running.load(std::memory_order_relaxed)) {
        sched.request(link, ctx_of(kRepair, 0), kChunk, true, credit);
        granted.fetch_add(kChunk, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  const auto t1 = Clock::now();
  const int64_t b1 = granted.load();
  std::this_thread::sleep_for(std::chrono::duration<double>(window));
  const int64_t b2 = granted.load();
  const double elapsed = seconds_since(t1);
  running.store(false);
  for (auto& d : drivers) d.join();
  return static_cast<double>(b2 - b1) / elapsed;
}

// The budget is cluster-wide, not split across links: repair traffic on a
// single node up-link spends all of it, though 47 other links could draw
// from it.  The up-link (32 MB/s) is faster than the budget, so the budget
// is what binds.  Its burst drains at 32 - 24 MB/s, 12 MB in 1.5 s.
TEST(QosScheduler, OneLinkSpendsTheWholeClassBudget) {
  const double rate = sustained_repair_rate({0}, 2.0, 1.0);
  EXPECT_GT(rate, 0.95 * kRepairBudget);
  EXPECT_LT(rate, 1.05 * kRepairBudget);
}

// Four up-links at once share the one budget: together they get
// class_rate, not class_rate each.
TEST(QosScheduler, LinksShareOneClassBudget) {
  const double rate = sustained_repair_rate({0, 2, 4, 6}, 0.5, 1.0);
  EXPECT_GT(rate, 0.9 * kRepairBudget);
  EXPECT_LT(rate, 1.1 * kRepairBudget);
}

// The lag credit moves reservations on the timeline, never the bytes the
// budget admits: credited requests still share class_rate.
TEST(QosScheduler, LagCreditLeavesTheClassBudget) {
  const double rate = sustained_repair_rate({0, 2, 4, 6}, 0.5, 1.0,
                                            std::chrono::milliseconds(1));
  EXPECT_GT(rate, 0.9 * kRepairBudget);
  EXPECT_LT(rate, 1.1 * kRepairBudget);
}

// -------------------------------------------------------- ThrottledTransport

// End-to-end weighted shares through the real transport: two tenants with
// 3:1 weights push through one receiver; delivered bytes must converge near
// the configured ratio.  The band is wider than the bench's (+/-25% vs
// +/-10%): CI runs this under TSan where scheduling noise is severe.
TEST(QosTransport, TenantsConvergeTowardWeightedShares) {
  const Topology topo(3, 1);
  cfs::ThrottleConfig tcfg;
  tcfg.node_bw = 20e6;
  tcfg.rack_uplink_bw = 20e6;
  tcfg.chunk_size = 64_KB;
  tcfg.qos.enable = true;
  tcfg.qos.tenant_weight[1] = 3.0;
  tcfg.qos.tenant_weight[2] = 1.0;
  cfs::ThrottledTransport transport(topo, tcfg);

  std::atomic<bool> running{true};
  std::atomic<int64_t> bytes[2] = {0, 0};
  std::vector<std::thread> pushers;
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 3; ++i) {  // backlog: several pushers per flow
      pushers.emplace_back([&, t] {
        QosScope scope(kFgRead, t + 1);
        while (running.load(std::memory_order_relaxed)) {
          transport.transfer(static_cast<NodeId>(t), 2, 64_KB);
          bytes[t].fetch_add(64_KB, std::memory_order_relaxed);
        }
      });
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  running.store(false);
  for (auto& p : pushers) p.join();

  const double ratio = static_cast<double>(bytes[0].load()) /
                       static_cast<double>(bytes[1].load());
  EXPECT_GT(ratio, 3.0 * 0.75);
  EXPECT_LT(ratio, 3.0 * 1.25);
}

// ------------------------------------------------------------ scope semantics

TEST(QosContext, DefaultContextIsInactive) {
  EXPECT_FALSE(context_active());
  EXPECT_EQ(current_context(), ctx_of(kFgRead, 0));
}

TEST(QosContext, QosScopeInstallsAndRestores) {
  {
    QosScope scope(kRepair, 7);
    EXPECT_TRUE(context_active());
    EXPECT_EQ(current_context(), ctx_of(kRepair, 7));
    {
      QosScope inner(kFgRead, 2);
      EXPECT_EQ(current_context(), ctx_of(kFgRead, 2));
    }
    EXPECT_EQ(current_context(), ctx_of(kRepair, 7));
  }
  EXPECT_FALSE(context_active());
}

TEST(QosContext, OpScopeYieldsToOuterContext) {
  // Bare: OpScope installs the operation default.
  {
    OpScope op(TrafficClass::kBackgroundEncode);
    EXPECT_EQ(current_context().cls, TrafficClass::kBackgroundEncode);
  }
  // Wrapped: the outer (explicit) scope wins — the read a tenant issues
  // stays that tenant's even while MiniCfs tags its own entry points.
  {
    QosScope outer(kFgRead, 5);
    OpScope op(TrafficClass::kBackgroundEncode);
    EXPECT_EQ(current_context(), ctx_of(kFgRead, 5));
  }
}

TEST(QosContext, CaptureCarriesContextAcrossThreads) {
  QosScope outer(TrafficClass::kForegroundWrite, 9);
  const Captured cap = capture();
  TransferContext seen;
  bool seen_active = false;
  std::thread helper([&] {
    EXPECT_FALSE(context_active());  // fresh thread: nothing ambient
    InstallScope install(cap);
    seen = current_context();
    seen_active = context_active();
  });
  helper.join();
  EXPECT_TRUE(seen_active);
  EXPECT_EQ(seen, ctx_of(TrafficClass::kForegroundWrite, 9));
}

// ------------------------------------------------------------ byte identity

// Invariant 11 sweep: the same deterministic encode / kill / repair / read
// sequence with QoS off and on must produce identical payloads everywhere —
// every read result and every stored block, parity included.
std::vector<std::vector<uint8_t>> payload_sweep(bool qos_on) {
  cfs::CfsConfig cfg;
  cfg.racks = 8;
  cfg.nodes_per_rack = 1;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.use_ear = true;
  cfg.block_size = 32_KB;
  cfg.seed = 17;

  Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::ThrottleConfig tcfg;
  tcfg.node_bw = 100e6;  // fast: the sweep is about bytes, not timing
  tcfg.rack_uplink_bw = 100e6;
  tcfg.chunk_size = 8_KB;
  tcfg.qos.enable = qos_on;
  tcfg.qos.tenant_weight[1] = 3.0;
  cfs::MiniCfs cfs(cfg,
                   std::make_unique<cfs::ThrottledTransport>(topo, tcfg));

  Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
    for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
    cfs.write_block(data);
  }
  for (const StripeId s : cfs.sealed_stripes()) cfs.encode_stripe(s);
  cfs.kill_node(2);
  failure::RepairManager repair(cfs, failure::RepairConfig{});
  repair.schedule_scan();
  repair.drain();

  std::vector<std::vector<uint8_t>> payloads;
  QosScope scope(kFgRead, 1);
  for (const BlockId b : cfs.all_blocks()) {
    const auto buf = cfs.read_block(b, /*reader=*/1);
    payloads.emplace_back(buf.span().begin(), buf.span().end());
  }
  const cfs::ClusterImage image = cfs.export_image();
  for (const auto& node : image.node_blocks) {
    for (const auto& [block, buf] : node) {
      payloads.emplace_back(buf.span().begin(), buf.span().end());
    }
  }
  return payloads;
}

TEST(QosByteIdentity, SchedulingNeverChangesPayloads) {
  const auto off = payload_sweep(false);
  const auto on = payload_sweep(true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i], on[i]) << "payload " << i << " diverged under QoS";
  }
}

}  // namespace
}  // namespace ear::qos
