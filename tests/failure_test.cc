// Tests for the failure & repair subsystem: event vocabulary, the seeded
// failure process, heartbeat detection (including false positives), the
// prioritized RepairManager, chaos under real threads (the TSan target), and
// the Monte Carlo reliability engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/rng.h"
#include "failure/detector.h"
#include "failure/events.h"
#include "failure/process.h"
#include "failure/reliability.h"
#include "failure/repair.h"
#include "qos/qos.h"
#include "sim/engine.h"

namespace ear::failure {
namespace {

cfs::CfsConfig small_config(int racks = 10, int nodes_per_rack = 4,
                            int replication = 3) {
  cfs::CfsConfig cfg;
  cfg.racks = racks;
  cfg.nodes_per_rack = nodes_per_rack;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = replication;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;
  cfg.seed = 11;
  return cfg;
}

std::unique_ptr<cfs::MiniCfs> make_cfs(const cfs::CfsConfig& cfg) {
  Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));
}

// Writes blocks until `stripes` stripes are sealed; returns block payloads.
std::map<BlockId, std::vector<uint8_t>> load_stripes(cfs::MiniCfs& cfs,
                                                     int stripes) {
  std::map<BlockId, std::vector<uint8_t>> payloads;
  Rng rng(7);
  NodeId writer = 0;
  while (static_cast<int>(cfs.sealed_stripes().size()) < stripes) {
    std::vector<uint8_t> data(
        static_cast<size_t>(cfs.config().block_size));
    for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cfs.write_block(data, writer);
    payloads[id] = std::move(data);
    writer = (writer + 1) % cfs.topology().node_count();
  }
  return payloads;
}

// One synchronous repair pass over the whole namespace.
RepairManager::Report repair_all(cfs::MiniCfs& cfs) {
  RepairManager repair(cfs, RepairConfig{});
  repair.schedule_scan();
  return repair.drain();
}

// ---- events ---------------------------------------------------------------

TEST(FailureEvents, FormatParseRoundTrip) {
  const FailureEvent ev{12.345678, EventKind::kRackRecover, 3};
  const auto parsed = parse_event(format_event(ev));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ev);
}

TEST(FailureEvents, ParseSkipsCommentsAndBlankLines) {
  EXPECT_FALSE(parse_event("").has_value());
  EXPECT_FALSE(parse_event("  # comment").has_value());
  EXPECT_THROW(parse_event("t=1.0 bogus_kind 3"), std::runtime_error);
  EXPECT_THROW(parse_event("t=1.0 node_fail"), std::runtime_error);
}

TEST(FailureEvents, ParseTraceEnforcesTimeOrder) {
  std::istringstream good(
      "# trace\n"
      "t=0.500000 node_fail 1\n"
      "t=1.000000 node_recover 1\n");
  const auto events = parse_trace(good);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kNodeFail);

  std::istringstream bad(
      "t=2.000000 node_fail 1\n"
      "t=1.000000 node_recover 1\n");
  EXPECT_THROW(parse_trace(bad), std::runtime_error);
}

// ---- failure process ------------------------------------------------------

TEST(FailureProcess, DeterministicAndSorted) {
  const Topology topo(6, 2);
  FailureModel model;
  model.node_mttf = 10;
  model.node_mttr = 2;
  model.rack_mttf = 30;
  model.rack_mttr = 5;
  model.seed = 42;
  const FailureProcess process(topo, model);
  const auto a = process.generate(100);
  const auto b = process.generate(100);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

  // Per component the schedule must alternate fail/recover.
  std::map<std::pair<bool, int>, bool> down;  // (is_rack, id) -> down?
  for (const auto& ev : a) {
    const bool is_rack = ev.kind == EventKind::kRackFail ||
                         ev.kind == EventKind::kRackRecover;
    const bool fails = ev.kind == EventKind::kNodeFail ||
                       ev.kind == EventKind::kRackFail;
    bool& state = down[{is_rack, ev.id}];
    EXPECT_NE(state, fails) << "double " << kind_name(ev.kind);
    state = fails;
  }
}

TEST(FailureProcess, SeedChangesSchedule) {
  const Topology topo(6, 2);
  FailureModel model;
  model.node_mttf = 10;
  model.node_mttr = 2;
  model.seed = 1;
  const auto a = FailureProcess(topo, model).generate(50);
  model.seed = 2;
  const auto b = FailureProcess(topo, model).generate(50);
  EXPECT_NE(a, b);
}

TEST(FailureProcess, RealTimeDriverAppliesAll) {
  auto cfs = make_cfs(small_config());
  const std::vector<FailureEvent> events = {
      {0.001, EventKind::kNodeFail, 2},
      {0.002, EventKind::kRackFail, 1},
      {0.003, EventKind::kNodeRecover, 2},
      {0.004, EventKind::kRackRecover, 1},
  };
  RealTimeFailureDriver driver(*cfs, events, /*time_compression=*/1.0);
  std::atomic<int> seen{0};
  driver.start([&](const FailureEvent&) { seen.fetch_add(1); });
  driver.wait();
  EXPECT_EQ(driver.events_applied(), events.size());
  EXPECT_EQ(seen.load(), static_cast<int>(events.size()));
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    EXPECT_TRUE(cfs->node_alive(n));
  }
}

TEST(FailureProcess, ScheduleOnEngineRunsInVirtualTime) {
  sim::Engine engine;
  const std::vector<FailureEvent> events = {
      {1.0, EventKind::kNodeFail, 0},
      {2.5, EventKind::kNodeRecover, 0},
  };
  std::vector<std::pair<Seconds, EventKind>> seen;
  schedule_on_engine(engine, events, [&](const FailureEvent& ev) {
    seen.emplace_back(engine.now(), ev.kind);
  });
  engine.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].first, 1.0);
  EXPECT_EQ(seen[0].second, EventKind::kNodeFail);
  EXPECT_DOUBLE_EQ(seen[1].first, 2.5);
}

// ---- detector -------------------------------------------------------------

TEST(FailureDetector, DeclaresSilentNodeDown) {
  Seconds clock = 0;
  DetectorConfig cfg;
  cfg.timeout = 1.0;
  FailureDetector detector(4, cfg, [&clock] { return clock; });

  clock = 0.5;
  for (NodeId n = 0; n < 4; ++n) detector.record_heartbeat(n);
  EXPECT_TRUE(detector.poll().empty());

  // Node 2 goes silent; the others keep reporting.
  clock = 1.4;
  for (const NodeId n : {0, 1, 3}) detector.record_heartbeat(n);
  EXPECT_TRUE(detector.poll().empty());  // within timeout

  clock = 1.6;
  const auto events = detector.poll();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 2);
  EXPECT_TRUE(events[0].down);
  EXPECT_TRUE(detector.is_down(2));
  EXPECT_EQ(detector.down_nodes(), std::vector<NodeId>{2});
}

TEST(FailureDetector, LateHeartbeatIsFalsePositive) {
  Seconds clock = 0;
  DetectorConfig cfg;
  cfg.timeout = 1.0;
  FailureDetector detector(2, cfg, [&clock] { return clock; });
  detector.record_heartbeat(0);
  detector.record_heartbeat(1);

  clock = 2.0;
  detector.record_heartbeat(0);
  ASSERT_EQ(detector.poll().size(), 1u);  // node 1 declared down
  EXPECT_EQ(detector.false_positives(), 0);

  // The "dead" node was only slow: its next heartbeat reinstates it.
  clock = 2.5;
  detector.record_heartbeat(1);
  EXPECT_FALSE(detector.is_down(1));
  EXPECT_EQ(detector.false_positives(), 1);
  const auto events = detector.poll();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_FALSE(events[0].down);
}

// A detector false positive must not move any bytes: the repair manager
// re-verifies each task against live metadata and no-ops it.
TEST(FailureDetector, DelayedHeartbeatTriggersNoSpuriousRepair) {
  auto cfs = make_cfs(small_config());
  load_stripes(*cfs, 2);

  Seconds clock = 0;
  DetectorConfig dcfg;
  dcfg.timeout = 1.0;
  FailureDetector detector(cfs->topology().node_count(), dcfg,
                           [&clock] { return clock; });
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    detector.record_heartbeat(n);
  }

  // Node 5 is merely slow: it misses heartbeats but never loses data.  A
  // transient cluster blip makes it miss the window and get declared down.
  clock = 2.0;
  cfs->kill_node(5);
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    if (n != 5) detector.record_heartbeat(n);
  }
  RepairManager repair(*cfs, RepairConfig{});
  int queued = 0;
  for (const auto& ev : detector.poll()) {
    ASSERT_TRUE(ev.down);
    queued += repair.schedule_node(ev.node);
  }
  EXPECT_GT(queued, 0);

  // It reports back before the repair runs; every queued task re-verifies
  // as healthy and becomes a no-op instead of a spurious copy.
  clock = 2.5;
  cfs->revive_node(5);
  detector.record_heartbeat(5);
  EXPECT_EQ(detector.false_positives(), 1);
  const auto report = repair.drain();
  EXPECT_EQ(report.re_replicated, 0);
  EXPECT_EQ(report.repaired, 0);
  EXPECT_EQ(report.bytes_moved, 0);
  EXPECT_GT(report.noop, 0);
  EXPECT_EQ(report.noop, queued);
}

// ---- repair manager -------------------------------------------------------

TEST(RepairManager, RestoresReplicationAfterNodeKill) {
  auto cfs = make_cfs(small_config());
  const auto payloads = load_stripes(*cfs, 2);

  const NodeId victim = cfs->block_locations(payloads.begin()->first)[0];
  cfs->kill_node(victim);
  RepairManager repair(*cfs, RepairConfig{});
  EXPECT_GT(repair.schedule_node(victim), 0);
  const auto report = repair.drain();
  EXPECT_GT(report.re_replicated, 0);
  EXPECT_EQ(report.unrecoverable, 0);
  EXPECT_EQ(repair.queue_depth(), 0u);

  const int r = cfs->config().placement.replication;
  for (const auto& [block, data] : payloads) {
    int live = 0;
    for (const NodeId n : cfs->block_locations(block)) {
      if (cfs->node_alive(n)) ++live;
    }
    EXPECT_GE(live, r) << "block " << block;
    EXPECT_EQ(cfs->read_block(block, (victim + 1) %
                                         cfs->topology().node_count()),
              data);
  }
}

TEST(RepairManager, RebuildsEncodedBlockByDecoding) {
  auto cfs = make_cfs(small_config());
  const auto payloads = load_stripes(*cfs, 1);
  const StripeId stripe = cfs->sealed_stripes().front();
  cfs->encode_stripe(stripe);

  const BlockId lost = cfs->stripe_meta(stripe).data_blocks[0];
  const NodeId victim = cfs->block_locations(lost)[0];
  cfs->kill_node(victim);

  RepairManager repair(*cfs, RepairConfig{});
  repair.schedule_node(victim);
  const auto report = repair.drain();
  EXPECT_GE(report.repaired, 1);
  EXPECT_EQ(report.unrecoverable, 0);

  // The rebuilt copy lives on a fresh node and the bytes are intact.
  const auto locs = cfs->block_locations(lost);
  ASSERT_FALSE(locs.empty());
  for (const NodeId n : locs) EXPECT_TRUE(cfs->node_alive(n));
  EXPECT_EQ(cfs->read_block(lost, (victim + 1) %
                                      cfs->topology().node_count()),
            payloads.at(lost));
}

TEST(RepairManager, DrainsInPriorityOrder) {
  auto cfs = make_cfs(small_config());
  const auto payloads = load_stripes(*cfs, 3);

  // Encode one stripe (its lost blocks compete at stripe-level priority)
  // and knock a replicated block down to its last copy (priority 0).
  const StripeId stripe = cfs->sealed_stripes().front();
  cfs->encode_stripe(stripe);
  const BlockId encoded_block = cfs->stripe_meta(stripe).data_blocks[0];
  cfs->kill_node(cfs->block_locations(encoded_block)[0]);

  BlockId frail = kInvalidBlock;
  for (const auto& [block, data] : payloads) {
    if (cfs->is_block_encoded(block)) continue;
    const auto locs = cfs->block_locations(block);
    if (std::all_of(locs.begin(), locs.end(),
                    [&](NodeId n) { return cfs->node_alive(n); })) {
      frail = block;
      cfs->kill_node(locs[0]);
      cfs->kill_node(locs[1]);
      break;
    }
  }
  ASSERT_NE(frail, kInvalidBlock);

  std::vector<std::pair<BlockId, int>> order;
  RepairConfig rcfg;
  rcfg.on_task = [&order](BlockId block, int priority) {
    order.emplace_back(block, priority);
  };
  RepairManager repair(*cfs, rcfg);
  repair.schedule_scan();
  repair.drain();

  ASSERT_GE(order.size(), 2u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].second, order[i].second)
        << "priority inversion at task " << i;
  }
  // The last-copy block runs in the leading priority-0 batch.
  EXPECT_EQ(order.front().second, 0);
  bool frail_at_zero = false;
  for (const auto& [block, priority] : order) {
    if (block == frail && priority == 0) frail_at_zero = true;
  }
  EXPECT_TRUE(frail_at_zero);
}

TEST(RepairManager, GivesUpAfterMaxAttempts) {
  auto cfs = make_cfs(small_config());
  const auto payloads = load_stripes(*cfs, 1);

  // Kill every replica of one block: re-replication has no live source, so
  // each attempt fails until attempts are exhausted.
  const BlockId block = payloads.begin()->first;
  for (const NodeId n : cfs->block_locations(block)) cfs->kill_node(n);

  RepairConfig rcfg;
  rcfg.max_attempts = 3;
  rcfg.retry_backoff = 0.0001;
  RepairManager repair(*cfs, rcfg);
  repair.schedule_scan();
  const auto report = repair.drain();
  EXPECT_GE(report.unrecoverable, 1);
  EXPECT_GE(report.retries, 2);  // max_attempts - 1 requeues for that block
  EXPECT_EQ(repair.queue_depth(), 0u);
}

TEST(RepairManager, DrainIsDeterministic) {
  // Two clusters from one seed, half their stripes encoded, lose the same
  // rack and node: drain() must repair both identically.  The bench_ext_qos
  // off/on payload digest and the chaos replay rest on this.
  struct Outcome {
    RepairManager::Report report;
    std::map<BlockId, std::vector<NodeId>> locations;
  };
  const auto run = [] {
    auto cfs = make_cfs(small_config());
    load_stripes(*cfs, 6);
    const std::vector<StripeId> stripes = cfs->sealed_stripes();
    for (size_t i = 0; i < stripes.size(); i += 2) {
      cfs->encode_stripe(stripes[i]);
    }
    cfs->kill_rack(3);
    cfs->kill_node(9);  // rack 2
    RepairManager repair(*cfs, RepairConfig{});
    repair.schedule_scan();
    Outcome out;
    out.report = repair.drain();
    for (const BlockId b : cfs->all_blocks()) {
      out.locations[b] = cfs->block_locations(b);
    }
    return out;
  };
  const Outcome a = run();
  const Outcome b = run();
  EXPECT_GT(a.report.repaired, 0);
  EXPECT_GT(a.report.re_replicated, 0);
  EXPECT_EQ(a.report.repaired, b.report.repaired);
  EXPECT_EQ(a.report.re_replicated, b.report.re_replicated);
  EXPECT_EQ(a.report.unrecoverable, b.report.unrecoverable);
  EXPECT_EQ(a.report.bytes_moved, b.report.bytes_moved);
  EXPECT_EQ(a.locations, b.locations);
}

TEST(RepairManager, LiveWorkersMatchDrainSemantics) {
  auto cfs = make_cfs(small_config());
  load_stripes(*cfs, 2);
  const NodeId victim = 3;
  cfs->kill_node(victim);

  RepairConfig rcfg;
  rcfg.workers = 3;
  RepairManager repair(*cfs, rcfg);
  repair.start();
  repair.schedule_node(victim);
  repair.wait_idle();
  repair.stop();

  const auto report = repair.report();
  EXPECT_EQ(report.unrecoverable, 0);
  EXPECT_EQ(repair.queue_depth(), 0u);
  const auto snap = cfs->namespace_snapshot();
  const int r = cfs->config().placement.replication;
  for (const auto& [block, status] : snap.blocks) {
    int live = 0;
    for (const NodeId n : status.locations) {
      if (cfs->node_alive(n)) ++live;
    }
    EXPECT_GE(live, status.encoded ? 1 : r);
  }
}

// ---- adopting foreground rebuilds -----------------------------------------

// Moves bytes in zero time, like InstantTransport, and counts the bytes of
// every transfer between distinct nodes by the traffic class of the thread
// that moved them.
class ClassMeter final : public cfs::Transport {
 public:
  explicit ClassMeter(const Topology& topo) : inner_(topo) {}

  void transfer(NodeId src, NodeId dst, Bytes size) override {
    if (src != dst) {
      bytes_[static_cast<size_t>(qos::current_context().cls)] += size;
    }
    inner_.transfer(src, dst, size);
  }
  int64_t cross_rack_bytes() const override {
    return inner_.cross_rack_bytes();
  }
  int64_t intra_rack_bytes() const override {
    return inner_.intra_rack_bytes();
  }

  int64_t bytes(qos::TrafficClass cls) const {
    return bytes_[static_cast<size_t>(cls)].load();
  }

 private:
  cfs::InstantTransport inner_;
  std::array<std::atomic<int64_t>, qos::kClassCount> bytes_{};
};

// Six encoded RS(8,6) stripes with the busiest node killed.  `lost` lists
// the encoded blocks it held (data and parity, one copy each, at most one
// per stripe); its replicated blocks, from stripes still assembling, are
// under-replicated.  `payloads` holds the bytes of every data block and of
// every lost parity block.
struct LostNode {
  std::unique_ptr<cfs::MiniCfs> cfs;
  ClassMeter* meter = nullptr;
  std::map<BlockId, std::vector<uint8_t>> payloads;
  NodeId victim = kInvalidNode;
  std::vector<BlockId> lost;
  int64_t replicated = 0;

  // A live node other than the victim holding no block of `block`'s stripe.
  NodeId outsider(BlockId block) const {
    const std::set<NodeId> holders = cfs->live_stripe_nodes(block);
    for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
      if (cfs->node_alive(n) && holders.count(n) == 0) return n;
    }
    return kInvalidNode;
  }
};

LostNode lose_busiest_node() {
  LostNode c;
  const cfs::CfsConfig cfg = small_config();
  auto meter =
      std::make_unique<ClassMeter>(Topology(cfg.racks, cfg.nodes_per_rack));
  c.meter = meter.get();
  c.cfs = std::make_unique<cfs::MiniCfs>(cfg, std::move(meter));
  c.payloads = load_stripes(*c.cfs, 6);
  for (const StripeId s : c.cfs->sealed_stripes()) c.cfs->encode_stripe(s);
  c.victim = 0;
  for (NodeId n = 1; n < c.cfs->topology().node_count(); ++n) {
    if (c.cfs->blocks_stored_on(n) > c.cfs->blocks_stored_on(c.victim)) {
      c.victim = n;
    }
  }
  for (const BlockId b : c.cfs->all_blocks()) {
    const auto locs = c.cfs->block_locations(b);
    if (std::find(locs.begin(), locs.end(), c.victim) == locs.end()) continue;
    if (!c.cfs->is_block_encoded(b)) {
      ++c.replicated;
      continue;
    }
    c.lost.push_back(b);
    const auto bytes = c.cfs->read_block(b, c.victim);
    c.payloads[b].assign(bytes.data(), bytes.data() + bytes.size());
  }
  c.cfs->kill_node(c.victim);
  return c;
}

// A RepairConfig::on_task hook that parks the first task until release(),
// so a one-worker manager keeps every other task queued meanwhile.
class Park {
 public:
  std::function<void(BlockId, int)> hook() {
    return [this](BlockId block, int) {
      std::unique_lock<std::mutex> lock(mu_);
      tasks_.push_back(block);
      if (tasks_.size() > 1) return;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  // Waits for the first task and returns its block.
  BlockId parked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !tasks_.empty(); });
    return tasks_.front();
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int runs_of(BlockId block) {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(std::count(tasks_.begin(), tasks_.end(), block));
  }

  // Releases the park when a test leaves early, before the manager's
  // destructor waits for the parked drainer.  Declare after the manager.
  struct ReleaseOnExit {
    Park* park;
    ~ReleaseOnExit() { park->release(); }
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<BlockId> tasks_;
  bool released_ = false;
};

bool has_live_copy(const cfs::MiniCfs& cfs, BlockId block) {
  const auto locs = cfs.block_locations(block);
  return std::any_of(locs.begin(), locs.end(),
                     [&cfs](NodeId n) { return cfs.node_alive(n); });
}

TEST(RepairAdoption, ForegroundRebuildOfQueuedBlockIsAdopted) {
  LostNode c = lose_busiest_node();
  ASSERT_GE(c.lost.size(), 2u);
  Park park;
  RepairConfig rcfg;
  rcfg.workers = 1;
  rcfg.on_task = park.hook();
  RepairManager repair(*c.cfs, rcfg);
  const Park::ReleaseOnExit release{&park};
  repair.start();
  const int tasks = repair.schedule_node(c.victim);
  ASSERT_EQ(tasks, static_cast<int>(c.lost.size() + c.replicated));
  const BlockId parked = park.parked();
  const BlockId block = c.lost[0] == parked ? c.lost[1] : c.lost[0];

  // A foreground degraded read rebuilds the block while its task waits.
  const NodeId reader = c.outsider(block);
  ASSERT_NE(reader, kInvalidNode);
  const int64_t repair_bytes0 = c.meter->bytes(qos::TrafficClass::kRepair);
  EXPECT_EQ(c.cfs->read_block(block, reader), c.payloads.at(block));
  EXPECT_EQ(repair.queue_depth(), static_cast<size_t>(tasks - 1));
  park.release();
  repair.wait_idle();
  repair.stop();

  const auto report = repair.report();
  EXPECT_EQ(report.adopted, 1);
  EXPECT_EQ(report.repaired, static_cast<int64_t>(c.lost.size()));
  EXPECT_EQ(report.re_replicated, c.replicated);
  EXPECT_EQ(report.noop, 0);
  EXPECT_EQ(report.unrecoverable, 0);
  EXPECT_EQ(park.runs_of(block), 1);
  // Every other lost block was decoded from k = 6 whole blocks and every
  // replicated one copied once; the adopted one moved at most one copy, and
  // no decode of it ran.
  const Bytes bs = c.cfs->config().block_size;
  const int64_t others =
      static_cast<int64_t>(c.lost.size() - 1) * 6 * bs + c.replicated * bs;
  EXPECT_LE(report.bytes_moved, others + bs);
  EXPECT_LE(c.meter->bytes(qos::TrafficClass::kRepair) - repair_bytes0,
            others + bs);

  // The copy sits at a valid target: live, in a rack holding no sibling
  // (the cluster has such racks), and it holds the written bytes.
  const auto locs = c.cfs->block_locations(block);
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_TRUE(c.cfs->node_alive(locs[0]));
  const cfs::StripeMeta meta = c.cfs->stripe_meta(
      c.cfs->namespace_snapshot().blocks.at(block).stripe);
  for (const auto* ids : {&meta.data_blocks, &meta.parity_blocks}) {
    for (const BlockId sibling : *ids) {
      if (sibling == block) continue;
      for (const NodeId n : c.cfs->block_locations(sibling)) {
        EXPECT_NE(c.cfs->topology().rack_of(n),
                  c.cfs->topology().rack_of(locs[0]))
            << "sibling " << sibling << " on node " << n;
      }
    }
  }
  EXPECT_EQ(c.cfs->read_block(block, locs[0]), c.payloads.at(block));
}

TEST(RepairAdoption, IdleManagerAndRepairReadsNeverAdopt) {
  LostNode c = lose_busiest_node();
  ASSERT_FALSE(c.lost.empty());
  const BlockId block = c.lost.front();
  const NodeId reader = c.outsider(block);
  ASSERT_NE(reader, kInvalidNode);

  // With no manager running, every read rebuilds the block again and it
  // stays lost.
  RepairManager idle(*c.cfs, RepairConfig{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.cfs->read_block(block, reader), c.payloads.at(block));
    EXPECT_FALSE(has_live_copy(*c.cfs, block));
  }
  const int tasks = idle.schedule_node(c.victim);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.cfs->read_block(block, reader), c.payloads.at(block));
  }
  EXPECT_FALSE(has_live_copy(*c.cfs, block));
  EXPECT_EQ(idle.queue_depth(), static_cast<size_t>(tasks));

  // Only foreground rebuilds reach the listener: neither a kRepair-class
  // read nor the repairs drain() runs.
  std::atomic<int> calls{0};
  c.cfs->set_rebuild_listener(
      [&calls](BlockId, NodeId, const datapath::BlockBuffer&) { ++calls; });
  {
    qos::QosScope scope(qos::TrafficClass::kRepair, 0);
    EXPECT_EQ(c.cfs->read_block(block, reader), c.payloads.at(block));
  }
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(c.cfs->read_block(block, reader), c.payloads.at(block));
  EXPECT_EQ(calls.load(), 1);
  const auto report = idle.drain();
  c.cfs->set_rebuild_listener(nullptr);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(report.adopted, 0);
  EXPECT_EQ(report.repaired, static_cast<int64_t>(c.lost.size()));
  EXPECT_TRUE(has_live_copy(*c.cfs, block));
}

TEST(RepairAdoption, HolderDeathRequeuesTheTask) {
  LostNode c = lose_busiest_node();
  ASSERT_GE(c.lost.size(), 2u);
  Park park;
  RepairConfig rcfg;
  rcfg.workers = 1;
  rcfg.on_task = park.hook();
  RepairManager repair(*c.cfs, rcfg);
  const Park::ReleaseOnExit release{&park};
  repair.start();
  repair.schedule_node(c.victim);
  const BlockId parked = park.parked();
  const BlockId block = c.lost[0] == parked ? c.lost[1] : c.lost[0];

  // The reader rebuilds the block, then dies before its adoption runs: the
  // original task goes back to the queue and decodes the block instead.
  const NodeId reader = c.outsider(block);
  ASSERT_NE(reader, kInvalidNode);
  EXPECT_EQ(c.cfs->read_block(block, reader), c.payloads.at(block));
  c.cfs->kill_node(reader);
  park.release();
  repair.wait_idle();
  repair.stop();

  const auto report = repair.report();
  EXPECT_EQ(report.adopted, 0);
  EXPECT_EQ(report.repaired, static_cast<int64_t>(c.lost.size()));
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.unrecoverable, 0);
  EXPECT_EQ(park.runs_of(block), 2);  // the adoption, then the task
  const auto locs = c.cfs->block_locations(block);
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_NE(locs[0], reader);
  EXPECT_TRUE(c.cfs->node_alive(locs[0]));
  EXPECT_EQ(c.cfs->read_block(block, locs[0]), c.payloads.at(block));
}

TEST(RepairAdoption, ReadersRacingDrainersStayCorrect) {
  // Throttled links and a repair budget keep the restore slow enough that
  // readers rebuild queued blocks while two drainers decode others and
  // adopt what the readers rebuilt.  Every read returns the written bytes,
  // and every lost block is restored exactly once.
  LostNode c = lose_busiest_node();
  ASSERT_FALSE(c.lost.empty());
  const Topology& topo = c.cfs->topology();
  cfs::ThrottleConfig throttle;
  throttle.node_bw = 40e6;
  throttle.rack_uplink_bw = 40e6;
  throttle.chunk_size = 4_KB;
  c.cfs->set_transport(
      std::make_unique<cfs::ThrottledTransport>(topo, throttle));

  std::vector<BlockId> blocks;
  for (const auto& [block, data] : c.payloads) blocks.push_back(block);
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0}, errors{0}, mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 41);
      while (!done.load()) {
        // Half the reads go to lost blocks.
        const BlockId b = rng.uniform(2) == 0
                              ? c.lost[rng.index(c.lost.size())]
                              : blocks[rng.index(blocks.size())];
        NodeId reader = c.victim;
        while (reader == c.victim) {
          reader = static_cast<NodeId>(rng.index(
              static_cast<size_t>(topo.node_count())));
        }
        try {
          if (c.cfs->read_block(b, reader) != c.payloads.at(b)) ++mismatches;
        } catch (const std::exception&) {
          ++errors;
        }
        ++reads;
      }
    });
  }

  RepairConfig rcfg;
  rcfg.workers = 2;
  rcfg.repair_bandwidth = 2e6;
  RepairManager repair(*c.cfs, rcfg);
  repair.start();
  repair.schedule_node(c.victim);
  repair.wait_idle();
  const int64_t target = reads.load() + 20;
  while (reads.load() < target) std::this_thread::yield();
  done.store(true);
  for (auto& t : readers) t.join();
  repair.stop();

  const auto report = repair.report();
  EXPECT_EQ(errors.load(), 0) << "of " << reads.load() << " reads";
  EXPECT_EQ(mismatches.load(), 0) << "of " << reads.load() << " reads";
  EXPECT_EQ(report.repaired, static_cast<int64_t>(c.lost.size()));
  EXPECT_EQ(report.noop, 0);
  EXPECT_EQ(report.unrecoverable, 0);
  for (const BlockId b : c.lost) {
    EXPECT_TRUE(has_live_copy(*c.cfs, b)) << "block " << b;
    EXPECT_EQ(c.cfs->read_block(b, c.cfs->block_locations(b)[0]),
              c.payloads.at(b));
  }
}

// ---- recovery fixes (uniform target selection, snapshot sweep) -------------

TEST(Recovery, RepairTargetsAreSpreadUniformly) {
  auto cfs = make_cfs(small_config(12, 2, /*replication=*/2));
  load_stripes(*cfs, 20);

  // Many independent picks with identical constraints must not collapse onto
  // one candidate (the old sweep always took the first).
  std::set<NodeId> picked;
  for (int i = 0; i < 200; ++i) {
    picked.insert(cfs->pick_repair_target({0, 1}));
  }
  EXPECT_GE(picked.size(), 10u);

  // End to end: one failed node's blocks re-replicate onto many targets.
  const NodeId victim = 5;
  const auto before = cfs->namespace_snapshot();
  cfs->kill_node(victim);
  ASSERT_GT(repair_all(*cfs).re_replicated, 3);
  std::set<NodeId> targets;
  for (const auto& [block, status] : before.blocks) {
    const auto& locs = status.locations;
    if (std::find(locs.begin(), locs.end(), victim) == locs.end()) continue;
    for (const NodeId n : cfs->block_locations(block)) {
      if (n != victim &&
          std::find(locs.begin(), locs.end(), n) == locs.end()) {
        targets.insert(n);
      }
    }
  }
  EXPECT_GE(targets.size(), 4u);
}

TEST(Recovery, RackLossRepairsNeverShareANodeWithinAStripe) {
  // RS(6,4) over 6 racks of 2 nodes: each stripe has a block in every
  // rack, so once a rack dies every live rack already holds one.  The
  // rebuilt block must then go to the other node of a used rack, never to
  // a node holding a sibling.
  cfs::CfsConfig cfg = small_config(6, 2, /*replication=*/2);
  cfg.placement.code = CodeParams{6, 4};
  auto cfs = make_cfs(cfg);
  load_stripes(*cfs, 6);
  const std::vector<StripeId> stripes = cfs->sealed_stripes();
  for (const StripeId s : stripes) cfs->encode_stripe(s);
  cfs->kill_rack(0);
  RepairManager repair(*cfs, RepairConfig{});
  repair.schedule_rack(0);
  const auto report = repair.drain();
  EXPECT_EQ(report.unrecoverable, 0);
  EXPECT_EQ(report.repaired, static_cast<int64_t>(stripes.size()));
  for (const StripeId s : stripes) {
    const cfs::StripeMeta meta = cfs->stripe_meta(s);
    std::map<NodeId, int> per_node;
    for (const auto* ids : {&meta.data_blocks, &meta.parity_blocks}) {
      for (const BlockId b : *ids) {
        for (const NodeId n : cfs->block_locations(b)) {
          if (cfs->node_alive(n)) ++per_node[n];
        }
      }
    }
    EXPECT_EQ(per_node.size(), 6u) << "stripe " << s;
    for (const auto& [node, count] : per_node) {
      EXPECT_EQ(count, 1) << "stripe " << s << " node " << node;
    }
  }
}

// ---- chaos under real threads (the TSan workload) -------------------------

TEST(Chaos, RackKillMidEncodeCompletesOrRetriesCleanly) {
  auto cfg = small_config();
  Topology topo(cfg.racks, cfg.nodes_per_rack);
  // Throttled links stretch the encode window so the kill lands mid-job.
  cfs::ThrottleConfig throttle;
  throttle.node_bw = 20e6;
  throttle.rack_uplink_bw = 20e6;
  throttle.disk_bw = 26e6;
  throttle.chunk_size = 4_KB;
  cfg.block_size = 64_KB;
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));
  const auto payloads = load_stripes(*cfs, 8);
  cfs->set_transport(
      std::make_unique<cfs::ThrottledTransport>(topo, throttle));

  // Replicas span two racks, so a double rack kill can eliminate every copy
  // of some blocks and force clean encode failures (single kills only
  // degrade).
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cfs->kill_rack(2);
    cfs->kill_rack(5);
  });
  cfs::RaidNode raid(*cfs, /*map_slots=*/2);
  const auto stripes = cfs->sealed_stripes();
  cfs::EncodeReport report = raid.encode_stripes(stripes);
  killer.join();

  // Every stripe either finished encoding or failed cleanly and retryably.
  for (const StripeId s : stripes) {
    const bool failed = std::find(report.failed.begin(), report.failed.end(),
                                  s) != report.failed.end();
    EXPECT_EQ(cfs->is_encoded(s), !failed) << "stripe " << s;
  }

  cfs->set_transport(std::make_unique<cfs::InstantTransport>(topo));
  cfs->revive_rack(2);
  cfs->revive_rack(5);
  repair_all(*cfs);
  if (!report.failed.empty()) {
    const auto retry = raid.encode_stripes(report.failed);
    EXPECT_TRUE(retry.failed.empty());
  }
  for (const StripeId s : stripes) EXPECT_TRUE(cfs->is_encoded(s));
  for (const auto& [block, data] : payloads) {
    EXPECT_EQ(cfs->read_block(block, 0), data) << "block " << block;
  }
}

TEST(Chaos, DetectorRepairAndWritesUnderFailureDriver) {
  auto cfs = make_cfs(small_config());
  load_stripes(*cfs, 2);

  FailureModel model;
  model.node_mttf = 4;
  model.node_mttr = 0.5;
  model.seed = 9;
  const auto events =
      FailureProcess(cfs->topology(), model).generate(/*horizon=*/2.0);

  DetectorConfig dcfg;
  dcfg.timeout = 0.05;
  dcfg.check_interval = 0.01;
  FailureDetector detector(cfs->topology().node_count(), dcfg);
  HeartbeatPump pump(*cfs, detector, /*period=*/0.01);
  RepairConfig rcfg;
  rcfg.workers = 2;
  RepairManager repair(*cfs, rcfg);

  repair.start();
  detector.start([&](const FailureDetector::Event& ev) {
    if (ev.down) repair.schedule_node(ev.node);
  });
  pump.start();
  RealTimeFailureDriver driver(*cfs, events, /*time_compression=*/10.0);
  driver.start();

  // Foreground writes race the chaos.  A write can catch a replica node
  // dying mid-pipeline; that surfaces as a runtime_error, like a real
  // client timeout, and is retried.
  Rng rng(3);
  std::vector<uint8_t> data(static_cast<size_t>(cfs->config().block_size));
  for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
  int written = 0;
  for (int i = 0; i < 40; ++i) {
    try {
      cfs->write_block(data, static_cast<NodeId>(i % 8));
      ++written;
    } catch (const std::runtime_error&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(written, 0);

  driver.wait();
  repair.wait_idle();
  pump.stop();
  detector.stop();
  repair.stop();

  cfs->revive_all();
  repair.schedule_scan();
  repair.drain();
  for (const BlockId block : cfs->all_blocks()) {
    EXPECT_NO_THROW(cfs->read_block(block, 0)) << "block " << block;
  }
}

// ---- reliability ----------------------------------------------------------

TEST(Reliability, DeterministicAcrossCalls) {
  const Topology topo(6, 2);
  std::vector<StripePlacement> stripes;
  for (int i = 0; i < 10; ++i) {
    StripePlacement sp;
    for (NodeId n = 0; n < 6; ++n) sp.blocks.push_back({n});
    sp.max_lost_blocks = 2;
    stripes.push_back(sp);
  }
  ReliabilityConfig cfg;
  cfg.node_mttf = 50;
  cfg.node_mttr = 5;
  cfg.horizon = 500;
  cfg.trials = 200;
  const auto a = estimate_reliability(topo, stripes, cfg);
  const auto b = estimate_reliability(topo, stripes, cfg);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_DOUBLE_EQ(a.mttdl, b.mttdl);
  EXPECT_GT(a.losses, 0);
  EXPECT_DOUBLE_EQ(a.p_loss + a.p_no_loss, 1.0);
}

TEST(Reliability, NoFailuresMeansNoLoss) {
  const Topology topo(4, 1);
  std::vector<StripePlacement> stripes(1);
  stripes[0].blocks = {{0}, {1}, {2}};
  stripes[0].max_lost_blocks = 1;
  ReliabilityConfig cfg;
  cfg.node_mttf = 0;  // disabled
  cfg.rack_mttf = 0;
  cfg.trials = 50;
  const auto r = estimate_reliability(topo, stripes, cfg);
  EXPECT_EQ(r.losses, 0);
  EXPECT_EQ(r.p_loss, 0);
  EXPECT_EQ(r.mttdl, std::numeric_limits<double>::infinity());
}

TEST(Reliability, RackConcentrationLosesToSpread) {
  // Same stripe redundancy (m = 2), different rack exposure: three blocks
  // stacked in rack 0 die together on a rack failure; the spread placement
  // loses at most one block per rack — exactly the RR-vs-EAR post-encoding
  // difference.
  const Topology topo(8, 2);
  StripePlacement stacked;
  stacked.blocks = {{0}, {1}, {2}, {4}, {6}, {8}};  // nodes 0,1 in rack 0
  stacked.max_lost_blocks = 2;
  StripePlacement spread;
  spread.blocks = {{0}, {2}, {4}, {6}, {8}, {10}};  // one rack each
  spread.max_lost_blocks = 2;

  ReliabilityConfig cfg;
  cfg.node_mttf = 0;
  cfg.rack_mttf = 50;  // rack failures only
  cfg.rack_mttr = 1;
  cfg.horizon = 500;
  cfg.trials = 200;
  // Nodes 0,1,2 span racks 0,0,1: one rack-0 failure kills blocks 0 and 1,
  // a concurrent rack-1 failure pushes past max_lost_blocks.
  const auto bad = estimate_reliability(topo, {stacked}, cfg);
  const auto good = estimate_reliability(topo, {spread}, cfg);
  EXPECT_GT(bad.p_loss, good.p_loss);
  EXPECT_GE(bad.mttdl, 0);
}

TEST(Reliability, PolicyPlacementsEarBeatsRrPostEncoding) {
  const Topology topo(12, 2);
  PlacementConfig pcfg;
  pcfg.code = CodeParams{8, 6};
  pcfg.replication = 2;
  pcfg.c = 1;
  ReliabilityConfig rel;
  rel.node_mttf = 0;   // isolate the rack-failure channel
  rel.rack_mttf = 100;
  rel.rack_mttr = 1;
  rel.horizon = 300;
  rel.trials = 150;

  const auto run = [&](bool use_ear) {
    auto policy = use_ear ? make_encoding_aware_replication(topo, pcfg, 5)
                          : make_random_replication(topo, pcfg, 5);
    BlockId next = 0;
    while (static_cast<int>(policy->sealed_stripes().size()) < 40) {
      policy->place_block(next++, std::nullopt);
    }
    return estimate_reliability(topo, encoded_placements(*policy), rel);
  };
  const auto rr = run(false);
  const auto ear = run(true);
  // RR can stack >m blocks of a stripe in one rack; EAR's c=1 cannot, so
  // isolated rack failures never lose EAR data.
  EXPECT_GT(rr.p_loss, ear.p_loss);
  EXPECT_GE(ear.p_no_loss, rr.p_no_loss);
}

TEST(Reliability, SnapshotPlacementsCoverMixedNamespace) {
  auto cfs = make_cfs(small_config());
  load_stripes(*cfs, 2);
  cfs->encode_stripe(cfs->sealed_stripes().front());

  const auto placements =
      placements_from_snapshot(cfs->namespace_snapshot(),
                               cfs->config().placement.code.k);
  ASSERT_FALSE(placements.empty());
  size_t covered_blocks = 0;
  bool saw_encoded = false;
  for (const auto& sp : placements) {
    covered_blocks += sp.blocks.size();
    if (sp.max_lost_blocks > 0) saw_encoded = true;
    for (const auto& holders : sp.blocks) EXPECT_FALSE(holders.empty());
  }
  EXPECT_TRUE(saw_encoded);
  EXPECT_EQ(covered_blocks, cfs->all_blocks().size());
}

}  // namespace
}  // namespace ear::failure
