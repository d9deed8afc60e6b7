// Edge cases and boundary conditions across the library that the main
// suites do not exercise.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "cfs/minicfs.h"
#include "erasure/rs.h"
#include "failure/repair.h"
#include "placement/ear.h"
#include "placement/monitor.h"
#include "placement/random_replication.h"
#include "sim/cluster.h"

namespace ear {
namespace {

// ------------------------------------------------------- erasure boundaries

TEST(EdgeCases, MinimalCodeN2K1IsMirroring) {
  const erasure::RSCode code(2, 1);
  std::vector<uint8_t> data{1, 2, 3, 4};
  std::vector<uint8_t> parity(4);
  std::vector<erasure::BlockView> dv{data};
  std::vector<erasure::MutBlockView> pv{parity};
  code.encode(dv, pv);
  EXPECT_EQ(parity, data) << "(2,1) systematic RS is plain mirroring";
}

TEST(EdgeCases, SingleParityIsXorParity) {
  // (k+1, k) systematic RS with the Cauchy construction reduces to RAID-5
  // style parity: decode works with any single loss.
  const erasure::RSCode code(5, 4);
  Rng rng(1);
  std::vector<std::vector<uint8_t>> data(4, std::vector<uint8_t>(32));
  for (auto& blk : data) {
    for (auto& b : blk) b = static_cast<uint8_t>(rng.uniform(256));
  }
  std::vector<std::vector<uint8_t>> parity(1, std::vector<uint8_t>(32));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
  code.encode(dv, pv);

  for (int lost = 0; lost < 5; ++lost) {
    std::vector<int> ids;
    std::vector<erasure::BlockView> available;
    for (int i = 0; i < 5; ++i) {
      if (i == lost) continue;
      ids.push_back(i);
      available.emplace_back(i < 4 ? data[static_cast<size_t>(i)]
                                   : parity[0]);
      if (static_cast<int>(ids.size()) == 4) break;
    }
    std::vector<std::vector<uint8_t>> out(1, std::vector<uint8_t>(32));
    std::vector<erasure::MutBlockView> ov(out.begin(), out.end());
    ASSERT_TRUE(code.reconstruct(ids, available, {lost}, ov));
    EXPECT_EQ(out[0], lost < 4 ? data[static_cast<size_t>(lost)] : parity[0]);
  }
}

TEST(EdgeCases, MaximumFieldSizedCode) {
  // n = 255 is the largest stripe GF(2^8) supports.
  const erasure::RSCode code(255, 251);
  EXPECT_EQ(code.generator().rows(), 255);
  Rng rng(2);
  std::vector<std::vector<uint8_t>> data(251, std::vector<uint8_t>(8));
  for (auto& blk : data) {
    for (auto& b : blk) b = static_cast<uint8_t>(rng.uniform(256));
  }
  std::vector<std::vector<uint8_t>> parity(4, std::vector<uint8_t>(8));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
  code.encode(dv, pv);
  SUCCEED();
}

// ---------------------------------------------------- placement boundaries

TEST(EdgeCases, EarWithExactlyNRacksAndCOne) {
  // R == n with c == 1: the tightest feasible configuration — every rack
  // holds exactly one block of every stripe.
  const Topology topo(8, 4);
  PlacementConfig cfg;
  cfg.code = CodeParams{8, 6};
  cfg.replication = 3;
  cfg.c = 1;
  EncodingAwareReplication policy(topo, cfg, 3);
  BlockId next = 0;
  while (policy.sealed_stripes().size() < 3) {
    policy.place_block(next++, std::nullopt);
  }
  for (const StripeId id : policy.sealed_stripes()) {
    const EncodePlan plan = policy.plan_encoding(id);
    std::set<RackId> racks;
    for (const NodeId n : plan.kept) racks.insert(topo.rack_of(n));
    for (const NodeId n : plan.parity) racks.insert(topo.rack_of(n));
    EXPECT_EQ(racks.size(), 8u);
  }
}

TEST(EdgeCases, EarOnHeterogeneousRackSizes) {
  // Racks of uneven sizes (all >= r-1): invariants must still hold.
  const Topology topo(std::vector<int>{2, 5, 3, 2, 4, 6, 2, 3});
  PlacementConfig cfg;
  cfg.code = CodeParams{7, 5};
  cfg.replication = 3;
  cfg.c = 1;
  EncodingAwareReplication policy(topo, cfg, 4);
  PlacementMonitor monitor(topo, cfg.code);
  BlockId next = 0;
  while (policy.sealed_stripes().size() < 4) {
    policy.place_block(next++, std::nullopt);
    ASSERT_LT(next, 5000);
  }
  for (const StripeId id : policy.sealed_stripes()) {
    const EncodePlan plan = policy.plan_encoding(id);
    EXPECT_EQ(plan.cross_rack_downloads, 0);
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    EXPECT_TRUE(monitor.plan_relocations(layout, 1).empty());
  }
}

TEST(EdgeCases, RrOnTwoRackCluster) {
  // The smallest topology RR supports: replicas land in both racks.
  const Topology topo(2, 8);
  PlacementConfig cfg;
  cfg.code = CodeParams{4, 3};
  cfg.replication = 3;
  RandomReplication rr(topo, cfg, 5);
  for (BlockId b = 0; b < 30; ++b) {
    const auto p = rr.place_block(b, std::nullopt);
    std::set<RackId> racks;
    for (const NodeId n : p.replicas) racks.insert(topo.rack_of(n));
    EXPECT_EQ(racks.size(), 2u);
  }
}

TEST(EdgeCases, MonitorWithInfeasibleCReturnsPartialPlan) {
  // 2 racks cannot host 4 blocks at c = 1; the planner must stop rather
  // than loop.
  const Topology topo(2, 4);
  PlacementMonitor monitor(topo, CodeParams{4, 3});
  StripeLayout layout;
  layout.nodes = {0, 1, 4, 5};
  const auto moves = monitor.plan_relocations(layout, 1);
  EXPECT_LE(moves.size(), 2u);  // at most one block can move per rack
}

TEST(EdgeCases, ReplicationFactorOne) {
  // r = 1: no secondaries; EAR still forms stripes (first replica = only
  // replica, all in the core rack) but c must allow k blocks per rack.
  const Topology topo(6, 8);
  PlacementConfig cfg;
  cfg.code = CodeParams{6, 4};
  cfg.replication = 1;
  cfg.c = 4;
  EncodingAwareReplication policy(topo, cfg, 6);
  BlockId next = 0;
  while (policy.sealed_stripes().empty()) {
    policy.place_block(next++, std::nullopt);
    ASSERT_LT(next, 2000);
  }
  const EncodePlan plan =
      policy.plan_encoding(policy.sealed_stripes()[0]);
  EXPECT_EQ(plan.cross_rack_downloads, 0);
  EXPECT_TRUE(plan.deletions.empty()) << "nothing to delete with r = 1";
}

// ------------------------------------------------------------ cfs boundaries

TEST(EdgeCases, ReadUnknownBlockThrows) {
  cfs::CfsConfig cfg;
  cfg.racks = 4;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{4, 3};
  cfg.block_size = 1_KB;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::MiniCfs cfs(cfg, std::make_unique<cfs::InstantTransport>(topo));
  EXPECT_THROW(cfs.read_block(1234, 0), std::runtime_error);
  EXPECT_THROW(cfs.stripe_meta(99), std::runtime_error);
}

TEST(EdgeCases, EncodeUnsealedStripeThrows) {
  cfs::CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{6, 4};
  cfg.block_size = 1_KB;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::MiniCfs cfs(cfg, std::make_unique<cfs::InstantTransport>(topo));
  std::vector<uint8_t> block(1024, 1);
  cfs.write_block(block);  // one block: stripe 0 exists but is unsealed
  EXPECT_THROW(cfs.encode_stripe(0), std::runtime_error);
}

// ------------------------------------------------ cfs concurrency boundaries

// Delegating transport that sleeps per transfer, widening the encode window
// so a racing revive/kill lands mid-flight.
class SlowTransport final : public cfs::Transport {
 public:
  explicit SlowTransport(const Topology& topo) : inner_(topo) {}
  void transfer(NodeId src, NodeId dst, Bytes size) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inner_.transfer(src, dst, size);
  }
  int64_t cross_rack_bytes() const override {
    return inner_.cross_rack_bytes();
  }
  int64_t intra_rack_bytes() const override {
    return inner_.intra_rack_bytes();
  }

 private:
  cfs::InstantTransport inner_;
};

TEST(EdgeCases, ReviveNodeRacingEncode) {
  cfs::CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.block_size = 1_KB;
  cfg.seed = 17;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::MiniCfs cfs(cfg, std::make_unique<SlowTransport>(topo));

  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 1);
  std::vector<BlockId> blocks;
  while (cfs.sealed_stripes().empty()) {
    for (auto& b : block) ++b;
    blocks.push_back(cfs.write_block(block, 0));
  }
  const StripeId stripe = cfs.sealed_stripes().front();

  // A node holding a replica of the stripe goes down, the encode starts
  // anyway, and the node reports back mid-encode (a transient failure).
  const NodeId victim = cfs.block_locations(blocks.front()).front();
  cfs.kill_node(victim);
  std::atomic<bool> encode_ok{true};
  std::thread enc([&] {
    try {
      cfs.encode_stripe(stripe);
    } catch (const std::runtime_error&) {
      // the dead replica was load-bearing for this plan; stays retryable
      encode_ok.store(false);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  cfs.revive_node(victim);
  enc.join();

  // Whichever way the race lands, the namespace must be consistent and the
  // stripe must still be encodable.
  if (!encode_ok.load()) {
    EXPECT_FALSE(cfs.is_encoded(stripe));
    cfs.encode_stripe(stripe);
  }
  EXPECT_TRUE(cfs.is_encoded(stripe));
  failure::RepairManager repair(cfs, failure::RepairConfig{});
  repair.schedule_scan();
  repair.drain();
  const cfs::StripeMeta meta = cfs.stripe_meta(stripe);
  ASSERT_EQ(meta.data_blocks.size(), 4u);
  ASSERT_EQ(meta.parity_blocks.size(), 2u);
  for (const BlockId b : blocks) {
    EXPECT_NO_THROW(cfs.read_block(b, victim));
  }
}

// Delegating transport whose transfers block on a gate, pinning an operation
// in flight for as long as the test needs.
class GateTransport final : public cfs::Transport {
 public:
  explicit GateTransport(const Topology& topo) : inner_(topo) {}

  void transfer(NodeId src, NodeId dst, Bytes size) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    inner_.transfer(src, dst, size);
  }
  int64_t cross_rack_bytes() const override {
    return inner_.cross_rack_bytes();
  }
  int64_t intra_rack_bytes() const override {
    return inner_.intra_rack_bytes();
  }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ > 0; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  cfs::InstantTransport inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TEST(EdgeCases, SetTransportRejectsInFlightWrite) {
  cfs::CfsConfig cfg;
  cfg.racks = 4;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{4, 3};
  cfg.placement.replication = 2;
  cfg.block_size = 1_KB;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto gate_owner = std::make_unique<GateTransport>(topo);
  GateTransport* gate = gate_owner.get();
  cfs::MiniCfs cfs(cfg, std::move(gate_owner));

  const std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 9);
  std::thread writer([&] { cfs.write_block(block, 0); });
  gate->wait_entered();

  // The write is parked inside the transport: swapping it now would pull the
  // rug out from under the pipeline, so the guard must refuse.
  EXPECT_THROW(cfs.set_transport(std::make_unique<cfs::InstantTransport>(topo)),
               std::logic_error);

  gate->open();
  writer.join();
  // Quiesced: the swap goes through.
  cfs.set_transport(std::make_unique<cfs::InstantTransport>(topo));
  cfs.write_block(block, 0);
}

// ------------------------------------------------------------ sim boundaries

TEST(EdgeCases, SimWithSingleEncodeProcess) {
  sim::SimConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 3;
  cfg.placement.code = CodeParams{6, 4};
  cfg.block_size = 4_MB;
  cfg.encode_processes = 1;
  cfg.stripes_per_process = 4;
  cfg.write_rate = 0;
  cfg.background_rate = 0;
  cfg.encode_start = 0;
  cfg.seed = 7;
  const sim::SimResult r = sim::ClusterSim(cfg).run();
  EXPECT_EQ(r.stripes_encoded, 4);
  // Strictly sequential completions.
  for (size_t i = 1; i < r.stripe_completions.size(); ++i) {
    EXPECT_GT(r.stripe_completions[i].first,
              r.stripe_completions[i - 1].first);
  }
}

TEST(EdgeCases, SimMoreProcessesThanStripes) {
  sim::SimConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 3;
  cfg.placement.code = CodeParams{6, 4};
  cfg.block_size = 4_MB;
  cfg.encode_processes = 8;
  cfg.stripes_per_process = 1;
  cfg.write_rate = 0;
  cfg.background_rate = 0;
  cfg.seed = 8;
  const sim::SimResult r = sim::ClusterSim(cfg).run();
  EXPECT_EQ(r.stripes_encoded, 8);
}

}  // namespace
}  // namespace ear
