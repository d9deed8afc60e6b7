// Conversion planning against the live cluster: the placement policies
// plan from a stripe's current copies and around down nodes, MiniCfs
// encodes from those copies, and re-replication restores the layout EAR
// placed, so EAR's encoder downloads no data block across racks after a
// node failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/rng.h"
#include "failure/repair.h"
#include "placement/ear.h"
#include "placement/random_replication.h"

namespace ear {
namespace {

// InstantTransport that also records every node a transfer or local read
// touches, so a test can check no data moves through a down node.
class RecordingTransport final : public cfs::Transport {
 public:
  explicit RecordingTransport(const Topology& topo) : inner_(topo) {}

  void transfer(NodeId src, NodeId dst, Bytes size) override {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      touched_.insert(src);
      touched_.insert(dst);
      hook = std::exchange(hook_, nullptr);
    }
    if (hook) hook();
    inner_.transfer(src, dst, size);
  }
  void local_read(NodeId node, Bytes size) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      touched_.insert(node);
    }
    inner_.local_read(node, size);
  }
  int64_t cross_rack_bytes() const override {
    return inner_.cross_rack_bytes();
  }
  int64_t intra_rack_bytes() const override {
    return inner_.intra_rack_bytes();
  }

  std::set<NodeId> touched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return touched_;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    touched_.clear();
  }
  // Runs `hook` once, at the start of the next transfer.
  void on_next_transfer(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    hook_ = std::move(hook);
  }

 private:
  cfs::InstantTransport inner_;
  mutable std::mutex mu_;
  std::set<NodeId> touched_;
  std::function<void()> hook_;
};

// The qos-repair workload's cluster: 6 racks of 2 nodes, RS(6,4), two
// replicas, c = 1.
cfs::CfsConfig qos_repair_config() {
  cfs::CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 4_KB;
  cfg.seed = 3;
  return cfg;
}

struct Cluster {
  std::unique_ptr<cfs::MiniCfs> cfs;
  RecordingTransport* transport = nullptr;
  std::map<BlockId, std::vector<uint8_t>> payloads;
};

// Writes `stripes` stripes as the qos-repair workload does: k consecutive
// writes come from one rack, alternating over its nodes, so each stripe's
// core rack holds its first replicas on both of the rack's nodes.
Cluster make_cluster(const cfs::CfsConfig& cfg, int stripes) {
  Cluster c;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto transport = std::make_unique<RecordingTransport>(topo);
  c.transport = transport.get();
  c.cfs = std::make_unique<cfs::MiniCfs>(cfg, std::move(transport));
  const int k = cfg.placement.code.k;
  Rng rng(17);
  for (int seq = 0; seq < stripes * k; ++seq) {
    const RackId rack = (seq / k) % topo.rack_count();
    const std::vector<NodeId> nodes = topo.nodes_in_rack(rack);
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
    for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = c.cfs->write_block(
        data, nodes[static_cast<size_t>(seq) % nodes.size()]);
    c.payloads[id] = std::move(data);
  }
  return c;
}

// Checks an encoded stripe: one live copy per data block, live parity, and
// under EAR at most c blocks per rack (RR promises no rack spread).
void expect_live_encoded_layout(const cfs::MiniCfs& cfs, StripeId stripe) {
  SCOPED_TRACE("stripe " + std::to_string(stripe));
  const cfs::StripeMeta meta = cfs.stripe_meta(stripe);
  ASSERT_TRUE(meta.encoded);
  std::map<RackId, int> per_rack;
  std::vector<BlockId> blocks = meta.data_blocks;
  blocks.insert(blocks.end(), meta.parity_blocks.begin(),
                meta.parity_blocks.end());
  for (const BlockId b : blocks) {
    const std::vector<NodeId> locs = cfs.block_locations(b);
    ASSERT_EQ(locs.size(), 1u) << "block " << b;
    EXPECT_TRUE(cfs.node_alive(locs[0])) << "block " << b << " kept on "
                                         << locs[0];
    ++per_rack[cfs.topology().rack_of(locs[0])];
  }
  if (!cfs.config().use_ear) return;
  for (const auto& [rack, count] : per_rack) {
    EXPECT_LE(count, cfs.config().placement.c) << "rack " << rack;
  }
}

TEST(EncodePlan, NoCrossRackDownloadsAfterACoreNodeDies) {
  const cfs::CfsConfig cfg = qos_repair_config();
  Cluster c = make_cluster(cfg, 6);
  const std::vector<StripeId> stripes = c.cfs->sealed_stripes();
  ASSERT_EQ(stripes.size(), 6u);

  // Node 0 holds the first replica of two blocks of the stripe whose core
  // rack is rack 0.
  const NodeId victim = 0;
  c.cfs->kill_node(victim);
  failure::RepairManager repair(*c.cfs, failure::RepairConfig{});
  repair.schedule_node(victim);
  const failure::RepairManager::Report rep = repair.drain();
  ASSERT_GT(rep.re_replicated, 0);
  ASSERT_EQ(rep.unrecoverable, 0);

  c.transport->clear();
  const int64_t downloads_before = c.cfs->encode_cross_rack_downloads();
  cfs::RaidNode raid(*c.cfs, 4);
  const cfs::EncodeReport report = raid.encode_stripes(stripes);
  EXPECT_TRUE(report.failed.empty()) << report.failed.size() << " failed";
  EXPECT_EQ(report.cross_rack_downloads, 0);
  EXPECT_EQ(c.cfs->encode_cross_rack_downloads() - downloads_before, 0);
  // No encoder, source or parity node of the job was the dead node.
  EXPECT_EQ(c.transport->touched().count(victim), 0u);
  for (const StripeId s : stripes) expect_live_encoded_layout(*c.cfs, s);
  for (const auto& [block, bytes] : c.payloads) {
    EXPECT_EQ(c.cfs->read_block(block, 1).to_vector(), bytes)
        << "block " << block;
  }
}

TEST(EncodePlan, NeverKeepsADeadCopy) {
  // A core-rack node is down and nothing has been repaired.  A stripe whose
  // live copies still admit a layout is encoded onto live nodes only; one
  // that does not is refused, with nothing mutated, and waits for repair.
  const cfs::CfsConfig cfg = qos_repair_config();
  for (const bool use_ear : {true, false}) {
    SCOPED_TRACE(use_ear ? "EAR" : "RR");
    cfs::CfsConfig policy_cfg = cfg;
    policy_cfg.use_ear = use_ear;
    Cluster c = make_cluster(policy_cfg, 6);
    const std::vector<StripeId> stripes = c.cfs->sealed_stripes();
    const NodeId victim = 0;
    c.cfs->kill_node(victim);
    const cfs::NamespaceSnapshot before = c.cfs->namespace_snapshot();

    c.transport->clear();
    cfs::RaidNode raid(*c.cfs, 4);
    const cfs::EncodeReport report = raid.encode_stripes(stripes);
    EXPECT_EQ(c.transport->touched().count(victim), 0u);
    EXPECT_LT(report.failed.size(), stripes.size());
    for (const StripeId s : stripes) {
      if (std::find(report.failed.begin(), report.failed.end(), s) ==
          report.failed.end()) {
        expect_live_encoded_layout(*c.cfs, s);
        continue;
      }
      EXPECT_FALSE(c.cfs->is_encoded(s));
      for (const BlockId b : c.cfs->stripe_meta(s).data_blocks) {
        EXPECT_EQ(c.cfs->block_locations(b),
                  before.blocks.at(b).locations)
            << "refused stripe " << s << " block " << b;
      }
    }
    for (const auto& [block, bytes] : c.payloads) {
      EXPECT_EQ(c.cfs->read_block(block, 1).to_vector(), bytes)
          << "block " << block;
    }
  }
}

TEST(EncodePlan, RefusesAPlanWhoseNodeWentDown) {
  const cfs::CfsConfig cfg = qos_repair_config();
  Cluster c = make_cluster(cfg, 1);
  const StripeId stripe = c.cfs->sealed_stripes().at(0);
  const EncodePlan plan = c.cfs->plan_encoding(stripe);
  const cfs::NamespaceSnapshot before = c.cfs->namespace_snapshot();
  const auto stored_before = c.cfs->export_image().node_blocks;

  c.cfs->kill_node(plan.parity.at(0));
  EXPECT_THROW(c.cfs->encode_stripe(plan), std::runtime_error);
  EXPECT_FALSE(c.cfs->is_encoded(stripe));
  const cfs::NamespaceSnapshot after = c.cfs->namespace_snapshot();
  for (const auto& [block, status] : before.blocks) {
    EXPECT_EQ(after.blocks.at(block).locations, status.locations);
  }
  const auto stored_after = c.cfs->export_image().node_blocks;
  for (size_t n = 0; n < stored_before.size(); ++n) {
    EXPECT_EQ(stored_after[n].size(), stored_before[n].size()) << "node " << n;
  }

  // A fresh plan avoids the down node and encodes.
  c.cfs->encode_stripe(stripe);
  expect_live_encoded_layout(*c.cfs, stripe);
}

TEST(EncodePlan, RetiresCopiesAddedAfterThePlan) {
  // A plan is drawn, then a node holding only copies the plan deletes dies
  // and re-replication lists new copies of its blocks.  The plan still
  // runs (every node it names is up) and leaves one copy per data block.
  const cfs::CfsConfig cfg = qos_repair_config();
  Cluster c = make_cluster(cfg, 1);
  const StripeId stripe = c.cfs->sealed_stripes().at(0);
  const EncodePlan plan = c.cfs->plan_encoding(stripe);
  std::set<NodeId> named(plan.kept.begin(), plan.kept.end());
  named.insert(plan.parity.begin(), plan.parity.end());
  named.insert(plan.encoder);
  NodeId victim = kInvalidNode;
  for (const auto& [slot, node] : plan.deletions) {
    if (named.count(node) == 0) victim = node;
  }
  ASSERT_NE(victim, kInvalidNode) << "every deleted copy shares a named node";

  c.cfs->kill_node(victim);
  failure::RepairManager repair(*c.cfs, failure::RepairConfig{});
  repair.schedule_node(victim);
  ASSERT_GT(repair.drain().re_replicated, 0);

  c.cfs->encode_stripe(plan);
  expect_live_encoded_layout(*c.cfs, stripe);
  for (const auto& [block, bytes] : c.payloads) {
    EXPECT_EQ(c.cfs->read_block(block, 1).to_vector(), bytes)
        << "block " << block;
  }
}

TEST(EncodePlan, RetiresACopyRegisteredMidEncode) {
  // A repair that read an older listing registers one more copy of a data
  // block while the encode is moving bytes.  The commit retires every copy
  // listed at that point but the kept one, so the block ends with one copy.
  const cfs::CfsConfig cfg = qos_repair_config();
  Cluster c = make_cluster(cfg, 1);
  const StripeId stripe = c.cfs->sealed_stripes().at(0);
  const EncodePlan plan = c.cfs->plan_encoding(stripe);
  const BlockId block = c.cfs->stripe_meta(stripe).data_blocks.at(0);
  // A node that stores nothing and gets no parity block.
  NodeId extra = 0;
  while (c.cfs->blocks_stored_on(extra) != 0 ||
         std::count(plan.parity.begin(), plan.parity.end(), extra) != 0) {
    ++extra;
  }
  ASSERT_LT(extra, c.cfs->topology().node_count());
  c.transport->on_next_transfer(
      [&] { c.cfs->replicate_block(block, extra); });

  c.cfs->encode_stripe(plan);
  EXPECT_EQ(c.cfs->blocks_stored_on(extra), 0) << "extra copy left stored";
  expect_live_encoded_layout(*c.cfs, stripe);
  for (const auto& [b, bytes] : c.payloads) {
    EXPECT_EQ(c.cfs->read_block(b, 1).to_vector(), bytes) << "block " << b;
  }
}

TEST(EncodePlan, ReReplicationRestoresTheLostCopysRack) {
  // Under EAR a data block waiting for its encode gets a lost core-rack
  // copy back in the core rack; any other lost copy takes the target tiers
  // unless the stripe's live copies lost their kept-replica matching.
  // Either way every stripe still plans with no cross-rack download.  A
  // block whose copy's rack has no live node left falls back to the tiers.
  const cfs::CfsConfig cfg = qos_repair_config();
  Cluster c = make_cluster(cfg, 6);
  const Topology& topo = c.cfs->topology();
  const NodeId victim = 3;
  std::map<BlockId, RackId> core_rack;
  for (const StripeId s : c.cfs->sealed_stripes()) {
    for (const BlockId b : c.cfs->stripe_meta(s).data_blocks) {
      core_rack[b] = c.cfs->policy().stripe(s).core_rack;
    }
  }
  const cfs::NamespaceSnapshot before = c.cfs->namespace_snapshot();
  c.cfs->kill_node(victim);
  failure::RepairManager repair(*c.cfs, failure::RepairConfig{});
  repair.schedule_node(victim);
  ASSERT_GT(repair.drain().re_replicated, 0);
  int core_restored = 0;
  int moved = 0;
  for (const auto& [block, status] : before.blocks) {
    const auto& old_locs = status.locations;
    if (std::find(old_locs.begin(), old_locs.end(), victim) == old_locs.end()) {
      continue;
    }
    const std::vector<NodeId> locs = c.cfs->block_locations(block);
    ASSERT_EQ(locs.size(), old_locs.size()) << "block " << block;
    for (const NodeId n : locs) {
      if (std::find(old_locs.begin(), old_locs.end(), n) != old_locs.end()) {
        continue;
      }
      if (core_rack.at(block) == topo.rack_of(victim)) {
        EXPECT_EQ(topo.rack_of(n), topo.rack_of(victim)) << "block " << block;
        ++core_restored;
      } else if (topo.rack_of(n) != topo.rack_of(victim)) {
        ++moved;
      }
    }
  }
  EXPECT_GT(core_restored, 0);
  EXPECT_GT(moved, 0) << "every secondary copy was pinned to its rack";
  for (const StripeId s : c.cfs->sealed_stripes()) {
    EXPECT_EQ(c.cfs->plan_encoding(s).cross_rack_downloads, 0)
        << "stripe " << s;
  }

  // With the victim's whole rack down, a lost copy goes to another rack.
  const NodeId partner = victim ^ 1;
  const cfs::NamespaceSnapshot mid = c.cfs->namespace_snapshot();
  c.cfs->kill_node(partner);
  repair.schedule_node(partner);
  EXPECT_EQ(repair.drain().unrecoverable, 0);
  for (const auto& [block, status] : mid.blocks) {
    const auto& old_locs = status.locations;
    if (std::find(old_locs.begin(), old_locs.end(), partner) ==
        old_locs.end()) {
      continue;
    }
    for (const NodeId n : c.cfs->block_locations(block)) {
      if (!c.cfs->node_alive(n)) continue;
      EXPECT_NE(topo.rack_of(n), topo.rack_of(partner)) << "block " << block;
    }
  }
}

TEST(EncodePlan, RrRedrawsDownNodesOnly) {
  // RR's plan over live copies with a down node: the encoder and parity
  // nodes are up, every kept copy is a live one, and the deletions name
  // every other copy of the placement record, the down one included.
  const Topology topo(8, 3);
  PlacementConfig pcfg;
  pcfg.code = CodeParams{6, 4};
  pcfg.replication = 3;
  RandomReplication rr(topo, pcfg, 21);
  BlockId next = 0;
  while (rr.sealed_stripes().size() < 40) rr.place_block(next++, std::nullopt);
  const NodeId down = 5;
  for (const StripeId id : rr.sealed_stripes()) {
    const auto& copies = rr.stripe(id).replicas;
    const EncodePlan plan =
        rr.plan_encoding(id, copies, [](NodeId n) { return n == down; });
    EXPECT_NE(plan.encoder, down);
    for (const NodeId n : plan.parity) EXPECT_NE(n, down);
    size_t listed = 0;
    for (size_t i = 0; i < copies.size(); ++i) {
      EXPECT_NE(plan.kept[i], down);
      listed += copies[i].size();
    }
    EXPECT_EQ(plan.deletions.size(), listed - copies.size());
  }
}

// FNV-1a over every field of a plan sequence.
class PlanDigest {
 public:
  void add(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const EncodePlan& p) {
    add(p.stripe);
    add(p.encoder);
    for (const NodeId n : p.kept) add(n);
    for (const NodeId n : p.parity) add(n);
    for (const auto& [i, n] : p.deletions) {
      add(i);
      add(n);
    }
    add(p.cross_rack_downloads);
    add(p.cross_rack_parity_uploads);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Places 200 stripes and plans each with every node up, through the
// placement record (`explicit_view` false) or the same sets passed as the
// live view with a down test that names no node.
uint64_t all_up_digest(bool use_ear, bool explicit_view) {
  const Topology topo(16, 4);
  PlacementConfig pcfg;
  pcfg.code = CodeParams{14, 10};
  pcfg.replication = 3;
  pcfg.c = 2;
  std::unique_ptr<PlacementPolicy> policy =
      use_ear ? make_encoding_aware_replication(topo, pcfg, 99)
              : make_random_replication(topo, pcfg, 99);
  BlockId next = 0;
  while (policy->sealed_stripes().size() < 200) {
    policy->place_block(next++, std::nullopt);
  }
  PlanDigest digest;
  for (const StripeId id : policy->sealed_stripes()) {
    if (explicit_view) {
      const auto copies = policy->stripe(id).replicas;
      digest.add(policy->plan_encoding(id, copies,
                                       [](NodeId) { return false; }));
    } else {
      digest.add(policy->plan_encoding(id));
    }
  }
  return digest.value();
}

TEST(EncodePlan, AllUpPlansMatchTheRecordDigest) {
  // Recorded from the placement-record planner this one replaced: with
  // every node up, live-view planning draws the same plans with the same
  // RNG draws.
  constexpr uint64_t kEarDigest = 0xd422f6dc0ad5f519ULL;
  constexpr uint64_t kRrDigest = 0x3be36af3b1c29660ULL;
  EXPECT_EQ(all_up_digest(true, false), kEarDigest);
  EXPECT_EQ(all_up_digest(false, false), kRrDigest);
  EXPECT_EQ(all_up_digest(true, true), kEarDigest);
  EXPECT_EQ(all_up_digest(false, true), kRrDigest);
}

}  // namespace
}  // namespace ear
