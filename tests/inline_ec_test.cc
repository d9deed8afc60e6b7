#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cfs/minicfs.h"
#include "common/rng.h"
#include "failure/repair.h"

namespace ear::cfs {
namespace {

CfsConfig inline_config() {
  CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;
  cfg.seed = 61;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

std::vector<std::vector<uint8_t>> random_stripe(const CfsConfig& cfg,
                                                Rng& rng) {
  std::vector<std::vector<uint8_t>> data(
      static_cast<size_t>(cfg.placement.code.k));
  for (auto& block : data) {
    block.resize(static_cast<size_t>(cfg.block_size));
    for (auto& b : block) b = static_cast<uint8_t>(rng.uniform(256));
  }
  return data;
}

std::vector<std::span<const uint8_t>> views(
    const std::vector<std::vector<uint8_t>>& blocks) {
  return {blocks.begin(), blocks.end()};
}

TEST(InlineEc, WriteAndReadBack) {
  const auto cfg = inline_config();
  auto cfs = make_cfs(cfg);
  Rng rng(1);
  const auto data = random_stripe(cfg, rng);
  const StripeId stripe = cfs->write_encoded_stripe(views(data), NodeId{0});

  EXPECT_TRUE(cfs->is_encoded(stripe));
  const StripeMeta meta = cfs->stripe_meta(stripe);
  ASSERT_EQ(meta.data_blocks.size(), 6u);
  ASSERT_EQ(meta.parity_blocks.size(), 2u);
  for (size_t i = 0; i < meta.data_blocks.size(); ++i) {
    EXPECT_EQ(cfs->read_block(meta.data_blocks[i], 0), data[i]);
  }
}

TEST(InlineEc, PlacementSpansNDistinctRacks) {
  const auto cfg = inline_config();
  auto cfs = make_cfs(cfg);
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto data = random_stripe(cfg, rng);
    const StripeId stripe = cfs->write_encoded_stripe(views(data));
    const StripeMeta meta = cfs->stripe_meta(stripe);
    std::set<RackId> racks;
    std::set<NodeId> nodes;
    for (const BlockId b : meta.data_blocks) {
      const NodeId n = cfs->block_locations(b)[0];
      nodes.insert(n);
      racks.insert(cfs->topology().rack_of(n));
    }
    for (const BlockId b : meta.parity_blocks) {
      const NodeId n = cfs->block_locations(b)[0];
      nodes.insert(n);
      racks.insert(cfs->topology().rack_of(n));
    }
    EXPECT_EQ(nodes.size(), 8u);
    EXPECT_EQ(racks.size(), 8u);
  }
}

TEST(InlineEc, DegradedReadAfterFailure) {
  const auto cfg = inline_config();
  auto cfs = make_cfs(cfg);
  Rng rng(3);
  const auto data = random_stripe(cfg, rng);
  const StripeId stripe = cfs->write_encoded_stripe(views(data));
  const StripeMeta meta = cfs->stripe_meta(stripe);
  const BlockId victim = meta.data_blocks[1];
  cfs->kill_node(cfs->block_locations(victim)[0]);
  NodeId reader = 0;
  while (!cfs->node_alive(reader)) ++reader;
  EXPECT_EQ(cfs->read_block(victim, reader), data[1]);
}

TEST(InlineEc, StripeIdsDoNotCollideWithAsyncPath) {
  const auto cfg = inline_config();
  auto cfs = make_cfs(cfg);
  Rng rng(4);
  // Fill one async stripe...
  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 0x11);
  while (cfs->sealed_stripes().empty()) cfs->write_block(block);
  const StripeId async_stripe = cfs->sealed_stripes()[0];
  // ...and one inline stripe.
  const auto data = random_stripe(cfg, rng);
  const StripeId inline_stripe = cfs->write_encoded_stripe(views(data));
  EXPECT_NE(async_stripe, inline_stripe);
  EXPECT_LT(inline_stripe, 0);
  // Both remain individually addressable.
  cfs->encode_stripe(async_stripe);
  EXPECT_TRUE(cfs->is_encoded(async_stripe));
  EXPECT_TRUE(cfs->is_encoded(inline_stripe));
}

TEST(InlineEc, RejectsBadInput) {
  const auto cfg = inline_config();
  auto cfs = make_cfs(cfg);
  Rng rng(5);
  auto data = random_stripe(cfg, rng);
  data.pop_back();  // k-1 blocks
  EXPECT_THROW(cfs->write_encoded_stripe(views(data)), std::invalid_argument);

  auto bad_size = random_stripe(cfg, rng);
  bad_size[0].resize(10);
  EXPECT_THROW(cfs->write_encoded_stripe(views(bad_size)),
               std::invalid_argument);
}

TEST(InlineEc, RecoveryHandlesInlineStripes) {
  const auto cfg = inline_config();
  auto cfs = make_cfs(cfg);
  Rng rng(6);
  const auto data = random_stripe(cfg, rng);
  const StripeId stripe = cfs->write_encoded_stripe(views(data));
  const StripeMeta meta = cfs->stripe_meta(stripe);
  cfs->kill_node(cfs->block_locations(meta.data_blocks[0])[0]);
  failure::RepairManager repair(*cfs, failure::RepairConfig{});
  repair.schedule_scan();
  const auto report = repair.drain();
  EXPECT_EQ(report.repaired, 1);
  EXPECT_EQ(report.unrecoverable, 0);
}

}  // namespace
}  // namespace ear::cfs
