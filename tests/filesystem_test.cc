#include "cfs/filesystem.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "failure/repair.h"

namespace ear::cfs {
namespace {

CfsConfig fs_config(bool use_ear = true) {
  CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = use_ear;
  cfg.block_size = 32_KB;
  cfg.seed = 31;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

std::vector<uint8_t> random_bytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

TEST(FileSystem, CreateListRemove) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  fs.create("/a");
  fs.create("/b");
  EXPECT_TRUE(fs.exists("/a"));
  EXPECT_EQ(fs.list().size(), 2u);
  EXPECT_THROW(fs.create("/a"), std::runtime_error);
  fs.remove("/a");
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_THROW(fs.remove("/a"), std::runtime_error);
}

TEST(FileSystem, RoundTripExactMultipleOfBlockSize) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  fs.create("/data");
  const auto payload = random_bytes(static_cast<size_t>(cfg.block_size) * 3, 1);
  const auto written = fs.append("/data", payload);
  EXPECT_EQ(written.size(), 3u);
  EXPECT_EQ(fs.size("/data"), cfg.block_size * 3);
  EXPECT_EQ(fs.read("/data", 0), payload);
}

TEST(FileSystem, RoundTripWithPartialTailBlock) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  fs.create("/tail");
  const auto payload =
      random_bytes(static_cast<size_t>(cfg.block_size) * 2 + 1234, 2);
  fs.append("/tail", payload);
  EXPECT_EQ(fs.size("/tail"), static_cast<Bytes>(payload.size()));
  EXPECT_EQ(fs.read("/tail", 5), payload);
}

TEST(FileSystem, MultipleAppendsConcatenate) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  fs.create("/log");
  const auto part1 = random_bytes(1000, 3);
  const auto part2 = random_bytes(static_cast<size_t>(cfg.block_size), 4);
  fs.append("/log", part1);
  fs.append("/log", part2);
  auto expected = part1;
  expected.insert(expected.end(), part2.begin(), part2.end());
  EXPECT_EQ(fs.read("/log", 0), expected);
  EXPECT_EQ(fs.blocks("/log").size(), 2u);
}

TEST(FileSystem, ReadSurvivesEncodingAndFailure) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  fs.create("/big");
  // Enough data that at least one stripe seals.
  const auto payload =
      random_bytes(static_cast<size_t>(cfg.block_size) * 12, 5);
  fs.append("/big", payload);
  while (!cfs->sealed_stripes().empty() &&
         !cfs->is_encoded(cfs->sealed_stripes()[0])) {
    cfs->encode_stripe(cfs->sealed_stripes()[0]);
    break;
  }
  // Kill the node holding the first encoded block's only copy.
  for (const BlockId b : fs.blocks("/big")) {
    if (cfs->is_block_encoded(b)) {
      cfs->kill_node(cfs->block_locations(b)[0]);
      break;
    }
  }
  NodeId reader = kInvalidNode;
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    if (cfs->node_alive(n)) {
      reader = n;
      break;
    }
  }
  EXPECT_EQ(fs.read("/big", reader), payload);
}

TEST(FileSystem, EmptyAppendWritesNothing) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  fs.create("/empty");
  EXPECT_TRUE(fs.append("/empty", {}).empty());
  EXPECT_EQ(fs.size("/empty"), 0);
  EXPECT_TRUE(fs.read("/empty", 0).empty());
}

TEST(FileSystem, UnknownFileThrows) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  EXPECT_THROW(fs.read("/nope", 0), std::runtime_error);
  EXPECT_THROW(fs.size("/nope"), std::runtime_error);
  EXPECT_THROW(fs.blocks("/nope"), std::runtime_error);
  std::vector<uint8_t> data(10);
  EXPECT_THROW(fs.append("/nope", data), std::runtime_error);
}

// ------------------------------------------------------------- recovery

// One synchronous repair pass over the whole namespace.
failure::RepairManager::Report repair_all(MiniCfs& cfs) {
  failure::RepairManager repair(cfs, failure::RepairConfig{});
  repair.schedule_scan();
  return repair.drain();
}

TEST(Recovery, ReReplicatesAfterNodeFailure) {
  const auto cfg = fs_config(false);
  auto cfs = make_cfs(cfg);
  Rng rng(6);
  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 0x5A);
  const BlockId id = cfs->write_block(block);
  const auto locs = cfs->block_locations(id);
  cfs->kill_node(locs[0]);

  const auto report = repair_all(*cfs);
  EXPECT_GE(report.re_replicated, 1);
  EXPECT_EQ(report.unrecoverable, 0);

  const auto fresh = cfs->block_locations(id);
  EXPECT_EQ(fresh.size(), 3u);
  for (const NodeId n : fresh) EXPECT_TRUE(cfs->node_alive(n));
}

TEST(Recovery, RepairsEncodedBlocksAfterRackFailure) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  Rng rng(7);
  std::vector<uint8_t> payload(static_cast<size_t>(cfg.block_size));
  for (auto& b : payload) b = static_cast<uint8_t>(rng.uniform(256));
  while (cfs->sealed_stripes().empty()) {
    cfs->write_block(payload);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  // Kill one rack; with c = 1 that removes at most one block of the stripe.
  const RackId dead =
      cfs->topology().rack_of(cfs->block_locations(meta.data_blocks[0])[0]);
  cfs->kill_rack(dead);

  const auto report = repair_all(*cfs);
  EXPECT_EQ(report.unrecoverable, 0);
  // Every stripe block has a live copy now.
  for (const BlockId b : meta.data_blocks) {
    const auto locs = cfs->block_locations(b);
    ASSERT_FALSE(locs.empty());
    EXPECT_TRUE(cfs->node_alive(locs[0]));
  }
}

TEST(Recovery, ReportsUnrecoverableReplicatedBlock) {
  const auto cfg = fs_config(false);
  auto cfs = make_cfs(cfg);
  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 1);
  const BlockId id = cfs->write_block(block);
  for (const NodeId n : cfs->block_locations(id)) cfs->kill_node(n);
  const auto report = repair_all(*cfs);
  EXPECT_GE(report.unrecoverable, 1);
}

TEST(Recovery, IdempotentWhenHealthy) {
  const auto cfg = fs_config();
  auto cfs = make_cfs(cfg);
  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 2);
  for (int i = 0; i < 10; ++i) cfs->write_block(block);
  const auto report = repair_all(*cfs);
  EXPECT_EQ(report.re_replicated, 0);
  EXPECT_EQ(report.repaired, 0);
  EXPECT_EQ(report.unrecoverable, 0);
}

TEST(Recovery, ReReplicationPrefersNewRacks) {
  const auto cfg = fs_config(false);
  auto cfs = make_cfs(cfg);
  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 3);
  const BlockId id = cfs->write_block(block);
  const auto locs = cfs->block_locations(id);
  // Kill the doubled rack's nodes (replicas 2+3 share a rack).
  const RackId doubled = cfs->topology().rack_of(locs[1]);
  cfs->kill_rack(doubled);
  repair_all(*cfs);
  const auto fresh = cfs->block_locations(id);
  ASSERT_EQ(fresh.size(), 3u);
  std::set<RackId> racks;
  for (const NodeId n : fresh) {
    EXPECT_TRUE(cfs->node_alive(n));
    racks.insert(cfs->topology().rack_of(n));
  }
  EXPECT_GE(racks.size(), 2u);
}

}  // namespace
}  // namespace ear::cfs
