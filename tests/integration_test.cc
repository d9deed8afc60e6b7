// End-to-end lifecycle tests across modules: file namespace -> replication
// -> asynchronous encoding -> failures -> recovery -> verification, plus a
// concurrency stress test of the testbed.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "cfs/filesystem.h"
#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/rng.h"
#include "failure/repair.h"
#include "placement/monitor.h"

namespace ear::cfs {
namespace {

CfsConfig big_config(bool use_ear = true) {
  CfsConfig cfg;
  cfg.racks = 12;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{9, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = use_ear;
  cfg.block_size = 8_KB;
  cfg.seed = 71;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

std::vector<uint8_t> random_bytes(size_t size, Rng& rng) {
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

TEST(Integration, FullLifecycleWithRackFailuresAndRecovery) {
  const auto cfg = big_config();
  auto cfs = make_cfs(cfg);
  FileSystem fs(*cfs);
  Rng rng(1);

  // 1. Write a handful of files of varying sizes.
  std::map<std::string, std::vector<uint8_t>> files;
  for (int f = 0; f < 6; ++f) {
    const std::string name = "/data/file" + std::to_string(f);
    fs.create(name);
    const size_t size =
        static_cast<size_t>(cfg.block_size) * static_cast<size_t>(3 + f * 4) +
        static_cast<size_t>(rng.uniform(1000));
    files[name] = random_bytes(size, rng);
    fs.append(name, files[name]);
  }

  // 2. Encode every sealed stripe via the RaidNode.
  auto stripes = cfs->sealed_stripes();
  ASSERT_GE(stripes.size(), 5u);
  RaidNode raid(*cfs, 6);
  const EncodeReport report = raid.encode_stripes(stripes);
  EXPECT_EQ(report.cross_rack_downloads, 0) << "EAR property end-to-end";

  // 3. Every encoded stripe passes the placement monitor.
  const Topology& topo = cfs->topology();
  const PlacementMonitor monitor(topo, cfg.placement.code);
  for (const StripeId s : stripes) {
    const StripeMeta meta = cfs->stripe_meta(s);
    StripeLayout layout;
    for (const BlockId b : meta.data_blocks) {
      layout.nodes.push_back(cfs->block_locations(b)[0]);
    }
    for (const BlockId b : meta.parity_blocks) {
      layout.nodes.push_back(cfs->block_locations(b)[0]);
    }
    EXPECT_TRUE(monitor.plan_relocations(layout, cfg.placement.c).empty());
  }

  // 4. Kill three racks (the code tolerates any 3 block losses per stripe,
  // and c = 1 means a rack holds at most one block per stripe).
  cfs->kill_rack(0);
  cfs->kill_rack(5);
  cfs->kill_rack(11);
  NodeId reader = 0;
  while (!cfs->node_alive(reader)) ++reader;

  // 5. All files still read back intact via degraded reads.
  for (const auto& [name, content] : files) {
    EXPECT_EQ(fs.read(name, reader), content) << name;
  }

  // 6. Restore redundancy, revive the racks, verify again.
  failure::RepairManager repair(*cfs, failure::RepairConfig{});
  repair.schedule_scan();
  const auto recovery = repair.drain();
  EXPECT_EQ(recovery.unrecoverable, 0);
  EXPECT_GT(recovery.repaired + recovery.re_replicated, 0);
  cfs->revive_all();
  for (const auto& [name, content] : files) {
    EXPECT_EQ(fs.read(name, reader), content) << name;
  }
}

TEST(Integration, ConcurrentWritersAndEncodersStress) {
  const auto cfg = big_config();
  auto cfs = make_cfs(cfg);
  Rng seed_rng(3);

  // Phase 1: 4 concurrent writer threads.
  std::atomic<int> written{0};
  {
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&, w] {
        Rng rng(static_cast<uint64_t>(100 + w));
        std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size));
        for (int i = 0; i < 30; ++i) {
          for (auto& b : block) b = static_cast<uint8_t>(rng.uniform(256));
          cfs->write_block(block);
          ++written;
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  EXPECT_EQ(written.load(), 120);

  // Phase 2: encode everything sealed with 8 parallel map tasks while more
  // writes continue.
  auto stripes = cfs->sealed_stripes();
  ASSERT_GE(stripes.size(), 10u);
  std::thread late_writer([&] {
    Rng rng(999);
    std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size), 0x1);
    for (int i = 0; i < 20; ++i) cfs->write_block(block);
  });
  RaidNode raid(*cfs, 8);
  const EncodeReport report = raid.encode_stripes(stripes);
  late_writer.join();
  EXPECT_EQ(report.completion_times.size(), stripes.size());
  for (const StripeId s : stripes) EXPECT_TRUE(cfs->is_encoded(s));

  // All blocks remain readable.
  for (const BlockId b : cfs->all_blocks()) {
    EXPECT_NO_THROW(cfs->read_block(b, 0));
  }
}

TEST(Integration, RrLifecycleNeedsRelocationsButEarDoesNot) {
  int relocations[2] = {0, 0};
  for (const bool use_ear : {false, true}) {
    const auto cfg = big_config(use_ear);
    auto cfs = make_cfs(cfg);
    Rng rng(4);
    std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size));
    while (cfs->sealed_stripes().size() < 15) {
      for (auto& b : block) b = static_cast<uint8_t>(rng.uniform(256));
      cfs->write_block(block);
    }
    auto stripes = cfs->sealed_stripes();
    stripes.resize(15);
    RaidNode raid(*cfs, 6);
    raid.encode_stripes(stripes);

    const PlacementMonitor monitor(cfs->topology(), cfg.placement.code);
    for (const StripeId s : stripes) {
      const StripeMeta meta = cfs->stripe_meta(s);
      StripeLayout layout;
      for (const BlockId b : meta.data_blocks) {
        layout.nodes.push_back(cfs->block_locations(b)[0]);
      }
      for (const BlockId b : meta.parity_blocks) {
        layout.nodes.push_back(cfs->block_locations(b)[0]);
      }
      relocations[use_ear ? 1 : 0] += static_cast<int>(
          monitor.plan_relocations(layout, cfg.placement.c).size());
    }
  }
  EXPECT_GT(relocations[0], 0);
  EXPECT_EQ(relocations[1], 0);
}

}  // namespace
}  // namespace ear::cfs
