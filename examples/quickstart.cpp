// Quickstart: the full replication -> erasure-coding lifecycle on the
// in-process clustered file system.
//
//   1. bring up a 10-rack cluster with encoding-aware replication (EAR);
//   2. write a file of blocks (3-way replicated);
//   3. run the asynchronous encoding operation on a sealed stripe
//      ((8,6) Reed-Solomon) — note it needs zero cross-rack downloads;
//   4. kill a node and read the lost block back through erasure decoding.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <memory>

#include "cfs/minicfs.h"
#include "common/rng.h"

int main() {
  using namespace ear;

  cfs::CfsConfig config;
  config.racks = 10;
  config.nodes_per_rack = 4;
  config.placement.code = CodeParams{8, 6};  // 6 data + 2 parity blocks
  config.placement.replication = 3;
  config.placement.c = 1;  // at most 1 block of a stripe per rack
  config.use_ear = true;
  config.block_size = 256_KB;
  config.seed = 2026;

  const Topology topo(config.racks, config.nodes_per_rack);
  cfs::MiniCfs cluster(config,
                       std::make_unique<cfs::InstantTransport>(topo));
  std::printf("cluster up: %s, (n,k)=(%d,%d), %d-way replication, EAR\n",
              topo.describe().c_str(), config.placement.code.n,
              config.placement.code.k, config.placement.replication);

  // ---- 2. write blocks until a stripe seals -------------------------------
  Rng rng(7);
  std::map<BlockId, std::vector<uint8_t>> contents;
  while (cluster.sealed_stripes().empty()) {
    std::vector<uint8_t> block(static_cast<size_t>(config.block_size));
    for (auto& byte : block) byte = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cluster.write_block(block);
    contents[id] = std::move(block);
    std::printf("  wrote block %ld -> replicas on nodes", (long)id);
    for (const NodeId n : cluster.block_locations(id)) {
      std::printf(" %d(rack %d)", n, topo.rack_of(n));
    }
    std::printf("\n");
  }

  // ---- 3. encode the sealed stripe ----------------------------------------
  const StripeId stripe = cluster.sealed_stripes().front();
  cluster.encode_stripe(stripe);
  const cfs::StripeMeta meta = cluster.stripe_meta(stripe);
  std::printf("encoded stripe %ld: %zu data + %zu parity blocks, "
              "%ld cross-rack downloads (EAR guarantees 0)\n",
              (long)stripe, meta.data_blocks.size(),
              meta.parity_blocks.size(),
              (long)cluster.encode_cross_rack_downloads());
  for (const BlockId b : meta.data_blocks) {
    const auto locs = cluster.block_locations(b);
    std::printf("  data block %ld now single copy on node %d (rack %d)\n",
                (long)b, locs[0], topo.rack_of(locs[0]));
  }

  // ---- 4. fail a node, read through decoding ------------------------------
  const BlockId victim = meta.data_blocks[0];
  const NodeId dead = cluster.block_locations(victim)[0];
  cluster.kill_node(dead);
  std::printf("killed node %d (the only copy of block %ld)\n", dead,
              (long)victim);

  const NodeId reader = (dead + 1) % topo.node_count();
  const ear::datapath::BlockBuffer recovered =
      cluster.read_block(victim, reader);
  const bool intact = recovered == contents.at(victim);
  std::printf("degraded read of block %ld: %s\n", (long)victim,
              intact ? "content matches original" : "CORRUPTED");

  // Repair the block onto a healthy node and verify again.
  const NodeId target = (dead + 2) % topo.node_count();
  cluster.repair_block(victim, target);
  std::printf("repaired block %ld onto node %d; locations now:", (long)victim,
              target);
  for (const NodeId n : cluster.block_locations(victim)) {
    std::printf(" %d", n);
  }
  std::printf("\n");
  return intact ? 0 : 1;
}
