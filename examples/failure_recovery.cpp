// Failure and recovery walkthrough: demonstrates why EAR's encoded layouts
// survive rack failures without relocation while random replication's may
// not, then exercises degraded reads and repair under escalating failures.
//
// Build & run:  ./build/examples/failure_recovery
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "cfs/minicfs.h"
#include "common/rng.h"
#include "failure/repair.h"
#include "placement/monitor.h"

namespace {

using namespace ear;

// Fills the cluster until `stripes` seal, returning content for verification.
std::map<BlockId, std::vector<uint8_t>> load(cfs::MiniCfs& cluster,
                                             size_t stripes, uint64_t seed) {
  Rng rng(seed);
  std::map<BlockId, std::vector<uint8_t>> contents;
  while (cluster.sealed_stripes().size() < stripes) {
    std::vector<uint8_t> block(
        static_cast<size_t>(cluster.config().block_size));
    for (auto& byte : block) byte = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cluster.write_block(block);
    contents[id] = std::move(block);
  }
  return contents;
}

NodeId first_alive(const cfs::MiniCfs& cluster) {
  for (NodeId n = 0; n < cluster.topology().node_count(); ++n) {
    if (cluster.node_alive(n)) return n;
  }
  return kInvalidNode;
}

}  // namespace

int main() {
  cfs::CfsConfig config;
  config.racks = 12;
  config.nodes_per_rack = 3;
  config.placement.code = CodeParams{9, 6};  // tolerates any 3 lost blocks
  config.placement.replication = 3;
  config.placement.c = 1;
  config.block_size = 128_KB;
  config.seed = 99;

  // ---- Part 1: availability audit, RR vs EAR -------------------------------
  std::printf("== Part 1: post-encoding rack fault tolerance audit ==\n");
  for (const bool use_ear : {false, true}) {
    config.use_ear = use_ear;
    const Topology topo(config.racks, config.nodes_per_rack);
    cfs::MiniCfs cluster(config,
                         std::make_unique<cfs::InstantTransport>(topo));
    load(cluster, 20, 5);
    const PlacementMonitor monitor(topo, config.placement.code);

    int safe = 0, violating = 0, relocations = 0;
    for (const StripeId s : cluster.sealed_stripes()) {
      cluster.encode_stripe(s);
      const cfs::StripeMeta meta = cluster.stripe_meta(s);
      StripeLayout layout;
      for (const BlockId b : meta.data_blocks) {
        layout.nodes.push_back(cluster.block_locations(b)[0]);
      }
      for (const BlockId b : meta.parity_blocks) {
        layout.nodes.push_back(cluster.block_locations(b)[0]);
      }
      const auto moves = monitor.plan_relocations(layout, config.placement.c);
      if (moves.empty()) {
        ++safe;
      } else {
        ++violating;
        relocations += static_cast<int>(moves.size());
      }
    }
    std::printf("  %s: %d stripes safe, %d need relocation (%d block moves "
                "owed)\n",
                use_ear ? "EAR" : "RR ", safe, violating, relocations);
  }

  // ---- Part 2: escalating failures under EAR --------------------------------
  std::printf("\n== Part 2: degraded reads and repair under failures ==\n");
  config.use_ear = true;
  const Topology topo(config.racks, config.nodes_per_rack);
  cfs::MiniCfs cluster(config, std::make_unique<cfs::InstantTransport>(topo));
  const auto contents = load(cluster, 4, 17);
  const StripeId stripe = cluster.sealed_stripes().front();
  cluster.encode_stripe(stripe);
  const cfs::StripeMeta meta = cluster.stripe_meta(stripe);

  // Kill the racks of the first three blocks of the stripe — exactly the
  // n - k = 3 losses the code tolerates.
  std::set<RackId> killed;
  for (int i = 0; i < 3; ++i) {
    const RackId r = topo.rack_of(
        cluster.block_locations(meta.data_blocks[static_cast<size_t>(i)])[0]);
    cluster.kill_rack(r);
    killed.insert(r);
  }
  std::printf("  killed %zu racks holding 3 of the stripe's blocks\n",
              killed.size());

  const NodeId reader = first_alive(cluster);
  int recovered = 0;
  for (const BlockId b : meta.data_blocks) {
    if (cluster.read_block(b, reader) == contents.at(b)) ++recovered;
  }
  std::printf("  degraded reads: %d/%zu data blocks recovered intact\n",
              recovered, meta.data_blocks.size());
  const bool intact = recovered == static_cast<int>(meta.data_blocks.size());

  // Restore redundancy: the repair manager rebuilds each lost stripe block
  // on a live node in a rack holding no other block of the stripe, and
  // re-replicates the replicated blocks that lost copies.
  failure::RepairManager repair(cluster, failure::RepairConfig{});
  repair.schedule_scan();
  const failure::RepairManager::Report report = repair.drain();
  std::set<RackId> racks;
  for (const auto* ids : {&meta.data_blocks, &meta.parity_blocks}) {
    for (const BlockId b : *ids) {
      racks.insert(topo.rack_of(cluster.block_locations(b)[0]));
    }
  }
  std::printf("  repair: %lld stripe blocks rebuilt, %lld replica copies "
              "made; the stripe spans %zu racks again\n",
              static_cast<long long>(report.repaired),
              static_cast<long long>(report.re_replicated), racks.size());
  std::printf("  unrecoverable: %lld (replicated blocks whose every copy "
              "was in the killed racks)\n",
              static_cast<long long>(report.unrecoverable));

  // One more rack failure is now survivable again: lose the rack block 0
  // was rebuilt into and read it back by decoding.
  const BlockId first = meta.data_blocks[0];
  cluster.kill_rack(topo.rack_of(cluster.block_locations(first)[0]));
  const NodeId reader2 = first_alive(cluster);
  const bool survived =
      cluster.read_block(first, reader2) == contents.at(first);
  std::printf("  after killing one more rack, block 0 reads back %s\n",
              survived ? "intact" : "CORRUPTED");
  return intact && survived ? 0 : 1;
}
