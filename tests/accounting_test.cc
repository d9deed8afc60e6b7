// Byte- and time-accounting invariants: the traffic counters that the
// paper's argument rests on must be internally consistent across the
// simulator and the testbed.
#include <gtest/gtest.h>

#include <memory>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "mapred/mapreduce.h"
#include "sim/cluster.h"

namespace ear {
namespace {

TEST(Accounting, SimLastStripeCompletionIsEncodeEnd) {
  sim::SimConfig cfg;
  cfg.racks = 8;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.block_size = 8_MB;
  cfg.encode_processes = 4;
  cfg.stripes_per_process = 5;
  cfg.write_rate = 0;
  cfg.background_rate = 0;
  cfg.seed = 31;
  const sim::SimResult r = sim::ClusterSim(cfg).run();
  ASSERT_FALSE(r.stripe_completions.empty());
  EXPECT_DOUBLE_EQ(r.stripe_completions.back().first, r.encode_end);
  EXPECT_GE(r.stripe_completions.front().first, r.encode_begin);
}

TEST(Accounting, SimEarEncodingTrafficIsParityOnly) {
  // With writes and background off, EAR's cross-rack bytes are exactly the
  // parity uploads that leave the core rack.
  sim::SimConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = true;
  cfg.block_size = 8_MB;
  cfg.encode_processes = 4;
  cfg.stripes_per_process = 5;
  cfg.write_rate = 0;
  cfg.background_rate = 0;
  cfg.seed = 32;
  const sim::SimResult r = sim::ClusterSim(cfg).run();
  const int64_t max_parity_bytes =
      static_cast<int64_t>(r.stripes_encoded) * 2 * cfg.block_size;
  EXPECT_LE(r.cross_rack_bytes, max_parity_bytes);
  EXPECT_EQ(r.encoding_cross_rack_downloads, 0);
  // Downloads happen intra-rack (or on-node), so intra bytes are bounded by
  // k blocks per stripe plus parity that stayed local.
  EXPECT_LE(r.intra_rack_bytes,
            static_cast<int64_t>(r.stripes_encoded) * 8 * cfg.block_size);
}

TEST(Accounting, SimRrEncodingTrafficExceedsEar) {
  int64_t cross[2];
  for (const bool use_ear : {false, true}) {
    sim::SimConfig cfg;
    cfg.racks = 10;
    cfg.nodes_per_rack = 4;
    cfg.placement.code = CodeParams{8, 6};
    cfg.use_ear = use_ear;
    cfg.block_size = 8_MB;
    cfg.encode_processes = 4;
    cfg.stripes_per_process = 5;
    cfg.write_rate = 0;
    cfg.background_rate = 0;
    cfg.seed = 33;
    cross[use_ear ? 1 : 0] = sim::ClusterSim(cfg).run().cross_rack_bytes;
  }
  EXPECT_GT(cross[0], 2 * cross[1])
      << "RR moves k-ish blocks across racks per stripe, EAR only parity";
}

TEST(Accounting, TestbedEncodeReportMatchesTransportDelta) {
  cfs::CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = true;
  cfg.block_size = 32_KB;
  cfg.seed = 34;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::MiniCfs cluster(cfg, std::make_unique<cfs::InstantTransport>(topo));
  Rng rng(35);
  std::vector<uint8_t> block(static_cast<size_t>(cfg.block_size));
  while (cluster.sealed_stripes().size() < 6) {
    for (auto& b : block) b = static_cast<uint8_t>(rng.uniform(256));
    cluster.write_block(block);
  }
  auto stripes = cluster.sealed_stripes();
  stripes.resize(6);

  const int64_t cross_before = cluster.transport().cross_rack_bytes();
  cfs::RaidNode raid(cluster, 4);
  const cfs::EncodeReport report = raid.encode_stripes(stripes);
  EXPECT_EQ(report.cross_rack_bytes,
            cluster.transport().cross_rack_bytes() - cross_before);
  EXPECT_EQ(report.cross_rack_downloads, 0);
  // EAR cross bytes during encoding are at most the parity uploads.
  EXPECT_LE(report.cross_rack_bytes,
            static_cast<int64_t>(stripes.size()) * 2 * cfg.block_size);
}

TEST(Accounting, MapReduceRemoteMapsMoveBytes) {
  // Force remote maps by giving the cluster a single slot overall region:
  // replicas concentrated via EAR, but slots scanned randomly.
  const Topology topo(6, 2);
  sim::Engine engine;
  sim::Network network(engine, topo, sim::NetConfig{});
  PlacementConfig pc;
  pc.code = CodeParams{6, 4};
  pc.replication = 2;
  auto policy = make_random_replication(topo, pc, 36);

  mapred::MapReduceConfig mr_cfg;
  mr_cfg.block_size = 32_MB;
  mr_cfg.map_slots_per_node = 1;
  mapred::MapReduceCluster mr(engine, network, *policy, mr_cfg);

  mapred::JobSpec spec;
  spec.id = 0;
  spec.submit_time = 0;
  spec.input_size = 24 * 32_MB;  // more tasks than replica holders
  spec.shuffle_size = 0;
  spec.output_size = 0;
  mr.submit(spec);
  engine.run();
  ASSERT_EQ(mr.results().size(), 1u);
  const auto& r = mr.results()[0];
  EXPECT_EQ(r.map_tasks, 24);
  if (r.remote_maps + r.rack_local_maps > 0) {
    EXPECT_GT(network.cross_rack_bytes() + network.intra_rack_bytes(), 0);
  }
}

TEST(Accounting, WriteThroughputBoundedByArrivals) {
  // Completed write bytes during the encoding window cannot exceed what the
  // Poisson stream could have issued (arrival rate x window, with slack for
  // the in-flight backlog).  The window must be long enough for the arrival
  // count to settle near its mean: 20 stripes per process keep encoding
  // busy for about 20 s.
  sim::SimConfig cfg;
  cfg.racks = 8;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.block_size = 16_MB;
  cfg.write_rate = 2.0;
  cfg.background_rate = 0;
  cfg.encode_start = 10.0;
  cfg.encode_processes = 4;
  cfg.stripes_per_process = 20;
  cfg.seed = 37;
  const sim::SimResult r = sim::ClusterSim(cfg).run();
  const double window = r.encode_end - r.encode_begin;
  ASSERT_GT(window, 0);
  const double offered_mbps = cfg.write_rate * to_mb(cfg.block_size);
  EXPECT_LE(r.write_throughput_mbps, offered_mbps * 2.0)
      << "completed rate cannot wildly exceed the offered rate";
}

}  // namespace
}  // namespace ear
