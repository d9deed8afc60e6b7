// End-to-end checks that the instrumented components actually emit the
// spans, counter series and metrics the observability subsystem promises —
// on both time bases: real threads (MiniCfs / RaidNode / ThrottledTransport)
// and virtual sim time (Network flows, ClusterSim encode phases, MapReduce).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/rng.h"
#include "mapred/mapreduce.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/network.h"

namespace ear {
namespace {

void enable_all(Seconds link_sample_period = 0.005) {
  obs::Config cfg;
  cfg.metrics = true;
  cfg.trace = true;
  cfg.link_sample_period = link_sample_period;
  obs::init(cfg);
  obs::trace_reset();
  obs::Registry::instance().reset_values();
}

// A 6-rack single-DataNode testbed with fast emulated links, pre-loaded with
// `stripes` sealed stripes (the testbed_util recipe, shrunk for tests).
struct SmallTestbed {
  std::unique_ptr<cfs::MiniCfs> cfs;
  std::vector<StripeId> stripes;
};

SmallTestbed make_small_testbed(int stripes) {
  cfs::CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 1;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 64_KB;
  cfg.seed = 11;

  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));

  Rng rng(99);
  std::vector<uint8_t> payload(static_cast<size_t>(cfg.block_size));
  for (auto& b : payload) b = static_cast<uint8_t>(rng.uniform(256));
  NodeId writer = 0;
  while (static_cast<int>(cfs->sealed_stripes().size()) < stripes) {
    cfs->write_block(payload, writer);
    writer = (writer + 1) % topo.node_count();
  }
  auto sealed = cfs->sealed_stripes();
  sealed.resize(static_cast<size_t>(stripes));

  cfs::ThrottleConfig throttle;
  throttle.node_bw = 400e6;
  throttle.rack_uplink_bw = 400e6;
  throttle.disk_bw = 500e6;
  throttle.chunk_size = 16_KB;
  cfs->set_transport(
      std::make_unique<cfs::ThrottledTransport>(topo, throttle));
  return SmallTestbed{std::move(cfs), std::move(sealed)};
}

TEST(ObsIntegration, TestbedEncodeEmitsExpectedSpans) {
  enable_all();
  {
    SmallTestbed tb = make_small_testbed(/*stripes=*/3);
    cfs::RaidNode raid(*tb.cfs, /*map_slots=*/2);
    raid.encode_stripes(tb.stripes);
    for (const StripeId s : tb.stripes) {
      EXPECT_TRUE(tb.cfs->is_encoded(s));
    }
  }  // destroying the transport stops the link sampler (final sample)

  for (const char* name :
       {"raid.encode_job", "raid.map_task", "cfs.encode_stripe",
        "datapath.fetch", "datapath.compute", "datapath.upload",
        "cfs.write_block"}) {
    EXPECT_TRUE(obs::trace_has_event(name)) << name;
  }
  // The link sampler emitted per-link counter series (at the latest, the
  // final synchronous sample on sampler shutdown).
  bool saw_link_counter = false;
  for (const obs::TraceEvent& ev : obs::trace_snapshot()) {
    if (ev.ph == 'C' && std::string(ev.name).rfind("link/", 0) == 0) {
      saw_link_counter = true;
      break;
    }
  }
  EXPECT_TRUE(saw_link_counter);

  EXPECT_EQ(obs::Registry::instance().counter("cfs.stripes_encoded").value(),
            3);
  EXPECT_GT(obs::Registry::instance().counter("testbed.net.transfers").value(),
            0);
  EXPECT_EQ(
      obs::Registry::instance()
          .histogram("cfs.encode_stripe_seconds", {})
          .count(),
      3);
  EXPECT_EQ(obs::trace_dropped_events(), 0);

  obs::trace_reset();
  obs::shutdown();
}

TEST(ObsIntegration, DegradedReadAndRepairEmitSpans) {
  enable_all(/*link_sample_period=*/0);  // no sampler: exercises that path
  {
    SmallTestbed tb = make_small_testbed(/*stripes=*/1);
    cfs::RaidNode raid(*tb.cfs, 1);
    raid.encode_stripes(tb.stripes);

    const cfs::StripeMeta meta = tb.cfs->stripe_meta(tb.stripes[0]);
    const BlockId victim = meta.data_blocks[0];
    const NodeId holder = tb.cfs->block_locations(victim)[0];
    tb.cfs->kill_node(holder);

    const NodeId reader = (holder + 1) % tb.cfs->topology().node_count();
    EXPECT_EQ(tb.cfs->read_block(victim, reader).size(),
              static_cast<size_t>(tb.cfs->config().block_size));
    tb.cfs->repair_block(victim, reader);
  }

  EXPECT_TRUE(obs::trace_has_event("cfs.degraded_read"));
  EXPECT_TRUE(obs::trace_has_event("cfs.repair_block"));
  // >= 1: repair_block reconstructs through the same degraded-read path.
  EXPECT_GE(obs::Registry::instance().counter("cfs.degraded_reads").value(),
            1);
  EXPECT_EQ(obs::Registry::instance().counter("cfs.blocks_repaired").value(),
            1);

  obs::trace_reset();
  obs::shutdown();
}

TEST(ObsIntegration, SimNetworkEmitsFlowSpansFifo) {
  enable_all();
  const Topology topo(2, 2);
  sim::Engine engine;
  sim::NetConfig net;
  net.disk_bw = 100e6;
  sim::Network network(engine, topo, net);
  bool done = false;
  network.start_transfer(0, 2, 1_MB, [&done] { done = true; });  // cross
  network.start_transfer(0, 1, 1_MB, [] {});                     // intra
  network.start_disk_read(3, 1_MB, [] {});
  engine.run();
  EXPECT_TRUE(done);

  EXPECT_TRUE(obs::trace_has_event("sim.flow.cross"));
  EXPECT_TRUE(obs::trace_has_event("sim.flow.intra"));
  EXPECT_TRUE(obs::trace_has_event("sim.disk_read"));
  EXPECT_GT(
      obs::Registry::instance().counter("sim.events_executed").value(), 0);

  // Transfer spans live on pid kSimPid with virtual-time stamps, and the
  // in-flight counter climbs to all three and drains back to zero.
  bool saw_sim_span = false;
  int64_t peak = -1, last = -1;
  for (const obs::TraceEvent& ev : obs::trace_snapshot()) {
    if (ev.ph == 'X' && std::string(ev.name) == "sim.flow.cross") {
      saw_sim_span = true;
      EXPECT_EQ(ev.pid, obs::kSimPid);
      EXPECT_GT(ev.dur_us, 0);
    }
    if (ev.ph == 'C' && std::string(ev.name) == "sim.active_flows") {
      ASSERT_EQ(ev.arg_count, 1);
      last = ev.arg_values[0];
      peak = std::max(peak, last);
    }
  }
  EXPECT_TRUE(saw_sim_span);
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(last, 0);

  obs::trace_reset();
  obs::shutdown();
}

TEST(ObsIntegration, ClusterSimEmitsEncodePhaseSpans) {
  enable_all();
  sim::SimConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 3;
  cfg.placement.code = CodeParams{6, 4};
  cfg.block_size = 4_MB;
  cfg.encode_processes = 2;
  cfg.stripes_per_process = 3;
  cfg.encode_start = 5.0;
  cfg.seed = 9;
  const sim::SimResult result = sim::ClusterSim(cfg).run();
  EXPECT_EQ(result.stripes_encoded, 6);

  for (const char* name :
       {"sim.encode.download", "sim.encode.compute", "sim.encode.upload"}) {
    EXPECT_TRUE(obs::trace_has_event(name)) << name;
  }
  // Encode-process tracks were named.
  bool named = false;
  for (const auto& entry : obs::sim_track_names()) {
    if (entry.second == "encode-proc-0") named = true;
  }
  EXPECT_TRUE(named);

  obs::trace_reset();
  obs::shutdown();
}

TEST(ObsIntegration, MapReduceEmitsMapAndJobSpans) {
  enable_all();
  const Topology topo(4, 1);
  sim::Engine engine;
  sim::NetConfig net;
  sim::Network network(engine, topo, net);
  PlacementConfig pc;
  pc.code = CodeParams{6, 4};
  pc.replication = 2;
  auto policy = make_random_replication(topo, pc, 5);
  mapred::MapReduceConfig mr_cfg;
  mr_cfg.block_size = 64_KB;
  mapred::MapReduceCluster mr(engine, network, *policy, mr_cfg);

  mapred::JobSpec job;
  job.id = 1;
  job.submit_time = 0.0;
  job.input_size = 3 * mr_cfg.block_size;
  job.shuffle_size = mr_cfg.block_size;
  job.output_size = mr_cfg.block_size;
  mr.submit(job);
  engine.run();

  ASSERT_EQ(mr.results().size(), 1u);
  EXPECT_TRUE(obs::trace_has_event("mr.map"));
  EXPECT_TRUE(obs::trace_has_event("mr.job"));

  obs::trace_reset();
  obs::shutdown();
}

TEST(ObsIntegration, DisabledObsRecordsNothing) {
  obs::shutdown();
  obs::trace_reset();
  obs::Registry::instance().reset_values();

  SmallTestbed tb = make_small_testbed(/*stripes=*/1);
  cfs::RaidNode raid(*tb.cfs, 1);
  raid.encode_stripes(tb.stripes);

  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::Registry::instance().counter("cfs.stripes_encoded").value(),
            0);
}

}  // namespace
}  // namespace ear
