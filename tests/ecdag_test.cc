// Property tests for the distributed encode/repair DAG subsystem
// (src/ecdag/): every DAG result must be byte-identical to the single-node
// RSCode / LRCCode / CRSCode computation it distributes, across (k, m) x
// rack-layout x failure-pattern sweeps, and the transport schedule must
// actually cut cross-rack hops when racks hold more blocks than outputs.
#include "ecdag/dag.h"
#include "ecdag/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <vector>

#include "cfs/minicfs.h"
#include "common/rng.h"
#include "datapath/pipeline.h"
#include "erasure/crs.h"
#include "erasure/lrc.h"
#include "erasure/rs.h"
#include "sim/cluster.h"

namespace ear::ecdag {
namespace {

std::vector<uint8_t> random_block(Rng& rng, size_t size) {
  std::vector<uint8_t> b(size);
  for (auto& x : b) x = static_cast<uint8_t>(rng.uniform(256));
  return b;
}

// Round-robin block placement: block i on node i % node_count.
std::vector<NodeId> rr_nodes(int count, const Topology& topo) {
  std::vector<NodeId> nodes(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) nodes[static_cast<size_t>(i)] = i % topo.node_count();
  return nodes;
}

// Executes `dag` with a transport that just counts bytes, returning stats.
ExecStats run_counting(const EcDag& dag, const Topology& topo,
                       const std::vector<erasure::BlockView>& in,
                       const std::vector<erasure::MutBlockView>& out,
                       Bytes unit, Bytes chunk = 0) {
  ExecOptions opts;
  opts.unit_size = unit;
  opts.preferred_chunk = chunk;
  std::atomic<int64_t> local_bytes{0};
  return execute(
      dag, topo, in, out, [](NodeId, NodeId, Bytes) {},
      [&local_bytes](NodeId, Bytes len) { local_bytes += len; }, opts);
}

TEST(EcDag, BuilderValidatesAcrossCodesAndLayouts) {
  const std::pair<int, int> layouts[] = {{4, 1}, {3, 4}, {2, 6}, {6, 2}};
  const std::pair<int, int> codes[] = {{4, 2}, {6, 3}, {8, 2}};
  for (const auto& [racks, npr] : layouts) {
    const Topology topo(racks, npr);
    for (const auto& [k, m] : codes) {
      for (const auto construction : {erasure::Construction::kCauchy,
                                      erasure::Construction::kVandermonde}) {
        const erasure::RSCode code(k + m, k, construction);
        std::vector<int> parity_rows;
        for (int j = 0; j < m; ++j) parity_rows.push_back(k + j);
        const erasure::Matrix coeffs =
            code.generator().select_rows(parity_rows);
        const auto inputs = rr_nodes(k, topo);
        std::vector<NodeId> outputs;
        for (int j = 0; j < m; ++j) {
          outputs.push_back((k + j) % topo.node_count());
        }
        for (const NodeId root : {NodeId{0}, topo.node_count() - 1}) {
          const EcDag dag =
              build_aggregation_dag(coeffs, inputs, outputs, root, topo);
          EXPECT_EQ(validate(dag, coeffs), "")
              << "racks=" << racks << " npr=" << npr << " k=" << k
              << " m=" << m << " root=" << root;
        }
      }
    }
  }
}

TEST(EcDag, EncodeMatchesSingleNodeRS) {
  Rng rng(7);
  const size_t block = 4096 + 13;  // ragged chunk tail
  const std::pair<int, int> layouts[] = {{4, 3}, {2, 6}, {6, 1}};
  for (const auto& [racks, npr] : layouts) {
    const Topology topo(racks, npr);
    for (const auto& [k, m] : {std::pair{8, 2}, std::pair{6, 3}}) {
      const erasure::RSCode code(k + m, k);
      std::vector<std::vector<uint8_t>> data;
      std::vector<erasure::BlockView> data_views;
      for (int i = 0; i < k; ++i) data.push_back(random_block(rng, block));
      for (const auto& d : data) data_views.emplace_back(d);

      std::vector<std::vector<uint8_t>> want(static_cast<size_t>(m)),
          got(static_cast<size_t>(m));
      std::vector<erasure::MutBlockView> want_views, got_views;
      for (int j = 0; j < m; ++j) {
        want[static_cast<size_t>(j)].resize(block);
        got[static_cast<size_t>(j)].resize(block);
        want_views.emplace_back(want[static_cast<size_t>(j)]);
        got_views.emplace_back(got[static_cast<size_t>(j)]);
      }
      code.encode(data_views, want_views);

      std::vector<int> parity_rows;
      for (int j = 0; j < m; ++j) parity_rows.push_back(k + j);
      const erasure::Matrix coeffs = code.generator().select_rows(parity_rows);
      const auto inputs = rr_nodes(k, topo);
      std::vector<NodeId> outputs(static_cast<size_t>(m),
                                  topo.node_count() - 1);
      const EcDag dag = build_aggregation_dag(coeffs, inputs, outputs,
                                              /*root=*/0, topo);
      ASSERT_EQ(validate(dag, coeffs), "");
      for (const Bytes chunk : {Bytes{0}, Bytes{1000}}) {
        for (auto& g : got) std::fill(g.begin(), g.end(), uint8_t{0xcc});
        run_counting(dag, topo, data_views, got_views,
                     static_cast<Bytes>(block), chunk);
        for (int j = 0; j < m; ++j) {
          EXPECT_EQ(got[static_cast<size_t>(j)], want[static_cast<size_t>(j)])
              << "racks=" << racks << " k=" << k << " m=" << m
              << " chunk=" << chunk << " parity " << j;
        }
      }
    }
  }
}

TEST(EcDag, DegradedReconstructionMatchesDecodeAcrossFailures) {
  Rng rng(11);
  const int k = 6, m = 3, n = k + m;
  const size_t block = 2048;
  const erasure::RSCode code(n, k);
  const Topology topo(3, 4);

  std::vector<std::vector<uint8_t>> blocks;
  std::vector<erasure::BlockView> data_views;
  for (int i = 0; i < k; ++i) blocks.push_back(random_block(rng, block));
  for (const auto& b : blocks) data_views.emplace_back(b);
  std::vector<std::vector<uint8_t>> parity(static_cast<size_t>(m),
                                           std::vector<uint8_t>(block));
  {
    std::vector<erasure::MutBlockView> pv;
    for (auto& p : parity) pv.emplace_back(p);
    code.encode(data_views, pv);
  }
  for (const auto& p : parity) blocks.push_back(p);  // stripe order 0..n-1

  // Failure patterns: each entry lists the lost positions; reconstruct the
  // first lost one from the k lowest-numbered survivors.
  const std::vector<std::vector<int>> failures = {
      {0}, {5}, {6}, {8}, {0, 7}, {2, 3, 8}};
  for (const auto& lost : failures) {
    std::vector<int> available_ids;
    std::vector<erasure::BlockView> available;
    std::vector<NodeId> sources;
    for (int pos = 0; pos < n && static_cast<int>(available_ids.size()) < k;
         ++pos) {
      if (std::find(lost.begin(), lost.end(), pos) != lost.end()) continue;
      available_ids.push_back(pos);
      available.emplace_back(blocks[static_cast<size_t>(pos)]);
      sources.push_back(pos % topo.node_count());
    }
    const int wanted = lost.front();
    erasure::Matrix coeffs;
    ASSERT_TRUE(code.plan_reconstruct(available_ids, {wanted}, &coeffs));

    std::vector<uint8_t> want(block), got(block, 0xee);
    std::vector<erasure::MutBlockView> want_views{erasure::MutBlockView{want}};
    erasure::RSCode::decode_chunk(coeffs, available, want_views, 0, block);
    EXPECT_EQ(want, blocks[static_cast<size_t>(wanted)]);

    const NodeId reader = topo.node_count() - 1;
    const EcDag dag = build_aggregation_dag(coeffs, sources, {reader},
                                            reader, topo);
    ASSERT_EQ(validate(dag, coeffs), "");
    std::vector<erasure::MutBlockView> got_views{erasure::MutBlockView{got}};
    run_counting(dag, topo, available, got_views, static_cast<Bytes>(block),
                 512);
    EXPECT_EQ(got, want) << "lost position " << wanted;
  }
}

TEST(EcDag, LrcEncodeAndLocalRepair) {
  Rng rng(13);
  const int k = 6, l = 2, g = 2;
  const size_t block = 1024;
  const erasure::LRCCode code(k, l, g);
  const Topology topo(4, 2);

  std::vector<std::vector<uint8_t>> data;
  std::vector<erasure::BlockView> data_views;
  for (int i = 0; i < k; ++i) data.push_back(random_block(rng, block));
  for (const auto& d : data) data_views.emplace_back(d);

  const int m = l + g;
  std::vector<std::vector<uint8_t>> want(static_cast<size_t>(m),
                                         std::vector<uint8_t>(block)),
      got(static_cast<size_t>(m), std::vector<uint8_t>(block, 0x11));
  {
    std::vector<erasure::MutBlockView> wv;
    for (auto& w : want) wv.emplace_back(w);
    code.encode(data_views, wv);
  }
  std::vector<int> parity_rows;
  for (int j = 0; j < m; ++j) parity_rows.push_back(k + j);
  const erasure::Matrix coeffs = code.generator().select_rows(parity_rows);
  const auto inputs = rr_nodes(k, topo);
  const EcDag dag = build_aggregation_dag(
      coeffs, inputs, std::vector<NodeId>(static_cast<size_t>(m), 7),
      /*root=*/7, topo);
  ASSERT_EQ(validate(dag, coeffs), "");
  {
    std::vector<erasure::MutBlockView> gv;
    for (auto& x : got) gv.emplace_back(x);
    run_counting(dag, topo, data_views, gv, static_cast<Bytes>(block), 300);
  }
  EXPECT_EQ(got, want);

  // Local repair of a data block: XOR of the group's survivors plus the
  // group's local parity (all LRC local coefficients are 1).
  const int lost = 1;
  const auto plan = code.repair_plan(lost);
  ASSERT_LT(plan.size(), static_cast<size_t>(k));  // local, not global
  std::vector<erasure::BlockView> srcs;
  std::vector<NodeId> src_nodes;
  for (const int id : plan) {
    srcs.emplace_back(id < k ? erasure::BlockView(data[static_cast<size_t>(id)])
                             : erasure::BlockView(
                                   want[static_cast<size_t>(id - k)]));
    src_nodes.push_back(id % topo.node_count());
  }
  erasure::Matrix ones(1, static_cast<int>(plan.size()));
  for (int i = 0; i < ones.cols(); ++i) ones.at(0, i) = 1;
  const EcDag repair_dag =
      build_aggregation_dag(ones, src_nodes, {0}, /*root=*/0, topo);
  ASSERT_EQ(validate(repair_dag, ones), "");
  std::vector<uint8_t> rebuilt(block, 0x22);
  std::vector<erasure::MutBlockView> rv{erasure::MutBlockView{rebuilt}};
  run_counting(repair_dag, topo, srcs, rv, static_cast<Bytes>(block));
  EXPECT_EQ(rebuilt, data[static_cast<size_t>(lost)]);
}

TEST(EcDag, CrsPacketGranularityLowering) {
  Rng rng(17);
  const int k = 4, m = 2, n = k + m;
  constexpr int kW = erasure::CRSCode::kW;
  const size_t block = static_cast<size_t>(kW) * 96;
  const size_t packet = block / kW;
  const erasure::CRSCode code(n, k);
  const Topology topo(3, 2);

  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < k; ++i) data.push_back(random_block(rng, block));
  std::vector<erasure::BlockView> data_views;
  for (const auto& d : data) data_views.emplace_back(d);
  std::vector<std::vector<uint8_t>> want(static_cast<size_t>(m),
                                         std::vector<uint8_t>(block)),
      got(static_cast<size_t>(m), std::vector<uint8_t>(block, 0x33));
  {
    std::vector<erasure::MutBlockView> wv;
    for (auto& w : want) wv.emplace_back(w);
    code.encode(data_views, wv);
  }

  // Packet-granularity lowering: input p = packet p%kW of block p/kW; the
  // {0,1} coefficient matrix is exactly the CRS XOR schedule.
  erasure::Matrix coeffs(m * kW, k * kW);
  for (int r = 0; r < m * kW; ++r) {
    for (const int src : code.schedule()[static_cast<size_t>(r)]) {
      coeffs.at(r, src) = 1;
    }
  }
  std::vector<erasure::BlockView> in_packets;
  std::vector<NodeId> in_nodes;
  for (int i = 0; i < k; ++i) {
    for (int w = 0; w < kW; ++w) {
      in_packets.push_back(
          data_views[static_cast<size_t>(i)].subspan(
              static_cast<size_t>(w) * packet, packet));
      in_nodes.push_back(i % topo.node_count());
    }
  }
  std::vector<erasure::MutBlockView> out_packets;
  std::vector<NodeId> out_nodes;
  for (int j = 0; j < m; ++j) {
    for (int w = 0; w < kW; ++w) {
      out_packets.push_back(erasure::MutBlockView(got[static_cast<size_t>(j)])
                                .subspan(static_cast<size_t>(w) * packet,
                                         packet));
      out_nodes.push_back((k + j) % topo.node_count());
    }
  }
  const EcDag dag = build_aggregation_dag(coeffs, in_nodes, out_nodes,
                                          /*root=*/0, topo);
  ASSERT_EQ(validate(dag, coeffs), "");
  run_counting(dag, topo, in_packets, out_packets,
               static_cast<Bytes>(packet), 64);
  EXPECT_EQ(got, want);
}

TEST(EcDag, AggregationCutsCrossHopsWhenRacksHoldMoreBlocksThanOutputs) {
  // 4 racks x 2 nodes, k = 8 round-robin => every rack holds 2 blocks.
  const Topology topo(4, 2);
  const int k = 8;
  erasure::Matrix coeffs(1, k);  // m = 1: XOR-style repair / single parity
  for (int i = 0; i < k; ++i) coeffs.at(0, i) = static_cast<uint8_t>(i + 1);
  const auto inputs = rr_nodes(k, topo);
  const EcDag dag =
      build_aggregation_dag(coeffs, inputs, {0}, /*root=*/0, topo);
  ASSERT_EQ(validate(dag, coeffs), "");
  const FlowPlan plan = plan_flows(dag, topo);
  // Legacy fan-in ships the 6 remote blocks across the core; the DAG ships
  // one partial per remote rack.  Streams: the 3 remote racks plus the
  // root's rack-mate feeding its raw block intra-rack.
  EXPECT_EQ(plan.cross_hops, 3);
  EXPECT_EQ(plan.streams.size(), 4u);
  EXPECT_TRUE(plan.scatter.empty());  // output lives on the root

  // No-win case: 1 block per rack — aggregation cannot beat raw shipping,
  // and the planner must not try (cross hops == remote blocks).
  const Topology wide(8, 1);
  const auto spread = rr_nodes(k, wide);
  const EcDag flat =
      build_aggregation_dag(coeffs, spread, {0}, /*root=*/0, wide);
  ASSERT_EQ(validate(flat, coeffs), "");
  EXPECT_EQ(plan_flows(flat, wide).cross_hops, 7);
}

TEST(EcDag, ForceAggregatePicksLowestContributingNode) {
  // One remote rack holding 2 blocks, m = 3 outputs: aggregation would ship
  // 3 partials instead of 2 raws, so the default planner refuses...
  const Topology topo(2, 4);
  const int k = 4, m = 3;
  erasure::Matrix coeffs(m, k);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < k; ++i) coeffs.at(j, i) = static_cast<uint8_t>(j + i + 1);
  }
  const std::vector<NodeId> inputs = {0, 1, 6, 5};  // nodes 5, 6 in rack 1
  const std::vector<NodeId> outputs = {0, 0, 0};    // all at the root
  const EcDag lazy =
      build_aggregation_dag(coeffs, inputs, outputs, /*root=*/0, topo);
  ASSERT_EQ(validate(lazy, coeffs), "");
  EXPECT_EQ(plan_flows(lazy, topo).cross_hops, 2);  // raw blocks from 5, 6

  // ...but force_aggregate overrides, and the aggregator must be the
  // lowest-numbered contributing node (5), its rack-mate feeding it.
  BuildOptions opts;
  opts.force_aggregate = true;
  const EcDag forced =
      build_aggregation_dag(coeffs, inputs, outputs, /*root=*/0, topo, opts);
  ASSERT_EQ(validate(forced, coeffs), "");
  const FlowPlan plan = plan_flows(forced, topo);
  EXPECT_EQ(plan.cross_hops, 3);  // one partial per output
  EXPECT_EQ(plan.intra_hops, 2);  // 6 -> 5, plus 1 -> 0 in the root's rack
  ASSERT_EQ(plan.streams.size(), 2u);
  const auto& rack1 = plan.streams.back();  // streams ordered by source rack
  EXPECT_EQ(rack1.front().src, 6);
  EXPECT_EQ(rack1.front().dst, 5);
  for (size_t h = 1; h < rack1.size(); ++h) {
    EXPECT_EQ(rack1[h].src, 5);
    EXPECT_EQ(rack1[h].dst, 0);
  }
}

TEST(EcDag, TransferFailureAbortsAllLanesAndRethrows) {
  Rng rng(19);
  const Topology topo(4, 2);
  const int k = 8, m = 1;
  erasure::Matrix coeffs(m, k);
  for (int i = 0; i < k; ++i) coeffs.at(0, i) = 1;
  const auto inputs = rr_nodes(k, topo);
  const EcDag dag =
      build_aggregation_dag(coeffs, inputs, {0}, /*root=*/0, topo);

  const size_t block = 64 * 1024;
  std::vector<std::vector<uint8_t>> data;
  std::vector<erasure::BlockView> views;
  for (int i = 0; i < k; ++i) data.push_back(random_block(rng, block));
  for (const auto& d : data) views.emplace_back(d);
  std::vector<uint8_t> out(block);
  std::vector<erasure::MutBlockView> out_views{erasure::MutBlockView{out}};

  // An aggregator's source dies mid-stripe: the transfer from node 2 starts
  // failing after the first chunk.  The executor must drain every lane and
  // rethrow instead of hanging on the ladder.
  std::atomic<int> calls_from_2{0};
  ExecOptions opts;
  opts.unit_size = static_cast<Bytes>(block);
  opts.preferred_chunk = 4096;
  EXPECT_THROW(
      execute(
          dag, topo, views, out_views,
          [&calls_from_2](NodeId src, NodeId, Bytes) {
            if (src == 2 && ++calls_from_2 > 1) {
              throw std::runtime_error("source died");
            }
          },
          nullptr, opts),
      std::runtime_error);
}

TEST(EcDag, FanoutUploadRunsAfterComputePerChunk) {
  std::vector<int> uploaded;
  std::atomic<int> computed{0};
  datapath::StagedPipeline::run_fanout(
      /*chunks=*/8, /*lanes=*/3, [](int, int) {},
      [&computed](int c) {
        ASSERT_EQ(computed.load(), c);
        ++computed;
      },
      [&uploaded, &computed](int c) {
        // upload(c) may only run once compute(c) has finished.
        EXPECT_GT(computed.load(), c);
        uploaded.push_back(c);
      });
  ASSERT_EQ(uploaded.size(), 8u);
  for (int c = 0; c < 8; ++c) EXPECT_EQ(uploaded[static_cast<size_t>(c)], c);
}

TEST(EcDag, ValidatorRejectsDefectiveDags) {
  const Topology topo(2, 2);
  erasure::Matrix coeffs(1, 2);
  coeffs.at(0, 0) = 3;
  coeffs.at(0, 1) = 5;
  const EcDag good =
      build_aggregation_dag(coeffs, {0, 2}, {0}, /*root=*/0, topo);
  ASSERT_EQ(validate(good, coeffs), "");

  // Wrong coefficient.
  EcDag wrong = good;
  for (auto& node : wrong.nodes) {
    if (node.op == DagOp::kMulAdd) {
      node.coeff = static_cast<uint8_t>(node.coeff ^ 1);
      break;
    }
  }
  EXPECT_NE(validate(wrong, coeffs), "");

  // Output delivered twice.
  EcDag twice = good;
  twice.nodes.push_back(twice.nodes[static_cast<size_t>(twice.outputs[0])]);
  EXPECT_NE(validate(twice, coeffs), "");

  // Fetch moved off the node that stores the input.
  EcDag displaced = good;
  for (auto& node : displaced.nodes) {
    if (node.op == DagOp::kFetch) {
      node.where = node.where + 1;
      break;
    }
  }
  EXPECT_NE(validate(displaced, coeffs), "");
}

// ---- End-to-end: MiniCfs with ecdag on must byte-match ecdag off ---------

cfs::CfsConfig pair_config(bool ecdag) {
  cfs::CfsConfig cfg;
  cfg.racks = 4;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{13, 12};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = false;  // scattered RR placement => racks hold several blocks
  cfg.block_size = 64_KB;
  cfg.seed = 29;
  cfg.ecdag_enable = ecdag;
  return cfg;
}

std::unique_ptr<cfs::MiniCfs> make_pair_cfs(const cfs::CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo, /*chunk=*/16_KB));
}

TEST(EcDagMiniCfs, EncodeRepairDegradedReadByteIdentical) {
  const auto cfg_off = pair_config(false);
  const auto cfg_on = pair_config(true);
  auto legacy = make_pair_cfs(cfg_off);
  auto dist = make_pair_cfs(cfg_on);

  Rng rng(31);
  NodeId writer = 0;
  while (legacy->sealed_stripes().size() < 2) {
    const auto payload = random_block(
        rng, static_cast<size_t>(cfg_off.block_size));
    const BlockId a = legacy->write_block(payload, writer);
    const BlockId b = dist->write_block(payload, writer);
    ASSERT_EQ(a, b) << "clusters must evolve in lockstep";
    writer = (writer + 1) % (cfg_off.racks * cfg_off.nodes_per_rack);
  }
  ASSERT_EQ(legacy->sealed_stripes(), dist->sealed_stripes());

  for (const StripeId stripe : legacy->sealed_stripes()) {
    legacy->encode_stripe(stripe);
    dist->encode_stripe(stripe);
  }
  const int64_t legacy_cross = legacy->transport().cross_rack_bytes();
  const int64_t dist_cross = dist->transport().cross_rack_bytes();
  EXPECT_LT(dist_cross, legacy_cross)
      << "rack aggregation must cut core-switch bytes on scattered layouts";

  // Parity bytes must be identical block for block.
  for (const StripeId stripe : legacy->sealed_stripes()) {
    const auto meta_l = legacy->stripe_meta(stripe);
    const auto meta_d = dist->stripe_meta(stripe);
    ASSERT_EQ(meta_l.parity_blocks, meta_d.parity_blocks);
    for (const BlockId p : meta_l.parity_blocks) {
      ASSERT_EQ(legacy->block_locations(p), dist->block_locations(p));
      const NodeId holder = legacy->block_locations(p)[0];
      EXPECT_EQ(legacy->read_block(p, holder), dist->read_block(p, holder))
          << "parity block " << p;
    }
  }

  // Degraded read + repair ignore the flag: both clusters rebuild through
  // the helper chain, from the parity each encoder wrote.
  const StripeId stripe = legacy->sealed_stripes()[0];
  const auto meta = legacy->stripe_meta(stripe);
  const BlockId victim = meta.data_blocks[0];
  const NodeId lost_node = legacy->block_locations(victim)[0];
  legacy->kill_node(lost_node);
  dist->kill_node(lost_node);
  NodeId reader = 0;
  while (!legacy->node_alive(reader)) ++reader;
  EXPECT_EQ(legacy->read_block(victim, reader),
            dist->read_block(victim, reader));

  NodeId target = reader + 1;
  while (!legacy->node_alive(target)) ++target;
  legacy->repair_block(victim, target);
  dist->repair_block(victim, target);
  EXPECT_EQ(legacy->read_block(victim, target),
            dist->read_block(victim, target));
}

TEST(EcDagSim, DistributedEncodeCutsSimulatedCrossBytes) {
  sim::SimConfig cfg;
  cfg.racks = 4;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{13, 12};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = false;
  cfg.block_size = 4_MB;
  cfg.write_rate = 0;       // encoding traffic only: the comparison is exact
  cfg.background_rate = 0;
  cfg.encode_start = 0.0;
  cfg.encode_processes = 2;
  cfg.stripes_per_process = 3;
  cfg.seed = 5;

  sim::ClusterSim legacy(cfg);
  const sim::SimResult off = legacy.run();
  cfg.ecdag_enable = true;
  sim::ClusterSim dist(cfg);
  const sim::SimResult on = dist.run();

  EXPECT_EQ(on.stripes_encoded, off.stripes_encoded);
  EXPECT_LT(on.cross_rack_bytes, off.cross_rack_bytes);
  EXPECT_GT(on.encode_throughput_mbps, 0.0);
}

}  // namespace
}  // namespace ear::ecdag
