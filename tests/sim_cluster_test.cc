#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace ear::sim {
namespace {

SimConfig small_config(bool use_ear, uint64_t seed = 7) {
  SimConfig cfg;
  cfg.racks = 8;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.placement.c = 1;
  cfg.use_ear = use_ear;
  cfg.block_size = 8_MB;
  cfg.write_rate = 0.5;
  cfg.background_rate = 0.5;
  cfg.background_mean_size = 8_MB;
  cfg.encode_start = 10.0;
  cfg.encode_processes = 4;
  cfg.stripes_per_process = 5;
  cfg.seed = seed;
  return cfg;
}

TEST(ClusterSim, RunsToCompletion) {
  ClusterSim sim(small_config(true));
  const SimResult result = sim.run();
  EXPECT_EQ(result.stripes_encoded, 20);
  EXPECT_GT(result.encode_end, result.encode_begin);
  EXPECT_GT(result.encode_throughput_mbps, 0.0);
  EXPECT_GT(result.writes_completed, 0);
  EXPECT_EQ(result.stripe_completions.size(), 20u);
  // Completion curve is monotone.
  for (size_t i = 1; i < result.stripe_completions.size(); ++i) {
    EXPECT_GE(result.stripe_completions[i].first,
              result.stripe_completions[i - 1].first);
    EXPECT_EQ(result.stripe_completions[i].second, static_cast<int>(i) + 1);
  }
}

TEST(ClusterSim, EarHasZeroCrossRackDownloads) {
  ClusterSim sim(small_config(true));
  const SimResult result = sim.run();
  EXPECT_EQ(result.encoding_cross_rack_downloads, 0);
}

TEST(ClusterSim, RrHasManyCrossRackDownloads) {
  ClusterSim sim(small_config(false));
  const SimResult result = sim.run();
  // Expectation ~ k(1 - 2/R) = 6 * 0.75 = 4.5 per stripe; with 20 stripes
  // anything below 40 would be suspicious.
  EXPECT_GT(result.encoding_cross_rack_downloads, 40);
}

TEST(ClusterSim, EarEncodesFasterThanRr) {
  const SimResult ear = ClusterSim(small_config(true)).run();
  const SimResult rr = ClusterSim(small_config(false)).run();
  EXPECT_GT(ear.encode_throughput_mbps, rr.encode_throughput_mbps);
}

TEST(ClusterSim, EarUsesLessCrossRackBandwidth) {
  const SimResult ear = ClusterSim(small_config(true)).run();
  const SimResult rr = ClusterSim(small_config(false)).run();
  EXPECT_LT(ear.cross_rack_bytes, rr.cross_rack_bytes);
}

TEST(ClusterSim, DeterministicForFixedSeed) {
  const SimResult a = ClusterSim(small_config(true, 99)).run();
  const SimResult b = ClusterSim(small_config(true, 99)).run();
  EXPECT_DOUBLE_EQ(a.encode_throughput_mbps, b.encode_throughput_mbps);
  EXPECT_DOUBLE_EQ(a.encode_end, b.encode_end);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
}

TEST(ClusterSim, DifferentSeedsDiffer) {
  const SimResult a = ClusterSim(small_config(true, 1)).run();
  const SimResult b = ClusterSim(small_config(true, 2)).run();
  EXPECT_NE(a.encode_end, b.encode_end);
}

TEST(ClusterSim, RelocationAblationChargesRrOnly) {
  auto rr_cfg = small_config(false);
  rr_cfg.simulate_relocation = true;
  const SimResult rr = ClusterSim(rr_cfg).run();
  EXPECT_GT(rr.relocations, 0) << "RR should need relocations in 8 racks";
  EXPECT_EQ(rr.relocation_bytes, rr.relocations * rr_cfg.block_size);

  auto ear_cfg = small_config(true);
  ear_cfg.simulate_relocation = true;
  const SimResult ear = ClusterSim(ear_cfg).run();
  EXPECT_EQ(ear.relocations, 0) << "EAR layouts comply by construction";
}

TEST(ClusterSim, WritesBeforeEncodingAreFasterThanDuring) {
  auto cfg = small_config(true);
  cfg.encode_start = 60.0;
  cfg.write_rate = 1.0;
  const SimResult result = ClusterSim(cfg).run();
  ASSERT_GT(result.write_response_before.count(), 0u);
  ASSERT_GT(result.write_response_during.count(), 0u);
  EXPECT_LT(result.write_response_before.mean(),
            result.write_response_during.mean());
}

TEST(ClusterSim, NoWriteTrafficStillEncodes) {
  auto cfg = small_config(true);
  cfg.write_rate = 0.0;
  cfg.background_rate = 0.0;
  const SimResult result = ClusterSim(cfg).run();
  EXPECT_EQ(result.stripes_encoded, 20);
  EXPECT_EQ(result.writes_completed, 0);
}

TEST(ClusterSim, PipelinedEncodeRunsToCompletion) {
  auto cfg = small_config(true);
  cfg.encode_pipeline_chunks = 4;
  cfg.encode_compute_seconds = 0.2;
  const SimResult result = ClusterSim(cfg).run();
  EXPECT_EQ(result.stripes_encoded, 20);
  EXPECT_GT(result.encode_end, result.encode_begin);
  EXPECT_GT(result.encode_throughput_mbps, 0.0);
}

TEST(ClusterSim, PipelinedEncodeNoSlowerThanSerial) {
  // With nonzero compute the staged overlap must hide (part of) the compute
  // and upload time behind the downloads; with compute = 0 it still overlaps
  // uploads with later downloads.  Quiesce the generators so the comparison
  // is deterministic.
  for (const double compute : {0.0, 0.5}) {
    auto serial_cfg = small_config(true);
    serial_cfg.write_rate = 0.0;
    serial_cfg.background_rate = 0.0;
    serial_cfg.encode_compute_seconds = compute;
    auto piped_cfg = serial_cfg;
    piped_cfg.encode_pipeline_chunks = 8;
    const SimResult serial = ClusterSim(serial_cfg).run();
    const SimResult piped = ClusterSim(piped_cfg).run();
    EXPECT_LE(piped.encode_end, serial.encode_end + 1e-9)
        << "compute=" << compute;
    if (compute > 0) {
      EXPECT_LT(piped.encode_end, serial.encode_end) << "compute=" << compute;
    }
  }
}

TEST(ClusterSim, PipelinedEncodeMovesIdenticalBytes) {
  // Pipelining changes when bytes move, never which bytes: same seed, same
  // placements, so the per-category byte totals must match the serial model.
  auto serial_cfg = small_config(true);
  serial_cfg.write_rate = 0.0;
  serial_cfg.background_rate = 0.0;
  serial_cfg.encode_compute_seconds = 0.1;
  auto piped_cfg = serial_cfg;
  piped_cfg.encode_pipeline_chunks = 5;
  const SimResult serial = ClusterSim(serial_cfg).run();
  const SimResult piped = ClusterSim(piped_cfg).run();
  EXPECT_EQ(piped.cross_rack_bytes, serial.cross_rack_bytes);
  EXPECT_EQ(piped.intra_rack_bytes, serial.intra_rack_bytes);
  EXPECT_EQ(piped.encoding_cross_rack_downloads,
            serial.encoding_cross_rack_downloads);
  EXPECT_EQ(piped.stripes_encoded, serial.stripes_encoded);
}

// Simulator outputs recorded once every link ran on the FIFO reservation
// timeline in reservation_chunk(size) slots and the stripes were pre-placed
// by round-robin writers.  Every variant keeps write and background traffic
// on, so a reordered event or a moved byte shows up here.  Byte counts
// compare exactly, times to a relative 1e-9.
struct PinnedRun {
  const char* variant;
  bool use_ear;
  int64_t cross_rack_bytes;
  int64_t intra_rack_bytes;
  int64_t cross_rack_downloads;
  int64_t relocations;
  int64_t repair_bytes;
  size_t completions;
  double encode_end;
  double last_completion;
};

SimConfig pinned_config(const std::string& variant, bool use_ear) {
  SimConfig cfg = small_config(use_ear, 21);
  cfg.stripes_per_process = 3;
  if (variant == "pipelined") {
    cfg.encode_pipeline_chunks = 4;
    cfg.encode_compute_seconds = 0.2;
  } else if (variant == "ecdag") {
    // One parity block, two data blocks per rack: racks aggregate.
    cfg.placement.code = CodeParams{7, 6};
    cfg.placement.c = 2;
    cfg.ecdag_enable = true;
  } else if (variant == "disk") {
    cfg.net.disk_bw = 1.3 * cfg.net.node_bw;
    cfg.encode_compute_seconds = 0.2;
  } else if (variant == "relocation") {
    cfg.simulate_relocation = true;
  } else if (variant == "drill") {
    cfg.repair_drill_blocks = 4;
  }
  return cfg;
}

bool close_to(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

TEST(ClusterSim, OutputsMatchThePinnedRuns) {
  // {variant, EAR, cross, intra, downloads, relocations, repair bytes,
  //  completions, encode_end, last completion}
  static const PinnedRun kPinned[] = {
      {"serial", true, 243831037, 490020155, 0, 0, 0, 12,
       11.342177280000101, 11.342177280000101},
      {"serial", false, 756491386, 82128540, 60, 0, 0, 12,
       12.968518656000214, 12.968518656000214},
      {"pipelined", true, 243831037, 512705968, 0, 0, 0, 12,
       11.301455480000536, 11.301455480000536},
      {"pipelined", false, 748102778, 73739932, 60, 0, 0, 12,
       12.509296000001166, 12.509296000001166},
      {"ecdag", true, 50893053, 594576817, 0, 0, 0, 12,
       11.140850688000086, 11.140850688000086},
      {"ecdag", false, 453546237, 285939285, 51, 0, 0, 12,
       11.551892480000117, 11.551892480000117},
      {"disk", true, 252219645, 498408763, 0, 0, 0, 12,
       11.942177280000099, 11.942177280000099},
      {"disk", false, 791330983, 101322605, 60, 0, 0, 12,
       13.464709632000213, 13.464709632000213},
      {"relocation", true, 243831037, 490020155, 0, 0, 0, 12,
       11.342177280000101, 11.342177280000101},
      {"relocation", false, 1050422727, 90517148, 60, 34, 0, 12,
       13.812622336000286, 13.812622336000286},
      {"drill", true, 411603197, 523574587, 0, 0, 201326592, 12,
       11.342177280000101, 11.342177280000101},
      {"drill", false, 941040762, 98905756, 60, 0, 201326592, 12,
       12.968518656000214, 12.968518656000214},
  };
  const char* const kVariants[] = {"serial",     "pipelined", "ecdag",
                                   "disk",       "relocation", "drill"};
  for (const char* variant : kVariants) {
    for (const bool use_ear : {true, false}) {
      const SimResult r = ClusterSim(pinned_config(variant, use_ear)).run();
      const double last = r.stripe_completions.empty()
                              ? 0.0
                              : r.stripe_completions.back().first;
      char actual[512];
      std::snprintf(actual, sizeof actual,
                    "{\"%s\", %s, %lld, %lld, %lld, %lld, %lld, %zu, %.17g, "
                    "%.17g},",
                    variant, use_ear ? "true" : "false",
                    static_cast<long long>(r.cross_rack_bytes),
                    static_cast<long long>(r.intra_rack_bytes),
                    static_cast<long long>(r.encoding_cross_rack_downloads),
                    static_cast<long long>(r.relocations),
                    static_cast<long long>(r.repair_bytes),
                    r.stripe_completions.size(), r.encode_end, last);
      const PinnedRun* pin = nullptr;
      for (const PinnedRun& p : kPinned) {
        if (p.variant == std::string(variant) && p.use_ear == use_ear) pin = &p;
      }
      if (pin == nullptr) {
        ADD_FAILURE() << "no pinned row; actual " << actual;
        continue;
      }
      SCOPED_TRACE(actual);
      EXPECT_EQ(r.cross_rack_bytes, pin->cross_rack_bytes);
      EXPECT_EQ(r.intra_rack_bytes, pin->intra_rack_bytes);
      EXPECT_EQ(r.encoding_cross_rack_downloads, pin->cross_rack_downloads);
      EXPECT_EQ(r.relocations, pin->relocations);
      EXPECT_EQ(r.repair_bytes, pin->repair_bytes);
      EXPECT_EQ(r.stripe_completions.size(), pin->completions);
      EXPECT_TRUE(close_to(r.encode_end, pin->encode_end));
      EXPECT_TRUE(close_to(last, pin->last_completion));
    }
  }
}

TEST(ClusterSim, RepairDrillRejectsAStripeThatCoversEveryNode) {
  // Six nodes: an encoded (6,4) stripe spans all six whenever its kept data
  // replicas sit on distinct nodes (always for EAR, usually for RR), and a
  // drill has nowhere to rebuild it, so it must refuse instead of spinning.
  // Four drill draws over six stripes hit such a stripe under both policies.
  for (const bool use_ear : {true, false}) {
    SimConfig cfg;
    cfg.racks = 3;
    cfg.nodes_per_rack = 2;
    cfg.placement.code = CodeParams{6, 4};
    cfg.placement.replication = 2;
    cfg.placement.c = 2;
    cfg.use_ear = use_ear;
    cfg.block_size = 1_MB;
    cfg.background_mean_size = 1_MB;
    cfg.encode_start = 1.0;
    cfg.encode_processes = 2;
    cfg.stripes_per_process = 3;
    cfg.repair_drill_blocks = 4;
    EXPECT_THROW(ClusterSim(cfg).run(), std::invalid_argument)
        << (use_ear ? "EAR" : "RR");
    cfg.repair_drill_blocks = 0;
    EXPECT_EQ(ClusterSim(cfg).run().stripes_encoded, 6);
  }
}

TEST(ClusterSim, MeanLayoutIterationsReportedForEar) {
  const SimResult ear = ClusterSim(small_config(true)).run();
  EXPECT_GE(ear.mean_layout_iterations, 1.0);
  const SimResult rr = ClusterSim(small_config(false)).run();
  EXPECT_EQ(rr.mean_layout_iterations, 0.0);
}

}  // namespace
}  // namespace ear::sim
