#include "mapred/encoding_job.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "sim/network.h"

namespace ear::mapred {
namespace {

struct World {
  Topology topo{10, 4};
  sim::Engine engine;
  sim::Network network;
  std::unique_ptr<PlacementPolicy> policy;
  std::vector<StripeId> stripes;

  explicit World(bool use_ear, int stripe_count = 10, uint64_t seed = 5)
      : network(engine, topo, sim::NetConfig{}) {
    PlacementConfig pc;
    pc.code = CodeParams{8, 6};
    pc.replication = 3;
    policy = use_ear ? make_encoding_aware_replication(topo, pc, seed)
                     : make_random_replication(topo, pc, seed);
    BlockId next = 0;
    while (static_cast<int>(policy->sealed_stripes().size()) < stripe_count) {
      policy->place_block(next++, std::nullopt);
    }
    stripes = policy->sealed_stripes();
    stripes.resize(static_cast<size_t>(stripe_count));
  }
};

EncodingJobConfig job_config(EncodingLocality locality) {
  EncodingJobConfig cfg;
  cfg.map_slots_per_node = 2;
  cfg.block_size = 16_MB;
  cfg.locality = locality;
  return cfg;
}

TEST(EncodingJob, StrictKeepsEveryTaskInTheCoreRack) {
  World w(true);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kStrict));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_EQ(r.stripes, 10);
  EXPECT_EQ(r.tasks_in_core_rack, 10);
  EXPECT_EQ(r.tasks_elsewhere, 0);
  EXPECT_EQ(r.cross_rack_downloads, 0);
  EXPECT_GT(r.duration, 0.0);
}

TEST(EncodingJob, NoLocalityCausesCrossRackDownloadsEvenForEar) {
  // §IV-B motivation: without the JobTracker changes, EAR placements alone
  // do not prevent cross-rack downloads.
  World w(true, 10, 7);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kNone));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_GT(r.tasks_elsewhere, 0);
  EXPECT_GT(r.cross_rack_downloads, 0);
}

TEST(EncodingJob, PreferredModeMostlyHitsTheCoreRack) {
  World w(true, 10, 9);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kPreferred));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  // With 2 slots x 4 nodes per rack and 10 stripes, the preferred node (or
  // its rack) is almost always free.
  EXPECT_GE(r.tasks_in_core_rack, 8);
}

TEST(EncodingJob, StrictQueuesWhenCoreRackIsSaturated) {
  // Many stripes, tiny slot count: strict tasks must wait for core-rack
  // slots but all must eventually run there.
  World w(true, 20, 11);
  auto cfg = job_config(EncodingLocality::kStrict);
  cfg.map_slots_per_node = 1;
  EncodingJob job(w.engine, w.network, *w.policy, cfg);
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_EQ(r.tasks_in_core_rack, 20);
  EXPECT_EQ(r.cross_rack_downloads, 0);
}

TEST(EncodingJob, WorksForRandomReplicationToo) {
  World w(false, 10, 13);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kPreferred));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_EQ(r.stripes, 10);
  EXPECT_GT(r.duration, 0.0);
  // RR placements force cross-rack downloads no matter the scheduling.
  EXPECT_GT(r.cross_rack_downloads, 0);
}

TEST(EncodingJob, StrictIsNoSlowerThanNoneForEar) {
  double durations[2];
  for (const auto mode :
       {EncodingLocality::kStrict, EncodingLocality::kNone}) {
    World w(true, 16, 15);
    EncodingJob job(w.engine, w.network, *w.policy, job_config(mode));
    job.submit(w.stripes);
    w.engine.run();
    durations[mode == EncodingLocality::kStrict ? 0 : 1] =
        job.report().duration;
  }
  EXPECT_LT(durations[0], durations[1]);
}

// Job outputs recorded once every link ran on the FIFO reservation timeline
// in reservation_chunk(size) slots (sim/network.h).  One slot per node, so
// tasks queue and a shifted completion would reorder dispatches.  Counts compare
// exactly, durations to a relative 1e-9.
TEST(EncodingJob, OutputsMatchThePinnedRuns) {
  struct Pinned {
    EncodingLocality locality;
    bool use_ear;
    double duration;
    int64_t cross_rack_downloads;
    int64_t cross_rack_bytes;
  };
  static const Pinned kPinned[] = {
      {EncodingLocality::kStrict, true, 1.9713228799999942, 0, 805306368},
      {EncodingLocality::kStrict, false, 4.4291850240000255, 112, 2634022912},
      {EncodingLocality::kPreferred, true, 1.9713228799999942, 0, 805306368},
      {EncodingLocality::kPreferred, false, 3.4896609280000273, 112,
       2634022912},
      {EncodingLocality::kNone, true, 3.7245419520000325, 111, 2650800128},
      {EncodingLocality::kNone, false, 3.7413191680000328, 113, 2583691264},
  };
  for (const auto locality : {EncodingLocality::kStrict,
                              EncodingLocality::kPreferred,
                              EncodingLocality::kNone}) {
    for (const bool use_ear : {true, false}) {
      World w(use_ear, 24, 17);
      auto cfg = job_config(locality);
      cfg.map_slots_per_node = 1;
      EncodingJob job(w.engine, w.network, *w.policy, cfg);
      job.submit(w.stripes);
      w.engine.run();
      const EncodingJobReport& r = job.report();
      char actual[256];
      std::snprintf(actual, sizeof actual, "{%d, %s, %.17g, %lld, %lld},",
                    static_cast<int>(locality), use_ear ? "true" : "false",
                    r.duration, static_cast<long long>(r.cross_rack_downloads),
                    static_cast<long long>(w.network.cross_rack_bytes()));
      const Pinned* pin = nullptr;
      for (const Pinned& p : kPinned) {
        if (p.locality == locality && p.use_ear == use_ear) pin = &p;
      }
      if (pin == nullptr) {
        ADD_FAILURE() << "no pinned row; actual " << actual;
        continue;
      }
      SCOPED_TRACE(actual);
      EXPECT_NEAR(r.duration, pin->duration, 1e-9 * pin->duration);
      EXPECT_EQ(r.cross_rack_downloads, pin->cross_rack_downloads);
      EXPECT_EQ(w.network.cross_rack_bytes(), pin->cross_rack_bytes);
    }
  }
}

}  // namespace
}  // namespace ear::mapred
