// RaidNode — coordinates the asynchronous encoding operation (paper §IV-A).
//
// Mirrors HDFS-RAID's map-only MapReduce encoding job.  The job first draws
// every stripe's plan (MiniCfs::plan_encoding) in stripe order, against the
// live cluster; then one map task per planned stripe runs on the shared
// data-path pool (datapath::WorkerPool), at most `map_slots` concurrently,
// each encoding its plan through MiniCfs::encode_stripe, which refuses a
// plan whose nodes went down since.  Under EAR every plan's encoder node
// is a live node of the stripe's core rack (the paper's preferred-node +
// encoding-job-flag JobTracker modifications, §IV-B); the ablation hook
// `scatter_encoders` disables that and assigns uniformly random encoder
// nodes, quantifying what those modifications buy.
#pragma once

#include <vector>

#include "cfs/minicfs.h"
#include "common/stats.h"

namespace ear::cfs {

struct EncodeReport {
  double duration_s = 0;
  double throughput_mbps = 0;  // data-block bytes encoded per second
  // Per-stripe completion times, seconds since the job started (sorted).
  std::vector<double> completion_times;
  int64_t cross_rack_bytes = 0;    // transport delta during the job
  int64_t cross_rack_downloads = 0;  // data blocks fetched across racks
  // Stripes that have no plan (a data block has not committed, or no live
  // layout exists) or whose encode threw (a planned node went down, or a
  // failure killed every replica of a data block mid-job).  Neither mutates
  // metadata, so these remain sealed and can be retried once redundancy is
  // restored.
  std::vector<StripeId> failed;
};

class RaidNode {
 public:
  RaidNode(MiniCfs& cfs, int map_slots);

  // Encodes all given stripes; blocks until the job finishes.
  EncodeReport encode_stripes(const std::vector<StripeId>& stripes,
                              bool scatter_encoders = false);

 private:
  MiniCfs* cfs_;
  int map_slots_;
};

}  // namespace ear::cfs
