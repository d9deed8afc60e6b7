#include "cfs/raidnode.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>

#include "common/rng.h"
#include "datapath/worker_pool.h"
#include "obs/trace.h"
#include "placement/replica_layout.h"

namespace ear::cfs {

RaidNode::RaidNode(MiniCfs& cfs, int map_slots)
    : cfs_(&cfs), map_slots_(map_slots) {}

EncodeReport RaidNode::encode_stripes(const std::vector<StripeId>& stripes,
                                      bool scatter_encoders) {
  using Clock = std::chrono::steady_clock;
  EncodeReport report;
  obs::Span job_span("raid.encode_job", "raid");
  job_span.arg("stripes", static_cast<int64_t>(stripes.size()));
  job_span.arg("map_slots", map_slots_);
  const auto job_start = Clock::now();
  const int64_t cross_before = cfs_->transport().cross_rack_bytes();
  const int64_t downloads_before = cfs_->encode_cross_rack_downloads();

  // Pre-draw one override encoder per stripe before any worker starts:
  // the scatter ablation stays deterministic for a given stripe list, and
  // workers never contend on an RNG mutex mid-job.
  std::vector<std::optional<NodeId>> overrides(stripes.size());
  if (scatter_encoders) {
    Rng scatter_rng(0x5ca77e7ULL);
    for (auto& o : overrides) {
      o = random_node(cfs_->topology(), scatter_rng);
    }
  }
  // Every stripe's plan is drawn here too, in stripe order, so the job's
  // layouts depend on the live cluster at its start, not on the order its
  // map tasks happen to start in.  A stripe with no plan (an uncommitted
  // write, no live layout) fails now and is retried by the caller.
  std::vector<std::optional<EncodePlan>> plans(stripes.size());
  for (size_t i = 0; i < stripes.size(); ++i) {
    try {
      plans[i] = cfs_->plan_encoding(stripes[i]);
    } catch (const std::exception&) {
      report.failed.push_back(stripes[i]);
      continue;
    }
    if (overrides[i]) plans[i]->encoder = *overrides[i];
  }

  // One map task per stripe on the shared data-path pool, at most
  // `map_slots` occupying slots at once (HDFS-RAID's map-slot limit).  The
  // tasks inherit the submitting job's (class, tenant) flow — a conversion
  // job tagged to a tenant keeps its tenant across every encode it fans out.
  std::mutex report_mu;
  {
    datapath::TaskGroup tasks(datapath::WorkerPool::shared(), map_slots_);
    for (size_t i = 0; i < stripes.size(); ++i) {
      if (!plans[i]) continue;
      tasks.submit([&, i] {
        try {
          obs::Span task_span("raid.map_task", "raid");
          task_span.arg("stripe", stripes[i]);
          cfs_->encode_stripe(*plans[i]);
        } catch (const std::exception&) {
          // A failure mid-job (dead replicas, a planned node gone down)
          // aborts this stripe only; the caller retries it after repair.
          std::lock_guard<std::mutex> lock(report_mu);
          report.failed.push_back(stripes[i]);
          return;
        }
        const double t =
            std::chrono::duration<double>(Clock::now() - job_start).count();
        std::lock_guard<std::mutex> lock(report_mu);
        report.completion_times.push_back(t);
      });
    }
    tasks.wait();
  }

  std::sort(report.completion_times.begin(), report.completion_times.end());
  std::sort(report.failed.begin(), report.failed.end());
  report.duration_s =
      std::chrono::duration<double>(Clock::now() - job_start).count();
  const double encoded_mb = to_mb(cfs_->config().block_size) *
                            cfs_->config().placement.code.k *
                            static_cast<double>(stripes.size());
  if (report.duration_s > 0) {
    report.throughput_mbps = encoded_mb / report.duration_s;
  }
  report.cross_rack_bytes =
      cfs_->transport().cross_rack_bytes() - cross_before;
  report.cross_rack_downloads =
      cfs_->encode_cross_rack_downloads() - downloads_before;
  return report;
}

}  // namespace ear::cfs
