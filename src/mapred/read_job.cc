#include "mapred/read_job.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "datapath/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ear::mapred {

TestbedReadJob::TestbedReadJob(cfs::MiniCfs& cfs, const ReadJobConfig& config)
    : cfs_(&cfs), config_(config), rng_(config.seed ^ 0x5eadULL) {}

NodeId TestbedReadJob::reader_for(BlockId block) {
  const auto it = assigned_.find(block);
  if (it != assigned_.end()) return it->second;
  NodeId reader = kInvalidNode;
  if (config_.locality == ReadLocality::kDataLocal) {
    for (const NodeId n : cfs_->block_locations(block)) {
      if (cfs_->node_alive(n)) {
        reader = n;
        break;
      }
    }
  }
  if (reader == kInvalidNode) {
    reader = static_cast<NodeId>(rng_.uniform(
        static_cast<uint64_t>(cfs_->topology().node_count())));
  }
  assigned_.emplace(block, reader);
  return reader;
}

ReadJobReport TestbedReadJob::run(const std::vector<BlockId>& blocks) {
  using Clock = std::chrono::steady_clock;
  obs::Span span("mapred.read_job", "mapred");
  span.arg("blocks", static_cast<int64_t>(blocks.size()));
  static obs::Counter* ctr_reads =
      &obs::Registry::instance().counter("mapred.read_job.blocks");

  ReadJobReport report;
  std::mutex mu;  // guards the report across map tasks
  const auto job_start = Clock::now();
  // Map tasks inherit the submitting job's (class, tenant) flow — a
  // tenant-tagged MapReduce job stays that tenant's traffic.
  {
    datapath::TaskGroup maps(datapath::WorkerPool::shared(),
                             config_.map_slots);
    for (const BlockId block : blocks) {
      // Assignment happens on the caller thread (rng_/assigned_ are not
      // shared with the tasks); only the read itself runs on the pool.
      const NodeId reader = reader_for(block);
      bool local = false;
      for (const NodeId n : cfs_->block_locations(block)) {
        if (n == reader && cfs_->node_alive(n)) {
          local = true;
          break;
        }
      }
      maps.submit([this, block, reader, local, &mu, &report] {
        const auto t0 = Clock::now();
        int64_t got = 0;
        bool ok = true;
        try {
          got = static_cast<int64_t>(cfs_->read_block(block, reader).size());
        } catch (const std::runtime_error&) {
          ok = false;  // unrecoverable under the current failure set
        }
        const double took =
            std::chrono::duration<double>(Clock::now() - t0).count();
        std::lock_guard<std::mutex> lock(mu);
        if (!ok) {
          ++report.failed;
          return;
        }
        ++report.blocks_read;
        report.bytes_read += got;
        (local ? report.data_local_reads : report.remote_reads) += 1;
        report.latencies_s.push_back(took);
      });
    }
    maps.wait();
  }
  report.duration_s =
      std::chrono::duration<double>(Clock::now() - job_start).count();
  if (report.duration_s > 0) {
    report.throughput_mbps =
        static_cast<double>(report.bytes_read) / 1e6 / report.duration_s;
  }
  std::sort(report.latencies_s.begin(), report.latencies_s.end());
  ctr_reads->add(report.blocks_read);
  return report;
}

}  // namespace ear::mapred
