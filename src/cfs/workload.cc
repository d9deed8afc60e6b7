#include "cfs/workload.h"

#include <chrono>

#include "placement/replica_layout.h"

namespace ear::cfs {

using Clock = std::chrono::steady_clock;

WriteWorkload::WriteWorkload(MiniCfs& cfs, double rate, uint64_t seed)
    : cfs_(&cfs), rate_(rate), rng_(seed) {
  payload_.resize(static_cast<size_t>(cfs.config().block_size));
  for (auto& b : payload_) b = static_cast<uint8_t>(rng_.uniform(256));
}

WriteWorkload::~WriteWorkload() {
  if (running_) stop();
}

void WriteWorkload::start() {
  epoch_ = Clock::now();
  if (rate_ <= 0) return;  // no arrivals: 1 / rate would never come
  running_ = true;
  generator_ = std::thread([this] { generator_loop(); });
}

void WriteWorkload::generator_loop() {
  while (running_) {
    const double wait = rng_.exponential(1.0 / rate_);
    // Sleep in small steps so stop() is responsive.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(wait));
    while (running_ && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!running_) return;

    const NodeId writer = random_node(cfs_->topology(), rng_);
    requests_.emplace_back([this, writer] {
      qos::InstallScope qscope(qctx_);
      const auto issue = Clock::now();
      const double issue_s =
          std::chrono::duration<double>(issue - epoch_).count();
      cfs_->write_block(payload_, writer);
      const double response =
          std::chrono::duration<double>(Clock::now() - issue).count();
      ++completed_;
      std::lock_guard<std::mutex> lock(mu_);
      samples_.emplace_back(issue_s, response);
    });
  }
}

void WriteWorkload::stop() {
  running_ = false;
  if (generator_.joinable()) generator_.join();
  for (auto& t : requests_) t.join();
  requests_.clear();
}

std::vector<std::pair<double, double>> WriteWorkload::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto copy = samples_;
  std::sort(copy.begin(), copy.end());
  return copy;
}

Summary WriteWorkload::response_summary() const {
  Summary s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [issue, response] : samples_) {
    (void)issue;
    s.add(response);
  }
  return s;
}

BackgroundTraffic::BackgroundTraffic(
    MiniCfs& cfs, std::vector<std::pair<NodeId, NodeId>> pairs,
    BytesPerSec bytes_per_second, Bytes burst)
    : cfs_(&cfs), pairs_(std::move(pairs)), rate_(bytes_per_second),
      burst_(burst) {}

BackgroundTraffic::~BackgroundTraffic() {
  if (running_) stop();
}

void BackgroundTraffic::start() {
  if (rate_ <= 0) return;  // nothing to send: burst / rate has no interval
  running_ = true;
  for (const auto& [src, dst] : pairs_) {
    streams_.emplace_back([this, src = src, dst = dst] {
      qos::InstallScope qscope(qctx_);
      const auto burst_interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(static_cast<double>(burst_) / rate_));
      auto next = Clock::now();
      while (running_) {
        // UDP-style: consume link capacity without backing off under
        // congestion (the paper's Iperf injection).
        cfs_->transport().inject(src, dst, burst_);
        next += burst_interval;
        std::this_thread::sleep_until(next);
      }
    });
  }
}

void BackgroundTraffic::stop() {
  running_ = false;
  for (auto& t : streams_) t.join();
  streams_.clear();
}

}  // namespace ear::cfs
