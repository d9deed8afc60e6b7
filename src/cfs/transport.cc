#include "cfs/transport.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <thread>

#include "obs/trace.h"

namespace ear::cfs {

namespace {

// FIFO is the fair scheduler with nothing to arbitrate: an unbounded grant
// horizon grants every request on arrival, and without class budgets none
// is ever deferred.  The repair budget then stays the RepairManager's.
qos::QosConfig link_discipline(const qos::QosConfig& qos) {
  if (qos.enable) return qos;
  qos::QosConfig fifo = qos;
  fifo.grant_horizon = std::numeric_limits<Seconds>::infinity();
  std::fill(std::begin(fifo.class_rate), std::end(fifo.class_rate), 0.0);
  return fifo;
}

}  // namespace

ThrottledTransport::ThrottledTransport(const Topology& topo,
                                       const ThrottleConfig& config)
    : topo_(topo),
      config_(config),
      links_(link_seconds_per_byte(), link_discipline(config.qos)) {
  auto& reg = obs::Registry::instance();
  ctr_cross_ = &reg.counter("testbed.net.cross_rack_bytes");
  ctr_intra_ = &reg.counter("testbed.net.intra_rack_bytes");
  ctr_transfers_ = &reg.counter("testbed.net.transfers");
  if (obs::trace_enabled() && obs::config().link_sample_period > 0) {
    start_sampler(obs::config().link_sample_period);
  }
}

ThrottledTransport::~ThrottledTransport() { stop_sampler(); }

std::vector<double> ThrottledTransport::link_seconds_per_byte() const {
  std::vector<double> spb;
  spb.reserve(static_cast<size_t>(link_count()));
  for (int i = 0; i < link_count(); ++i) {
    double bw;
    if (i >= disk(0)) {
      bw = config_.disk_bw > 0 ? config_.disk_bw : 1e18;  // 0 = free
    } else if (i < rack_up(0)) {
      bw = config_.node_bw;
    } else if (i < rack_down(0)) {
      bw = config_.rack_uplink_bw;
    } else {
      bw = config_.rack_downlink_bw > 0 ? config_.rack_downlink_bw
                                        : config_.rack_uplink_bw;
    }
    spb.push_back(1.0 / bw);
  }
  return spb;
}

void ThrottledTransport::local_read(NodeId node, Bytes size) {
  if (config_.disk_bw <= 0 || size == 0) return;
  obs::Span span("net.disk_read", "net");
  span.arg("node", node);
  span.arg("bytes", size);
  Bytes remaining = size;
  while (remaining > 0) {
    const Bytes chunk = std::min(remaining, config_.chunk_size);
    remaining -= chunk;
    std::this_thread::sleep_until(reserve(disk(node), chunk));
  }
}

ThrottledTransport::Clock::time_point ThrottledTransport::reserve(
    int idx, Bytes bytes, bool charge) {
  // The slot goes to the calling thread's ambient (class, tenant) flow: in
  // arrival order under FIFO, in weighted virtual-finish order under QoS.
  // Either way the reservation is for the same bytes on the same link —
  // only its start time differs.
  return links_.request(idx, qos::current_context(), bytes, charge);
}

void ThrottledTransport::transfer(NodeId src, NodeId dst, Bytes size) {
  do_transfer(src, dst, size, /*wait=*/true);
}

void ThrottledTransport::inject(NodeId src, NodeId dst, Bytes size) {
  do_transfer(src, dst, size, /*wait=*/false);
}

void ThrottledTransport::do_transfer(NodeId src, NodeId dst, Bytes size,
                                     bool wait) {
  if (src == dst || size == 0) return;

  std::vector<int> path;
  path.push_back(node_up(src));
  const bool cross = !topo_.same_rack(src, dst);
  if (cross) {
    path.push_back(rack_up(topo_.rack_of(src)));
    path.push_back(rack_down(topo_.rack_of(dst)));
  }
  path.push_back(node_down(dst));

  obs::Span span(!wait              ? "net.inject"
                 : cross            ? "net.transfer.cross"
                                    : "net.transfer.intra",
                 "net");
  span.arg("src", src);
  span.arg("dst", dst);
  span.arg("bytes", size);

  Bytes remaining = size;
  while (remaining > 0) {
    const Bytes chunk = std::min(remaining, config_.chunk_size);
    remaining -= chunk;
    Clock::time_point done = Clock::now();
    // The chunk occupies each link of the path; links operate in parallel
    // (cut-through), so the chunk lands when the slowest reservation ends.
    // The QoS class budget is charged on the first hop only — a serial
    // path must not be metered once per link.
    bool charge = true;
    for (const int idx : path) {
      done = std::max(done, reserve(idx, chunk, charge));
      charge = false;
    }
    if (wait) std::this_thread::sleep_until(done);
  }

  if (cross) {
    cross_ += size;
    ctr_cross_->add(size);
  } else {
    intra_ += size;
    ctr_intra_->add(size);
  }
  ctr_transfers_->add();
}

// ------------------------------------------------------- link sampler (obs)

std::string ThrottledTransport::link_label(int idx) const {
  const int n = topo_.node_count();
  const int r = topo_.rack_count();
  if (idx < n) return "link/node" + std::to_string(idx) + ":up";
  if (idx < 2 * n) return "link/node" + std::to_string(idx - n) + ":down";
  if (idx < 2 * n + r) return "link/rack" + std::to_string(idx - 2 * n) + ":up";
  if (idx < 2 * n + 2 * r) {
    return "link/rack" + std::to_string(idx - 2 * n - r) + ":down";
  }
  return "link/disk" + std::to_string(idx - 2 * n - 2 * r);
}

void ThrottledTransport::start_sampler(Seconds period) {
  sampler_period_ = period;
  prev_busy_.assign(static_cast<size_t>(link_count()), 0.0);
  last_sample_ = Clock::now();
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(sampler_mu_);
    while (!sampler_stop_) {
      sampler_cv_.wait_for(
          lock, std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sampler_period_)));
      if (sampler_stop_) break;
      sample_links();
    }
  });
}

void ThrottledTransport::stop_sampler() {
  if (!sampler_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  sampler_.join();
  // One final synchronous snapshot so short runs (and tests) always see at
  // least one sample per link.
  sample_links();
}

void ThrottledTransport::sample_links() {
  const auto now = Clock::now();
  const double window =
      std::chrono::duration<double>(now - last_sample_).count();
  last_sample_ = now;

  int64_t total_queued = 0;
  double worst_share = 0;
  for (int i = 0; i < link_count(); ++i) {
    const auto s = links_.sample(i, now);
    double& prev_busy = prev_busy_[static_cast<size_t>(i)];
    const double share =
        window > 0 ? std::min(1.0, (s.busy_seconds - prev_busy) / window)
                   : 0.0;
    prev_busy = s.busy_seconds;
    total_queued += s.queued_bytes;
    worst_share = std::max(worst_share, share);
    obs::trace_counter(link_label(i).c_str(),
                       {{"queued_bytes", s.queued_bytes},
                        {"busy_pct", static_cast<int64_t>(share * 100.0)}});
  }
  auto& reg = obs::Registry::instance();
  reg.gauge("testbed.net.queued_bytes").set(static_cast<double>(total_queued));
  reg.gauge("testbed.net.max_link_share").set_max(worst_share);
}

}  // namespace ear::cfs
