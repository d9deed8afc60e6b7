#include "cfs/transport.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <thread>

#include "common/wake_record.h"
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

std::atomic<uint64_t> g_next_transport_id{1};

}  // namespace

ThrottledTransport::ThrottledTransport(const Topology& topo,
                                       const ThrottleConfig& config)
    : topo_(topo),
      config_(config),
      id_(g_next_transport_id.fetch_add(1, std::memory_order_relaxed)),
      seconds_per_byte_(link_seconds_per_byte()),
      links_(seconds_per_byte_, link_discipline(config.qos)) {
  auto& reg = obs::Registry::instance();
  ctr_cross_ = &reg.counter("testbed.net.cross_rack_bytes");
  ctr_intra_ = &reg.counter("testbed.net.intra_rack_bytes");
  ctr_transfers_ = &reg.counter("testbed.net.transfers");
  const std::vector<double> credit_bounds = {1e-5, 5e-5, 1e-4,
                                             5e-4, 1e-3, 1e-2};
  hist_lag_credit_ =
      &reg.histogram("testbed.net.lag_credit_seconds", credit_bounds);
  hist_handoff_credit_ =
      &reg.histogram("testbed.net.handoff_credit_seconds", credit_bounds);
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
  const int path[] = {disk(node)};
  move_chunks(path, size, /*wait=*/true);
}

ThrottledTransport::Clock::time_point ThrottledTransport::back_to_back_ready(
    Clock::time_point now) const {
  const WakeRecord& w = this_thread_wake();
  if (w.transport != id_) return now;
  // A thread asking within its lag of waking is back to back: its chunk was
  // ready at E plus the time it spent since waking, so that time is never
  // erased.  Longer than that, it may have waited on something else.
  const Clock::duration lag = w.woke - w.slept_until;
  const Clock::duration since = now - w.woke;
  return since <= lag ? w.slept_until + since : now;
}

ThrottledTransport::Clock::duration ThrottledTransport::path_credit(
    std::span<const int> path, Clock::time_point ready,
    Clock::time_point now) const {
  if (ready >= now) return Clock::duration::zero();
  // Cut-through: one slot on every link, so it starts no earlier than the
  // last of them is free.
  Clock::time_point start = ready;
  for (const int idx : path) start = std::max(start, links_.available_at(idx));
  return start < now ? now - start : Clock::duration::zero();
}

void ThrottledTransport::sleep_until(Clock::time_point end) const {
  std::this_thread::sleep_until(end);
  WakeRecord& w = this_thread_wake();
  w.transport = id_;
  w.slept_until = end;
  w.woke = Clock::now();
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

  std::array<int, 4> path;
  size_t hops = 0;
  path[hops++] = node_up(src);
  const bool cross = !topo_.same_rack(src, dst);
  if (cross) {
    path[hops++] = rack_up(topo_.rack_of(src));
    path[hops++] = rack_down(topo_.rack_of(dst));
  }
  path[hops++] = node_down(dst);

  obs::Span span(!wait              ? "net.inject"
                 : cross            ? "net.transfer.cross"
                                    : "net.transfer.intra",
                 "net");
  span.arg("src", src);
  span.arg("dst", dst);
  span.arg("bytes", size);

  move_chunks(std::span<const int>(path.data(), hops), size, wait);

  if (cross) {
    cross_ += size;
    ctr_cross_->add(size);
  } else {
    intra_ += size;
    ctr_intra_->add(size);
  }
  ctr_transfers_->add();
}

void ThrottledTransport::move_chunks(std::span<const int> path, Bytes size,
                                     bool wait) {
  double slowest = 0;  // seconds per byte of the path's slowest link
  for (const int idx : path) {
    slowest = std::max(slowest, seconds_per_byte_[static_cast<size_t>(idx)]);
  }
  // Every slot goes to the calling thread's ambient (class, tenant) flow:
  // in arrival order under FIFO, in weighted virtual-finish order under
  // QoS.  Either way the reservation is for the same bytes on the same
  // link — only its start time differs.
  const qos::TransferContext ctx = qos::current_context();
  WakeRecord& wake = this_thread_wake();
  // A hand-off dates the move's first chunk; the rest follow it back to
  // back.  Injected traffic never sleeps, so it neither takes nor gives one.
  bool handed_off = wait && wake.ready.has_value();
  Bytes remaining = size;
  while (remaining > 0) {
    const Bytes chunk = std::min(remaining, config_.chunk_size);
    remaining -= chunk;
    const Clock::time_point now = Clock::now();
    const Clock::time_point ready = handed_off ? *wake.ready
                                    : wait     ? back_to_back_ready(now)
                                               : now;
    const Clock::duration credit = path_credit(path, ready, now);
    // The chunk occupies each link of the path; links operate in parallel
    // (cut-through), so the chunk lands when the slowest reservation ends.
    // The QoS class budget is charged on the first hop only — a serial
    // path must not be metered once per link.
    Clock::time_point done{};
    bool charge = true;
    for (const int idx : path) {
      done = std::max(done, links_.request(idx, ctx, chunk, charge, credit));
      charge = false;
    }
    if (credit > Clock::duration::zero()) {
      // How much sooner the chunk lands than it would have uncredited: at
      // most the credit, and nothing where the path was already busy.
      const double sooner =
          std::chrono::duration<double>(Clock::now() - done).count() +
          static_cast<double>(chunk) * slowest;
      const double credited =
          std::min(sooner, std::chrono::duration<double>(credit).count());
      if (credited > 0) {
        (handed_off ? hist_handoff_credit_ : hist_lag_credit_)
            ->record(credited);
      }
    }
    if (wait) {
      sleep_until(done);
      if (wake.ready) wake.ready = done;  // the bytes have landed
    }
    handed_off = false;
  }
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
