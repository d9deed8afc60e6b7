#include "qos/scheduler.h"

#include <algorithm>
#include <cmath>

namespace ear::qos {

namespace {

constexpr double kMinWeight = 1e-9;

// Token buckets allow a short burst (half a second of the sustained rate)
// above it; the floor keeps chunk-sized requests moving when the budget is
// tiny.  Debt-style admission below handles requests larger than the cap.
double bucket_cap(BytesPerSec rate) {
  return std::max(rate * 0.5, static_cast<double>(256_KB));
}

LinkScheduler::Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<LinkScheduler::Clock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

}  // namespace

// ------------------------------------------------------------ FairQueueCore

FairQueueCore::FairQueueCore(const QosConfig& config) : config_(config) {}

double FairQueueCore::weight_of(const TransferContext& ctx) const {
  double w = config_.class_weight[static_cast<int>(ctx.cls)];
  auto it = config_.tenant_weight.find(ctx.tenant);
  if (it != config_.tenant_weight.end()) w *= it->second;
  return std::max(w, kMinWeight);
}

uint64_t FairQueueCore::add(const TransferContext& ctx, Bytes bytes,
                            bool charge) {
  Request r;
  r.id = next_id_++;
  r.class_idx = static_cast<int>(ctx.cls);
  r.tenant = ctx.tenant;
  r.bytes = bytes;
  r.charge = charge;

  const FlowKey key{r.class_idx, r.tenant};
  double& last_vfinish = flow_vfinish_[key];
  r.vstart = std::max(vtime_, last_vfinish);
  r.vfinish = r.vstart + static_cast<double>(bytes) / weight_of(ctx);
  last_vfinish = r.vfinish;

  queue_.emplace(std::make_pair(r.vfinish, r.id), r);
  ++class_count_[r.class_idx];
  return r.id;
}

bool FairQueueCore::grant_next(
    const std::function<bool(const Request&)>& admit, Request* out) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const Request& r = it->second;
    if (!admit(r)) continue;
    *out = r;
    vtime_ = std::max(vtime_, r.vstart);
    --class_count_[r.class_idx];
    queue_.erase(it);
    if (queue_.empty()) {
      // System idle: restart the virtual clock so tags stay small and a
      // long-idle flow carries no stale credit or debt into the next busy
      // period.
      vtime_ = 0;
      flow_vfinish_.clear();
    }
    return true;
  }
  return false;
}

size_t FairQueueCore::class_size(int class_idx) const {
  return class_count_[class_idx];
}

// ------------------------------------------------------------ LinkScheduler

LinkScheduler::LinkScheduler(double seconds_per_byte, const QosConfig& config)
    : seconds_per_byte_(seconds_per_byte),
      horizon_(std::isinf(config.grant_horizon)
                   ? Clock::duration::max()
                   : to_duration(config.grant_horizon)),
      core_(config) {}

LinkScheduler::Clock::time_point LinkScheduler::request(
    const TransferContext& ctx, Bytes bytes, bool charge) {
  const int cls = static_cast<int>(ctx.cls);
  std::unique_lock<std::mutex> lk(mu_);
  auto now = Clock::now();
  if (charge) demand_[cls] += bytes;
  refill_locked(now);

  // Fast path: idle link within the horizon, nobody queued, budget ok.
  if (core_.empty() && available_at_ - now <= horizon_ &&
      (!charge || admit_locked(cls, bytes))) {
    if (charge && buckets_[cls].rate > 0) buckets_[cls].tokens -= bytes;
    auto start = std::max(now, available_at_);
    double secs = static_cast<double>(bytes) * seconds_per_byte_;
    available_at_ = start + to_duration(secs);
    busy_seconds_ += secs;
    return available_at_;
  }

  const uint64_t id = core_.add(ctx, bytes, charge);
  waiting_bytes_ += bytes;
  grants_.emplace(id, Grant{});
  while (true) {
    try_grant_locked(Clock::now());
    auto it = grants_.find(id);
    if (it->second.granted) {
      auto end = it->second.end;
      grants_.erase(it);
      return end;
    }
    cv_.wait_until(lk, next_event_locked(Clock::now()));
  }
}

bool LinkScheduler::admit_locked(int class_idx, Bytes bytes) const {
  (void)bytes;
  const TokenBucket& b = buckets_[class_idx];
  // Debt-style bucket: admit while tokens are positive, charge the full
  // request (possibly going negative).  Long-run throughput converges to
  // the configured rate for any request size, and every class makes
  // progress once its tokens refill past zero — starvation-free.
  return b.rate <= 0 || b.tokens > 0;
}

void LinkScheduler::refill_locked(Clock::time_point now) {
  for (auto& b : buckets_) {
    if (b.rate <= 0) continue;
    if (b.last_refill == Clock::time_point{}) {
      b.last_refill = now;
      continue;
    }
    if (now <= b.last_refill) continue;
    double dt = std::chrono::duration<double>(now - b.last_refill).count();
    b.tokens = std::min(bucket_cap(b.rate), b.tokens + dt * b.rate);
    b.last_refill = now;
  }
}

void LinkScheduler::try_grant_locked(Clock::time_point now) {
  refill_locked(now);
  bool granted_any = false;
  while (!core_.empty() && available_at_ - now <= horizon_) {
    FairQueueCore::Request r;
    if (!core_.grant_next(
            [this](const FairQueueCore::Request& req) {
              return !req.charge || admit_locked(req.class_idx, req.bytes);
            },
            &r)) {
      break;
    }
    if (r.charge && buckets_[r.class_idx].rate > 0) {
      buckets_[r.class_idx].tokens -= r.bytes;
    }
    auto start = std::max(now, available_at_);
    double secs = static_cast<double>(r.bytes) * seconds_per_byte_;
    available_at_ = start + to_duration(secs);
    busy_seconds_ += secs;
    waiting_bytes_ -= r.bytes;
    auto& g = grants_[r.id];
    g.granted = true;
    g.end = available_at_;
    granted_any = true;
  }
  if (granted_any) cv_.notify_all();
}

LinkScheduler::Clock::time_point LinkScheduler::next_event_locked(
    Clock::time_point now) const {
  if (available_at_ - now > horizon_) return available_at_ - horizon_;
  // Timeline is open, so the queue heads must be waiting on tokens: wake
  // when the soonest capped class with queued work turns positive.
  Clock::time_point soonest = now + std::chrono::milliseconds(50);
  for (int c = 0; c < kClassCount; ++c) {
    const TokenBucket& b = buckets_[c];
    if (b.rate <= 0 || b.tokens > 0) continue;
    if (core_.class_size(c) == 0) continue;
    double wait = (-b.tokens) / b.rate + 1e-4;
    soonest = std::min(soonest, now + to_duration(wait));
  }
  return soonest;
}

void LinkScheduler::set_class_rate(int class_idx, BytesPerSec rate) {
  std::lock_guard<std::mutex> lk(mu_);
  TokenBucket& b = buckets_[class_idx];
  if (b.rate <= 0 && rate > 0) {
    // First assignment: start full so a fresh budget permits an immediate
    // burst, mirroring the RepairManager's old startup allowance.
    b.last_refill = Clock::time_point{};
    b.tokens = bucket_cap(rate);
  }
  b.rate = rate;
  if (rate > 0) b.tokens = std::min(b.tokens, bucket_cap(rate));
  cv_.notify_all();
}

int64_t LinkScheduler::take_demand(int class_idx) {
  std::lock_guard<std::mutex> lk(mu_);
  int64_t d = demand_[class_idx];
  demand_[class_idx] = 0;
  return d;
}

LinkScheduler::Sample LinkScheduler::sample(Clock::time_point now) const {
  std::lock_guard<std::mutex> lk(mu_);
  Sample s;
  double backlog = 0;
  if (available_at_ > now) {
    backlog = std::chrono::duration<double>(available_at_ - now).count();
  }
  s.queued_bytes = waiting_bytes_;
  if (seconds_per_byte_ > 0) {
    s.queued_bytes += static_cast<int64_t>(backlog / seconds_per_byte_);
  }
  s.busy_seconds = busy_seconds_;
  return s;
}

// ------------------------------------------------------------- QosScheduler

QosScheduler::QosScheduler(const std::vector<double>& seconds_per_byte,
                           const QosConfig& config)
    : config_(config) {
  links_.reserve(seconds_per_byte.size());
  for (double spb : seconds_per_byte) {
    links_.push_back(std::make_unique<LinkScheduler>(spb, config_));
  }

  const size_t n = links_.size();
  demand_ewma_.assign(kClassCount, std::vector<double>(n, 0.0));
  bool any_capped = false;
  for (int c = 0; c < kClassCount; ++c) {
    if (config_.class_rate[c] <= 0) continue;
    any_capped = true;
    // Start from an equal static split; the controller reshapes it from
    // observed demand.
    for (auto& link : links_) {
      link->set_class_rate(c, config_.class_rate[c] / static_cast<double>(n));
    }
  }

  auto& reg = obs::Registry::instance();
  for (int c = 0; c < kClassCount; ++c) {
    auto cls = static_cast<TrafficClass>(c);
    ctr_bytes_[c] = &reg.counter(class_metric(cls, "bytes"));
    ctr_grants_[c] = &reg.counter(class_metric(cls, "grants"));
    gauge_queued_[c] = &reg.gauge(class_metric(cls, "queued_bytes"));
  }
  hist_grant_latency_ = &reg.histogram(
      "qos.grant_latency_ms",
      {0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000});

  if (any_capped && config_.rebalance_period > 0 && n > 0) {
    controller_ = std::thread([this] { controller_loop(); });
  }
}

QosScheduler::~QosScheduler() {
  if (controller_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(controller_mu_);
      controller_stop_ = true;
    }
    controller_cv_.notify_all();
    controller_.join();
  }
}

QosScheduler::Clock::time_point QosScheduler::request(
    int link, const TransferContext& ctx, Bytes bytes, bool charge) {
  const int c = static_cast<int>(ctx.cls);
  {
    std::lock_guard<std::mutex> lk(queued_mu_);
    queued_bytes_[c] += bytes;
    gauge_queued_[c]->set(static_cast<double>(queued_bytes_[c]));
  }
  auto t0 = Clock::now();
  auto end = links_[static_cast<size_t>(link)]->request(ctx, bytes, charge);
  auto granted = Clock::now();
  {
    std::lock_guard<std::mutex> lk(queued_mu_);
    queued_bytes_[c] -= bytes;
    gauge_queued_[c]->set(static_cast<double>(queued_bytes_[c]));
  }
  hist_grant_latency_->record(
      std::chrono::duration<double, std::milli>(granted - t0).count());
  if (charge) {
    // Charged hops only: a multi-link transfer's bytes count once.
    ctr_bytes_[c]->add(bytes);
    ctr_grants_[c]->add(1);
  }
  return end;
}

void QosScheduler::controller_loop() {
  std::unique_lock<std::mutex> lk(controller_mu_);
  while (!controller_stop_) {
    controller_cv_.wait_for(
        lk, std::chrono::duration<double>(config_.rebalance_period),
        [this] { return controller_stop_; });
    if (controller_stop_) break;
    lk.unlock();
    rebalance();
    lk.lock();
  }
}

void QosScheduler::rebalance() {
  const size_t n = links_.size();
  if (n == 0) return;
  for (int c = 0; c < kClassCount; ++c) {
    const BytesPerSec budget = config_.class_rate[c];
    if (budget <= 0) continue;
    auto& ewma = demand_ewma_[static_cast<size_t>(c)];
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      double d = static_cast<double>(links_[i]->take_demand(c));
      ewma[i] = 0.5 * ewma[i] + 0.5 * d;
      total += ewma[i];
    }
    for (size_t i = 0; i < n; ++i) {
      double share = total > 0 ? ewma[i] / total : 1.0 / static_cast<double>(n);
      // Blend with an equal-split floor so links with no recent demand can
      // still start a flow without waiting a full controller period.
      double rate =
          budget * (0.8 * share + 0.2 / static_cast<double>(n));
      links_[i]->set_class_rate(c, rate);
    }
  }
}

}  // namespace ear::qos
