#include "qos/scheduler.h"

#include <algorithm>
#include <cmath>

namespace ear::qos {

namespace {

constexpr double kMinWeight = 1e-9;

// A class budget allows a short burst (half a second of its sustained rate)
// above it; the floor keeps chunk-sized requests moving when the budget is
// tiny.  Debt-style admission handles requests larger than the cap.
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

// ------------------------------------------------------------ ClassBudget

ClassBudget::ClassBudget(const QosConfig& config) {
  const auto now = Clock::now();
  for (int c = 0; c < kClassCount; ++c) {
    const BytesPerSec rate = config.class_rate[c];
    // Starting full lets a fresh budget burst at once.
    if (rate > 0) buckets_[c].emplace(rate, bucket_cap(rate), now);
  }
}

bool ClassBudget::admit(int class_idx, Bytes bytes, Clock::time_point now) {
  auto& bucket = buckets_[class_idx];
  if (!bucket) return true;
  std::lock_guard<std::mutex> lk(mu_);
  bucket->refill(now);
  // Admit while tokens are positive, then charge the full request: the
  // long-run rate is the configured one for any request size, and every
  // class makes progress once its debt is repaid — starvation-free.
  if (bucket->tokens() <= 0) return false;
  bucket->charge(static_cast<double>(bytes));
  return true;
}

ClassBudget::Clock::time_point ClassBudget::admissible_at(
    int class_idx, Clock::time_point now) {
  auto& bucket = buckets_[class_idx];
  if (!bucket) return now;
  std::lock_guard<std::mutex> lk(mu_);
  bucket->refill(now);
  if (bucket->tokens() > 0) return now;
  // A hair past the crossing, so the balance is positive on waking.
  return now + to_duration(bucket->seconds_until(0) + 1e-4);
}

// ------------------------------------------------------------ LinkScheduler

LinkScheduler::LinkScheduler(double seconds_per_byte, const QosConfig& config,
                             std::shared_ptr<ClassBudget> budget)
    : seconds_per_byte_(seconds_per_byte),
      horizon_(std::isinf(config.grant_horizon)
                   ? Clock::duration::max()
                   : to_duration(config.grant_horizon)),
      budget_(budget ? std::move(budget)
                     : std::make_shared<ClassBudget>(config)),
      core_(config) {}

LinkScheduler::Clock::time_point LinkScheduler::request(
    const TransferContext& ctx, Bytes bytes, bool charge,
    Clock::duration credit) {
  std::unique_lock<std::mutex> lk(mu_);
  auto now = Clock::now();

  // Fast path: idle link within the horizon, nobody queued, budget ok.
  if (core_.empty() && available_at_ - now <= horizon_ &&
      (!charge || budget_->admit(static_cast<int>(ctx.cls), bytes, now))) {
    auto start = std::max(now - credit, available_at_);
    double secs = static_cast<double>(bytes) * seconds_per_byte_;
    available_at_ = start + to_duration(secs);
    busy_seconds_ += secs;
    return available_at_;
  }

  const uint64_t id = core_.add(ctx, bytes, charge);
  waiting_bytes_ += bytes;
  grants_.emplace(id, Grant{.credit = credit});
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

void LinkScheduler::try_grant_locked(Clock::time_point now) {
  bool granted_any = false;
  while (!core_.empty() && available_at_ - now <= horizon_) {
    FairQueueCore::Request r;
    // admit() charges the request it accepts, and grant_next pops exactly
    // the first accepted one, so only the granted request is charged.
    if (!core_.grant_next(
            [this, now](const FairQueueCore::Request& req) {
              return !req.charge ||
                     budget_->admit(req.class_idx, req.bytes, now);
            },
            &r)) {
      break;
    }
    // A deferred request is backdated from its grant, never from its
    // arrival: the wait itself is not credited.
    auto& g = grants_[r.id];
    auto start = std::max(now - g.credit, available_at_);
    double secs = static_cast<double>(r.bytes) * seconds_per_byte_;
    available_at_ = start + to_duration(secs);
    busy_seconds_ += secs;
    waiting_bytes_ -= r.bytes;
    g.granted = true;
    g.end = available_at_;
    granted_any = true;
  }
  if (granted_any) cv_.notify_all();
}

LinkScheduler::Clock::time_point LinkScheduler::next_event_locked(
    Clock::time_point now) {
  if (available_at_ - now > horizon_) return available_at_ - horizon_;
  // Timeline is open, so the queue heads must be waiting on the shared
  // budget: wake when the soonest class with queued work can be admitted.
  // Other links spending the same budget only push that instant later, and
  // a wake-up that finds the class still in debt recomputes it.
  Clock::time_point soonest = now + std::chrono::milliseconds(50);
  for (int c = 0; c < kClassCount; ++c) {
    if (core_.class_size(c) == 0) continue;
    soonest = std::min(soonest, budget_->admissible_at(c, now));
  }
  return soonest;
}

LinkScheduler::Clock::time_point LinkScheduler::available_at() const {
  std::lock_guard<std::mutex> lk(mu_);
  return available_at_;
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
                           const QosConfig& config) {
  auto budget = std::make_shared<ClassBudget>(config);
  links_.reserve(seconds_per_byte.size());
  for (double spb : seconds_per_byte) {
    links_.push_back(std::make_unique<LinkScheduler>(spb, config, budget));
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
}

QosScheduler::Clock::time_point QosScheduler::request(
    int link, const TransferContext& ctx, Bytes bytes, bool charge,
    Clock::duration credit) {
  const int c = static_cast<int>(ctx.cls);
  {
    std::lock_guard<std::mutex> lk(queued_mu_);
    queued_bytes_[c] += bytes;
    gauge_queued_[c]->set(static_cast<double>(queued_bytes_[c]));
  }
  auto t0 = Clock::now();
  auto end =
      links_[static_cast<size_t>(link)]->request(ctx, bytes, charge, credit);
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

}  // namespace ear::qos
