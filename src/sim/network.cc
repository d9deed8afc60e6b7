#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/trace.h"

namespace ear::sim {

namespace {
// Flows with fewer remaining bytes than this are considered finished
// (guards against floating-point residue).
constexpr double kEpsilonBytes = 1e-3;

// Virtual-time flow spans are spread over a handful of trace lanes (tid on
// pid kSimPid) so concurrent flows render side by side instead of stacking
// on one row.
constexpr int kFlowLanes = 16;

int flow_lane(TransferId id) { return static_cast<int>(id % kFlowLanes); }
}  // namespace

Network::Network(Engine& engine, const Topology& topo, const NetConfig& config)
    : engine_(&engine), topo_(&topo), config_(config) {
  const int n = topo.node_count();
  const int r = topo.rack_count();
  link_capacity_.assign(static_cast<size_t>(2 * n + 2 * r + n), 0.0);
  link_available_at_.assign(link_capacity_.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    link_capacity_[static_cast<size_t>(node_up(i))] = config.node_bw;
    link_capacity_[static_cast<size_t>(node_down(i))] = config.node_bw;
    link_capacity_[static_cast<size_t>(disk(i))] =
        config.disk_bw > 0 ? config.disk_bw : 1e18;
  }
  for (int i = 0; i < r; ++i) {
    link_capacity_[static_cast<size_t>(rack_up(i))] = config.rack_uplink_bw;
    link_capacity_[static_cast<size_t>(rack_down(i))] = config.rack_uplink_bw;
  }
}

TransferId Network::start_transfer(NodeId src, NodeId dst, Bytes size,
                                   std::function<void()> on_complete) {
  assert(size >= 0);
  const TransferId id = next_id_++;
  if (src == dst || size == 0) {
    // Local copy: no network resources involved.
    engine_->schedule_in(0.0, std::move(on_complete));
    return id;
  }

  std::vector<int> links;
  links.push_back(node_up(src));
  const bool cross = !topo_->same_rack(src, dst);
  if (cross) {
    links.push_back(rack_up(topo_->rack_of(src)));
    links.push_back(rack_down(topo_->rack_of(dst)));
    cross_rack_bytes_ += size;
    ++cross_rack_transfers_;
  } else {
    intra_rack_bytes_ += size;
  }
  links.push_back(node_down(dst));
  return start_flow(std::move(links), size, std::move(on_complete),
                    cross ? "sim.flow.cross" : "sim.flow.intra");
}

TransferId Network::start_disk_read(NodeId node, Bytes size,
                                    std::function<void()> on_complete) {
  if (config_.disk_bw <= 0 || size == 0) {
    const TransferId id = next_id_++;
    engine_->schedule_in(0.0, std::move(on_complete));
    return id;
  }
  return start_flow({disk(node)}, size, std::move(on_complete),
                    "sim.disk_read");
}

TransferId Network::start_flow(std::vector<int> links, Bytes size,
                               std::function<void()> on_complete,
                               const char* trace_name) {
  const TransferId id = next_id_++;
  if (config_.sharing == SharingModel::kFifoReservation) {
    if (obs::trace_enabled()) {
      // Wrap the continuation so the whole chunked FIFO transfer appears as
      // one virtual-time span when its last chunk lands.
      on_complete = [trace_name, start = engine_->now(), size, id,
                     engine = engine_, inner = std::move(on_complete)] {
        obs::sim_complete(trace_name, "sim.net", start, engine->now(),
                          flow_lane(id), {{"bytes", size}});
        inner();
      };
    }
    fifo_step(std::move(links), size, std::move(on_complete));
    return id;
  }

  advance_flows();
  Flow flow;
  flow.id = id;
  flow.remaining = static_cast<double>(size);
  flow.on_complete = std::move(on_complete);
  flow.links = std::move(links);
  if (obs::trace_enabled()) {
    flow.trace_name = trace_name;
    flow.start = engine_->now();
    flow.total = size;
  }
  flows_.push_back(std::move(flow));

  recompute_rates();
  schedule_next_completion();
  trace_active_flows();
  return id;
}

void Network::trace_active_flows() const {
  if (!obs::trace_enabled()) return;
  obs::sim_counter("sim.active_flows", engine_->now(),
                   {{"flows", static_cast<int64_t>(flows_.size())}});
}

void Network::fifo_step(std::vector<int> links, Bytes remaining,
                        std::function<void()> on_complete) {
  if (remaining <= 0) {
    on_complete();
    return;
  }
  const Bytes chunk = std::min(remaining, config_.fifo_chunk);
  Seconds done = engine_->now();
  for (const int l : links) {
    auto& avail = link_available_at_[static_cast<size_t>(l)];
    const Seconds start = std::max(engine_->now(), avail);
    avail = start + static_cast<double>(chunk) /
                        link_capacity_[static_cast<size_t>(l)];
    done = std::max(done, avail);
  }
  engine_->schedule_at(
      done, [this, links = std::move(links), remaining, chunk,
             on_complete = std::move(on_complete)]() mutable {
        fifo_step(std::move(links), remaining - chunk,
                  std::move(on_complete));
      });
}

void Network::advance_flows() {
  const Seconds now = engine_->now();
  const Seconds dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  for (Flow& f : flows_) {
    f.remaining -= f.rate * dt;
    if (f.remaining < 0) f.remaining = 0;
  }
}

void Network::recompute_rates() {
  // Progressive filling: repeatedly find the most congested link (smallest
  // fair share among its unfrozen flows), freeze those flows at that share,
  // subtract, repeat.
  const size_t link_count = link_capacity_.size();
  std::vector<double> residual = link_capacity_;
  std::vector<int> active(link_count, 0);
  for (const Flow& f : flows_) {
    for (const int l : f.links) ++active[static_cast<size_t>(l)];
  }

  std::vector<bool> frozen(flows_.size(), false);
  size_t remaining_flows = flows_.size();
  while (remaining_flows > 0) {
    // Find the bottleneck link.
    double best_share = std::numeric_limits<double>::infinity();
    int bottleneck = -1;
    for (size_t l = 0; l < link_count; ++l) {
      if (active[l] <= 0) continue;
      const double share = residual[l] / active[l];
      if (share < best_share) {
        best_share = share;
        bottleneck = static_cast<int>(l);
      }
    }
    if (bottleneck < 0) break;  // no active links left (shouldn't happen)

    // Freeze every unfrozen flow crossing the bottleneck at best_share.
    for (size_t i = 0; i < flows_.size(); ++i) {
      if (frozen[i]) continue;
      Flow& f = flows_[i];
      if (std::find(f.links.begin(), f.links.end(), bottleneck) ==
          f.links.end()) {
        continue;
      }
      f.rate = best_share;
      frozen[i] = true;
      --remaining_flows;
      for (const int l : f.links) {
        residual[static_cast<size_t>(l)] -= best_share;
        if (residual[static_cast<size_t>(l)] < 0) {
          residual[static_cast<size_t>(l)] = 0;
        }
        --active[static_cast<size_t>(l)];
      }
    }
  }
}

void Network::schedule_next_completion() {
  if (completion_event_ != kInvalidEvent) {
    engine_->cancel(completion_event_);
    completion_event_ = kInvalidEvent;
  }
  if (flows_.empty()) return;

  double earliest = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.rate <= 0) continue;
    earliest = std::min(earliest, f.remaining / f.rate);
  }
  if (!std::isfinite(earliest)) return;  // all rates zero: deadlocked config
  completion_event_ =
      engine_->schedule_in(std::max(earliest, 0.0), [this] {
        completion_event_ = kInvalidEvent;
        on_completion_event();
      });
}

void Network::on_completion_event() {
  advance_flows();

  // Collect and remove finished flows before invoking callbacks, since
  // callbacks commonly start new transfers.
  std::vector<std::function<void()>> callbacks;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->remaining <= kEpsilonBytes) {
      if (it->trace_name != nullptr && obs::trace_enabled()) {
        obs::sim_complete(it->trace_name, "sim.net", it->start,
                          engine_->now(), flow_lane(it->id),
                          {{"bytes", it->total}});
      }
      callbacks.push_back(std::move(it->on_complete));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  recompute_rates();
  schedule_next_completion();
  trace_active_flows();
  for (auto& cb : callbacks) cb();
}

bool Network::check_rates_feasible() const {
  std::vector<double> used(link_capacity_.size(), 0.0);
  for (const Flow& f : flows_) {
    for (const int l : f.links) used[static_cast<size_t>(l)] += f.rate;
  }
  for (size_t l = 0; l < used.size(); ++l) {
    if (used[l] > link_capacity_[l] * (1.0 + 1e-9) + 1e-6) return false;
  }
  // Max-min property: every flow is limited by at least one saturated link.
  for (const Flow& f : flows_) {
    bool bottlenecked = false;
    for (const int l : f.links) {
      if (used[static_cast<size_t>(l)] >=
          link_capacity_[static_cast<size_t>(l)] * (1.0 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked && !flows_.empty()) return false;
  }
  return true;
}

}  // namespace ear::sim
