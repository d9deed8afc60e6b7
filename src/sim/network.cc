#include "sim/network.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace ear::sim {

namespace {
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
  ++in_flight_;
  trace_in_flight();
  // The whole chunked transfer appears as one virtual-time span when its
  // last chunk lands.
  on_complete = [this, trace_name, start = engine_->now(), size, id,
                 inner = std::move(on_complete)] {
    --in_flight_;
    if (obs::trace_enabled()) {
      obs::sim_complete(trace_name, "sim.net", start, engine_->now(),
                        flow_lane(id), {{"bytes", size}});
      trace_in_flight();
    }
    inner();
  };
  reserve(std::move(links), size, reservation_chunk(size),
          std::move(on_complete));
  return id;
}

void Network::trace_in_flight() const {
  if (!obs::trace_enabled()) return;
  obs::sim_counter("sim.active_flows", engine_->now(), {{"flows", in_flight_}});
}

void Network::reserve(std::vector<int> links, Bytes remaining, Bytes chunk,
                      std::function<void()> on_complete) {
  if (remaining <= 0) {
    on_complete();
    return;
  }
  const Bytes len = std::min(remaining, chunk);
  Seconds done = engine_->now();
  for (const int l : links) {
    auto& avail = link_available_at_[static_cast<size_t>(l)];
    const Seconds start = std::max(engine_->now(), avail);
    avail = start + static_cast<double>(len) /
                        link_capacity_[static_cast<size_t>(l)];
    done = std::max(done, avail);
  }
  engine_->schedule_at(done, [this, links = std::move(links),
                              remaining = remaining - len, chunk,
                              on_complete = std::move(on_complete)]() mutable {
    reserve(std::move(links), remaining, chunk, std::move(on_complete));
  });
}

}  // namespace ear::sim
