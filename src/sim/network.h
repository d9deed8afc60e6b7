// Flow-level network model of the CFS topology (paper Figure 1 and §V-B's
// Topology module).
//
// Links:
//   * per node: an uplink (node -> top-of-rack switch) and a downlink,
//     each of capacity `node_bw`;
//   * per rack: an uplink (ToR -> core) and a downlink, each of capacity
//     `rack_uplink_bw`.  Cross-rack transfers traverse four links; intra-rack
//     transfers only the two node links — making cross-rack bandwidth the
//     shared, scarce resource, as in the paper.
//
// Active transfers are fluid flows; whenever a flow starts or finishes, rates
// are re-assigned max-min fairly (progressive filling), which is the standard
// fluid approximation of per-connection TCP fairness.  A flow's completion
// event fires when its remaining bytes reach zero at the current rate.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "topology/topology.h"

namespace ear::sim {

// How concurrent flows share a link:
//  * kMaxMin — fluid max-min fair sharing (TCP-like); rates are re-assigned
//    whenever the flow set changes.  Default, used for the B.2 sweeps.
//  * kFifoReservation — each link hands out chunk-sized time slots in FIFO
//    order, the CSIM-style "hold the resource for size/bandwidth" model and
//    the virtual-time twin of cfs::ThrottledTransport.  Used by the
//    simulator-validation experiment so both sides queue identically.
enum class SharingModel { kMaxMin, kFifoReservation };

struct NetConfig {
  BytesPerSec node_bw = gbps(1);
  BytesPerSec rack_uplink_bw = gbps(1);
  SharingModel sharing = SharingModel::kMaxMin;
  Bytes fifo_chunk = 64_KB;  // reservation granularity in FIFO mode
  // Per-node disk bandwidth for local reads (start_disk_read); 0 = free.
  BytesPerSec disk_bw = 0;
};

using TransferId = uint64_t;

class Network {
 public:
  Network(Engine& engine, const Topology& topo, const NetConfig& config);

  // Starts a transfer of `size` bytes from src to dst; `on_complete` runs
  // when the last byte arrives.  A src == dst transfer is local (no network)
  // and completes immediately (next event).
  TransferId start_transfer(NodeId src, NodeId dst, Bytes size,
                            std::function<void()> on_complete);

  // Charges a local disk read on `node` (per-node disk resource); completes
  // immediately when disk_bw == 0.
  TransferId start_disk_read(NodeId node, Bytes size,
                             std::function<void()> on_complete);

  int active_transfers() const { return static_cast<int>(flows_.size()); }

  // Byte accounting (paper's cross-rack traffic argument).
  int64_t cross_rack_bytes() const { return cross_rack_bytes_; }
  int64_t intra_rack_bytes() const { return intra_rack_bytes_; }
  int64_t cross_rack_transfers() const { return cross_rack_transfers_; }

  // Invariant check (testing hook): per-link allocated rate <= capacity and
  // allocation is max-min fair.  Returns false on violation.
  bool check_rates_feasible() const;

  const Topology& topology() const { return *topo_; }

 private:
  struct Flow {
    TransferId id;
    std::vector<int> links;
    double remaining;  // bytes
    BytesPerSec rate = 0.0;
    std::function<void()> on_complete;
    // obs trace context (set only while tracing is enabled).
    const char* trace_name = nullptr;
    Seconds start = 0;
    Bytes total = 0;
  };

  // Link layout: [0, N) node up, [N, 2N) node down,
  // [2N, 2N+R) rack up, [2N+R, 2N+2R) rack down.
  int node_up(NodeId n) const { return n; }
  int node_down(NodeId n) const { return topo_->node_count() + n; }
  int rack_up(RackId r) const { return 2 * topo_->node_count() + r; }
  int rack_down(RackId r) const {
    return 2 * topo_->node_count() + topo_->rack_count() + r;
  }
  int disk(NodeId n) const {
    return 2 * topo_->node_count() + 2 * topo_->rack_count() + n;
  }

  // Registers a flow over the given links (common path of start_transfer /
  // start_disk_read).  `trace_name` labels the flow's span in traces.
  TransferId start_flow(std::vector<int> links, Bytes size,
                        std::function<void()> on_complete,
                        const char* trace_name);
  void trace_active_flows() const;

  void advance_flows();
  void recompute_rates();
  void schedule_next_completion();
  void on_completion_event();

  // FIFO mode: reserves the next chunk of a transfer on all its links and
  // schedules the continuation.
  void fifo_step(std::vector<int> links, Bytes remaining,
                 std::function<void()> on_complete);

  Engine* engine_;
  const Topology* topo_;
  NetConfig config_;
  std::vector<BytesPerSec> link_capacity_;
  std::vector<Seconds> link_available_at_;  // FIFO mode reservation horizon
  std::vector<Flow> flows_;
  Seconds last_update_ = 0.0;
  EventId completion_event_ = kInvalidEvent;
  TransferId next_id_ = 1;
  int64_t cross_rack_bytes_ = 0;
  int64_t intra_rack_bytes_ = 0;
  int64_t cross_rack_transfers_ = 0;
};

}  // namespace ear::sim
