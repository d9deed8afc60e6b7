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
// Every link, and every node's disk, is a FIFO reservation timeline: the
// paper's CSIM model of a resource held for size/bandwidth, and the
// virtual-time twin of cfs::ThrottledTransport.  A transfer reserves its
// next chunk on all of its links at once, each slot starting when that link
// frees up, and reserves the chunk after once the slowest slot has ended.
// The chunk is reservation_chunk(size) (common/units.h), the rule the
// testbed benches use, so concurrent transfers interleave slot by slot and a
// short transfer waits behind at most one slot of a long one.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "topology/topology.h"

namespace ear::sim {

struct NetConfig {
  BytesPerSec node_bw = gbps(1);
  BytesPerSec rack_uplink_bw = gbps(1);
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

  // Byte accounting (paper's cross-rack traffic argument).
  int64_t cross_rack_bytes() const { return cross_rack_bytes_; }
  int64_t intra_rack_bytes() const { return intra_rack_bytes_; }
  int64_t cross_rack_transfers() const { return cross_rack_transfers_; }

  const Topology& topology() const { return *topo_; }

 private:
  // Link layout: [0, N) node up, [N, 2N) node down,
  // [2N, 2N+R) rack up, [2N+R, 2N+2R) rack down, [2N+2R, 3N+2R) disks.
  int node_up(NodeId n) const { return n; }
  int node_down(NodeId n) const { return topo_->node_count() + n; }
  int rack_up(RackId r) const { return 2 * topo_->node_count() + r; }
  int rack_down(RackId r) const {
    return 2 * topo_->node_count() + topo_->rack_count() + r;
  }
  int disk(NodeId n) const {
    return 2 * topo_->node_count() + 2 * topo_->rack_count() + n;
  }

  // Common path of start_transfer / start_disk_read: counts the transfer in
  // flight and starts its reservations.  `trace_name` labels its span.
  TransferId start_flow(std::vector<int> links, Bytes size,
                        std::function<void()> on_complete,
                        const char* trace_name);
  // Reserves the next `chunk` of a transfer on all its links and schedules
  // the continuation.
  void reserve(std::vector<int> links, Bytes remaining, Bytes chunk,
               std::function<void()> on_complete);
  void trace_in_flight() const;

  Engine* engine_;
  const Topology* topo_;
  NetConfig config_;
  std::vector<BytesPerSec> link_capacity_;
  std::vector<Seconds> link_available_at_;  // reservation horizon per link
  int64_t in_flight_ = 0;
  TransferId next_id_ = 1;
  int64_t cross_rack_bytes_ = 0;
  int64_t intra_rack_bytes_ = 0;
  int64_t cross_rack_transfers_ = 0;
};

}  // namespace ear::sim
