// Data transports for the mini-CFS "testbed" (our stand-in for the paper's
// 13-machine HDFS cluster, §V-A).
//
// The testbed moves real bytes between in-process DataNodes; the transport
// decides how long each movement takes:
//  * InstantTransport   — functional tests: only byte accounting.
//  * ThrottledTransport — experiments: every link of the CFS topology
//    (node up/down, rack up/down, per-node disk) is a fluid reservation
//    timeline with a configured bandwidth, kept by a qos::LinkScheduler;
//    concurrent transfers contend chunk-by-chunk in real time, reproducing
//    the cross-rack bottleneck physically.  Each chunk starts when its
//    bytes were ready, not when its sender's thread woke to send them: a
//    sender's back-to-back chunks are credited its wake-up lag (the lag
//    credit), and a chain hop handed its bytes by another thread starts at
//    their hand-off time (common/wake_record.h), so the emulated links do
//    not idle while threads wake up.  With qos.enable off the
//    scheduler runs as FIFO (unbounded grant horizon, no class budgets:
//    every reservation is granted in arrival order); with it on, in
//    weighted fair order.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "qos/scheduler.h"
#include "topology/topology.h"

namespace ear::cfs {

class Transport {
 public:
  virtual ~Transport() = default;

  // Blocks the calling thread until `size` bytes have "moved" from src to
  // dst.  src == dst is a local copy and costs nothing.
  virtual void transfer(NodeId src, NodeId dst, Bytes size) = 0;

  // Charges a local disk read on `node` (used when the encoder reads a
  // replica it already stores).  Default: free.
  virtual void local_read(NodeId node, Bytes size) {
    (void)node;
    (void)size;
  }

  // Consumes link capacity without waiting for delivery — models
  // unresponsive (UDP-style) traffic that keeps transmitting regardless of
  // congestion, as the paper's Iperf injection does.  Default: same as
  // transfer.
  virtual void inject(NodeId src, NodeId dst, Bytes size) {
    transfer(src, dst, size);
  }

  // Granularity at which the staged data-path pipeline should interleave
  // transfer and compute (MiniCfs chunks encode/degraded-read at this
  // size).  0 means chunking buys nothing (instant transports): callers
  // fall back to one-shot whole-block stages.
  virtual Bytes preferred_chunk() const { return 0; }

  virtual int64_t cross_rack_bytes() const = 0;
  virtual int64_t intra_rack_bytes() const = 0;

  // True when link time is granted in weighted fair order under the QoS
  // class budgets rather than in FIFO arrival order.  Components with
  // private throttles (the RepairManager's token bucket) stand down when
  // the transport already enforces a class budget, so repair is not
  // throttled twice.
  virtual bool qos_enabled() const { return false; }
};

// Counts bytes, takes zero time.  For functional tests.  A nonzero
// `preferred_chunk` forces the staged pipeline through its chunked path
// without the real-time sleeps of ThrottledTransport (parity-equivalence
// tests).
class InstantTransport final : public Transport {
 public:
  explicit InstantTransport(const Topology& topo, Bytes preferred_chunk = 0)
      : topo_(topo), preferred_chunk_(preferred_chunk) {}

  Bytes preferred_chunk() const override { return preferred_chunk_; }

  void transfer(NodeId src, NodeId dst, Bytes size) override {
    if (src == dst) return;
    if (topo_.same_rack(src, dst)) {
      intra_ += size;
    } else {
      cross_ += size;
    }
  }

  int64_t cross_rack_bytes() const override { return cross_; }
  int64_t intra_rack_bytes() const override { return intra_; }

 private:
  Topology topo_;
  Bytes preferred_chunk_ = 0;
  std::atomic<int64_t> cross_{0};
  std::atomic<int64_t> intra_{0};
};

struct ThrottleConfig {
  BytesPerSec node_bw = 200e6;         // emulated link speeds; scaled-down
  BytesPerSec rack_uplink_bw = 200e6;  // testbeds use ~100-400 MB/s
  // Rack down-link (core -> rack) speed; 0 = same as the up-link.  Letting
  // them differ models congestion concentrated in one direction — e.g. the
  // paper's Iperf interference rides the rack up-links, so senders are
  // squeezed while receiver ingress stays clear.
  BytesPerSec rack_downlink_bw = 0;
  Bytes chunk_size = 1_MB;             // reservation granularity
  // Local disk bandwidth per node; 0 = local reads are free.  The paper's
  // testbed disks (~130 MB/s SATA) are comparable to its 1 Gb/s links.
  BytesPerSec disk_bw = 0;
  // Granularity the staged pipeline interleaves transfer and compute at
  // (preferred_chunk); 0 = follow chunk_size.  Re-tuned for the SIMD GF
  // kernels: bench_micro_gf measures AVX2 mul_add at ~19-23 GB/s while src +
  // dst stay cache-resident (4-256 KiB) but ~17 GB/s once spans reach 1 MiB,
  // and with encode now ~16x faster than scalar the pipeline wants finer
  // chunks so transfer/compute overlap dominates, not per-chunk compute.
  Bytes pipeline_chunk = 256_KB;
  // Link scheduling (qos/scheduler.h).  Every link is a LinkScheduler
  // either way.  Off: FIFO — the grant horizon is unbounded and class_rate
  // is ignored, so each reservation is granted on arrival and weights never
  // decide an order.  On: weighted fair queuing over (traffic class,
  // tenant) flows under the class budgets.  Transfers are otherwise
  // identical — same paths, same chunks, same bytes (invariant 11).
  qos::QosConfig qos;
};

class ThrottledTransport final : public Transport {
 public:
  ThrottledTransport(const Topology& topo, const ThrottleConfig& config);
  ~ThrottledTransport() override;

  void transfer(NodeId src, NodeId dst, Bytes size) override;
  void local_read(NodeId node, Bytes size) override;
  void inject(NodeId src, NodeId dst, Bytes size) override;

  Bytes preferred_chunk() const override {
    if (config_.pipeline_chunk <= 0) return config_.chunk_size;
    return std::min(config_.chunk_size, config_.pipeline_chunk);
  }

  int64_t cross_rack_bytes() const override { return cross_; }
  int64_t intra_rack_bytes() const override { return intra_; }

  bool qos_enabled() const override { return config_.qos.enable; }

 private:
  using Clock = std::chrono::steady_clock;

  // Link table layout: node up-links, node down-links, rack up-links, rack
  // down-links, then one disk per node.
  int node_up(NodeId n) const { return n; }
  int node_down(NodeId n) const { return topo_.node_count() + n; }
  int rack_up(RackId r) const { return 2 * topo_.node_count() + r; }
  int rack_down(RackId r) const {
    return 2 * topo_.node_count() + topo_.rack_count() + r;
  }
  int disk(NodeId n) const {
    return 2 * topo_.node_count() + 2 * topo_.rack_count() + n;
  }
  int link_count() const { return disk(topo_.node_count()); }
  // Per-link seconds per byte in table order (disk_bw 0 = a free disk).
  // Reads only topo_ and config_, so the constructor builds
  // seconds_per_byte_ (and links_ from it) with it.
  std::vector<double> link_seconds_per_byte() const;

  void do_transfer(NodeId src, NodeId dst, Bytes size, bool wait);
  // Moves `size` bytes chunk by chunk over every link of `path` at once
  // (cut-through).  With `wait` the caller sleeps until each chunk lands,
  // and each chunk starts at max(ready, every link of the path free): the
  // first chunk is ready at the thread's hand-off time when a data-path
  // stage set one, every other chunk when back_to_back_ready says; the
  // hand-off then becomes the last chunk's end.  Without `wait`, nothing
  // sleeps and every chunk is ready now (injected traffic).  The first hop
  // of each chunk draws the QoS class budget (FIFO sets no budget, so it
  // only steers the qos.class.* counters).
  void move_chunks(std::span<const int> path, Bytes size, bool wait);
  // When the calling thread's next chunk on this transport was ready: if it
  // asks within its last wake-up lag (W - E) of waking here, E plus the
  // time since it woke; else now.
  Clock::time_point back_to_back_ready(Clock::time_point now) const;
  // How long before now a chunk ready at `ready` may start on `path`: until
  // max(ready, every link of the path free), and never after now.
  Clock::duration path_credit(std::span<const int> path,
                              Clock::time_point ready,
                              Clock::time_point now) const;
  // Sleeps until `end` and records it and the wake-up in the thread's
  // WakeRecord.
  void sleep_until(Clock::time_point end) const;

  // Link-utilization sampler (obs): a background thread that periodically
  // snapshots every link's queued bytes and busy share since the previous
  // sample, emitting Chrome counter events so cross-rack bottlenecks show
  // up as a timeline.  Started only when tracing is on at construction.
  void start_sampler(Seconds period);
  void stop_sampler();
  void sample_links();
  std::string link_label(int idx) const;

  Topology topo_;
  ThrottleConfig config_;
  const uint64_t id_;  // keys the per-thread WakeRecord's sleep fields
  const std::vector<double> seconds_per_byte_;  // link table order
  qos::QosScheduler links_;  // one LinkScheduler per link of the table
  std::atomic<int64_t> cross_{0};
  std::atomic<int64_t> intra_{0};

  obs::Counter* ctr_cross_ = nullptr;
  obs::Counter* ctr_intra_ = nullptr;
  obs::Counter* ctr_transfers_ = nullptr;
  // Seconds each credited chunk landed sooner: a sender's own wake-up lag,
  // or a hand-off from the thread that produced its bytes.
  obs::Histogram* hist_lag_credit_ = nullptr;
  obs::Histogram* hist_handoff_credit_ = nullptr;

  std::thread sampler_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  Seconds sampler_period_ = 0;
  Clock::time_point last_sample_{};
  std::vector<double> prev_busy_;  // per-link busy_seconds at last sample
};

}  // namespace ear::cfs
