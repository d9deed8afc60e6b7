// Shared harness of earbench: operation accounting, latency
// samples with honest percentiles, writer-side payload records, the
// traffic-class metering Transport decorator, and the result printer.
//
// The benchmark measures every layer from outside: it times the calls it makes
// into the public APIs, wraps the real transport in MeteredTransport, and
// reads the counters the program already registers in obs::Registry.  It
// adds no instrumentation to the program itself.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfs/transport.h"
#include "common/rng.h"
#include "common/units.h"
#include "placement/types.h"
#include "qos/qos.h"
#include "topology/topology.h"

namespace earbench {

using ear::BlockId;
using ear::Bytes;
using ear::NodeId;
using ear::operator""_KB;
using ear::operator""_MB;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// Deterministic per-purpose seed derivation (splitmix64 of seed ^ salt).
uint64_t derive_seed(uint64_t seed, uint64_t salt);

// ---------------------------------------------------------------- operations

enum class OpKind { kWrite, kRead, kDegradedRead, kEncodeStripe, kRepair };
inline constexpr int kOpKinds = 5;
const char* op_name(OpKind kind);

// Attempted / failed operations per kind.  A thrown operation counts as
// failed; it never aborts the run.
class OpLog {
 public:
  void attempt(OpKind kind, int64_t n = 1) {
    attempted_[idx(kind)].fetch_add(n, std::memory_order_relaxed);
  }
  void fail(OpKind kind, int64_t n = 1) {
    failed_[idx(kind)].fetch_add(n, std::memory_order_relaxed);
  }
  // Service time of one successful call, measured around the call itself.
  void served(OpKind kind, Clock::duration d) {
    served_[idx(kind)].fetch_add(1, std::memory_order_relaxed);
    service_ns_[idx(kind)].fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
        std::memory_order_relaxed);
  }
  int64_t attempted(OpKind kind) const { return attempted_[idx(kind)].load(); }
  int64_t failed(OpKind kind) const { return failed_[idx(kind)].load(); }
  int64_t served(OpKind kind) const { return served_[idx(kind)].load(); }
  double mean_service_ms(OpKind kind) const;
  int64_t total_attempted() const;
  int64_t total_failed() const;

 private:
  static size_t idx(OpKind kind) { return static_cast<size_t>(kind); }
  std::array<std::atomic<int64_t>, kOpKinds> attempted_{};
  std::array<std::atomic<int64_t>, kOpKinds> failed_{};
  std::array<std::atomic<int64_t>, kOpKinds> served_{};
  std::array<std::atomic<int64_t>, kOpKinds> service_ns_{};
};

// ------------------------------------------------------------------ samples

// Thread-safe sample sink.
class Samples {
 public:
  void add(double v);
  void add_all(const std::vector<double>& vs);
  std::vector<double> sorted() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

// A percentile as emitted: the requested one when at least ten samples lie
// beyond it, else the highest of p99/p90/p50 that has ten beyond (the median
// when even p50 does not qualify).  `label` names what was emitted.
struct Percentile {
  double value = 0;
  std::string label;  // "p99", "p90", "p50" or "p50(n<20)"
  size_t n = 0;
};
Percentile honest_percentile(const std::vector<double>& sorted, double q);
double median(std::vector<double> values);

// ----------------------------------------------------------------- payloads

// Writer-side payload records.  Block payloads are drawn from a small pool
// of random blocks, each stamped with its write sequence number in the first
// eight bytes, so every block is distinct.  `record` stores the sequence the
// writer used for a block; `verify` checks every byte of a read against it.
class Payloads {
 public:
  Payloads(Bytes block_size, int pool, uint64_t seed);

  Bytes block_size() const { return block_size_; }
  // Fills `out` (block_size bytes) with the payload of sequence `seq`.
  void fill(uint64_t seq, std::span<uint8_t> out) const;
  // Remembers that `block` holds the payload of `seq`.  With
  // `corrupt_records` set (self-check), every 16th record is deliberately
  // wrong, so verification must fail.
  void record(BlockId block, uint64_t seq);
  bool known(BlockId block) const;
  // True when `bytes` are exactly the recorded payload of `block`; a
  // mismatch is counted.
  bool verify(BlockId block, std::span<const uint8_t> bytes);
  int64_t mismatches() const { return mismatches_.load(); }

  static std::atomic<bool> corrupt_records;

 private:
  const uint8_t* pool_block(uint64_t seq) const;

  Bytes block_size_;
  int pool_;
  std::vector<uint8_t> bytes_;  // pool_ * block_size_
  mutable std::mutex mu_;
  std::unordered_map<BlockId, uint64_t> seq_of_;
  std::atomic<int64_t> mismatches_{0};
};

// -------------------------------------------------------- transport meter

// Per-traffic-class accounting, accumulated across every cluster a run
// builds (each round's MeteredTransport reports into the same meter).
struct ClassTally {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> blocked_ns{0};
  std::atomic<int64_t> cross_rack_bytes{0};
  std::atomic<int64_t> intra_rack_bytes{0};
};

class TransportMeter {
 public:
  ClassTally& of(ear::qos::TrafficClass cls) {
    return tallies_[static_cast<size_t>(cls)];
  }
  const ClassTally& of(ear::qos::TrafficClass cls) const {
    return tallies_[static_cast<size_t>(cls)];
  }

 private:
  std::array<ClassTally, ear::qos::kClassCount> tallies_;
};

// Transport decorator: forwards every call to the wrapped transport and
// attributes its bytes and blocked time to the caller's traffic class, read
// from the ambient qos::current_context().
class MeteredTransport final : public ear::cfs::Transport {
 public:
  MeteredTransport(const ear::Topology& topo,
                   std::unique_ptr<ear::cfs::Transport> inner,
                   TransportMeter& meter);

  void transfer(NodeId src, NodeId dst, Bytes size) override;
  void local_read(NodeId node, Bytes size) override;
  void inject(NodeId src, NodeId dst, Bytes size) override {
    inner_->inject(src, dst, size);
  }
  Bytes preferred_chunk() const override { return inner_->preferred_chunk(); }
  int64_t cross_rack_bytes() const override {
    return inner_->cross_rack_bytes();
  }
  int64_t intra_rack_bytes() const override {
    return inner_->intra_rack_bytes();
  }
  bool qos_enabled() const override { return inner_->qos_enabled(); }

 private:
  ear::Topology topo_;
  std::unique_ptr<ear::cfs::Transport> inner_;
  TransportMeter* meter_;
};

// ---------------------------------------------------------------- collector

// Everything one run measures, filled by the workloads and read by the
// result printer.  Per-round values are reported as medians over rounds.
struct Collector {
  OpLog ops;
  Samples write_ms, read_ms, hi_read_ms, degraded_ms;
  Samples lateness_ms;        // open loop: start time minus due time
  Samples repair_task_ms;     // RepairManager task spans (on_task hook)
  Samples snapshot_ms;        // namespace_snapshot(), once per phase
  Samples stripe_completion_s;
  std::vector<double> setup_s, write_mbps, convert_mbps, restore_s,
      stored_ratio, cross_ratio;
  std::vector<double> convert_mbps_traced, convert_mbps_untraced;
  int rounds = 0;
  std::atomic<int64_t> late_requests{0};  // open loop: > 10 ms after due
  int64_t stripes_converted = 0;
  int64_t failed_stripes = 0;
  int64_t encode_cross_rack_downloads = 0;
  int64_t namespace_blocks = 0;
  int64_t cache_lookups = 0, cache_hits = 0, cache_evictions = 0;
  int64_t store_blocks = 0, store_bytes = 0;
  int64_t repair_repaired = 0, repair_re_replicated = 0, repair_retries = 0,
          repair_noop = 0, repair_unrecoverable = 0, repair_bytes_moved = 0;
  int64_t blocks_below_target = 0;  // after restore; counted as failed repairs
  int64_t mismatches = 0;
  TransportMeter meter;
};

// Shape of the workload's code and data path, for the per-layer kernel and
// codec probes.
struct Shape {
  int n = 0;
  int k = 0;
  Bytes block_size = 0;
  Bytes chunk = 0;
};

// Peak resident set size of this process, MiB.
double peak_rss_mb();

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count / percentile used, printed in the report
  bool in_result = true;  // carried in the JSON result line
};

// Prints one "metric" line per metric, then the final JSON result line with
// the metrics marked in_result.
void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace earbench
