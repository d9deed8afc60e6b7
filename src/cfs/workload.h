// Workload drivers for the MiniCfs testbed experiments (paper §V-A).
//
//  * WriteWorkload      — Poisson stream of single-block writes from random
//    client nodes, recording per-request response times (Experiments A.2 /
//    B.1's write stream).
//  * BackgroundTraffic  — Iperf-style bandwidth hogs: node pairs pushing a
//    constant stream of bytes through the transport (Experiment A.1's UDP
//    injection).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cfs/minicfs.h"
#include "common/stats.h"
#include "qos/qos.h"

namespace ear::cfs {

class WriteWorkload {
 public:
  // `rate` is the Poisson arrival rate in requests/second (wall clock).  A
  // rate <= 0 is an empty stream: start() starts no thread and issues no
  // write, and there are no samples.
  WriteWorkload(MiniCfs& cfs, double rate, uint64_t seed);
  ~WriteWorkload();

  WriteWorkload(const WriteWorkload&) = delete;
  WriteWorkload& operator=(const WriteWorkload&) = delete;

  // Attributes every write of this workload to a QoS flow (multi-tenant
  // experiments); untagged workloads fall to the per-operation defaults.
  void set_qos(qos::TransferContext ctx) { qctx_ = {ctx, true}; }

  void start();
  // Stops generating, waits for in-flight writes, then returns.
  void stop();

  // (issue time since start(), response seconds) pairs, in issue order.
  std::vector<std::pair<double, double>> samples() const;
  Summary response_summary() const;
  int completed() const { return completed_.load(); }

 private:
  void generator_loop();

  MiniCfs* cfs_;
  double rate_;
  Rng rng_;
  std::vector<uint8_t> payload_;
  qos::Captured qctx_;  // inactive unless set_qos was called

  std::atomic<bool> running_{false};
  std::atomic<int> completed_{0};
  std::thread generator_;
  std::vector<std::thread> requests_;
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> samples_;
  std::chrono::steady_clock::time_point epoch_;
};

// Saturating background streams between fixed node pairs; each stream sends
// `bytes_per_second` continuously in `burst` chunks until stopped.  A rate
// <= 0 sends nothing: start() starts no stream thread.
class BackgroundTraffic {
 public:
  BackgroundTraffic(MiniCfs& cfs,
                    std::vector<std::pair<NodeId, NodeId>> pairs,
                    BytesPerSec bytes_per_second, Bytes burst = 256_KB);
  ~BackgroundTraffic();

  BackgroundTraffic(const BackgroundTraffic&) = delete;
  BackgroundTraffic& operator=(const BackgroundTraffic&) = delete;

  // Attributes the injected streams to a QoS flow (defaults to untagged).
  void set_qos(qos::TransferContext ctx) { qctx_ = {ctx, true}; }

  void start();
  void stop();

 private:
  MiniCfs* cfs_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  BytesPerSec rate_;
  Bytes burst_;
  qos::Captured qctx_;
  std::atomic<bool> running_{false};
  std::vector<std::thread> streams_;
};

}  // namespace ear::cfs
