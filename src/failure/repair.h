// Prioritized, throttled repair — the one path that restores redundancy
// after failures (HDFS ReplicationMonitor + RaidNode BlockFixer as a
// continuous service).  A one-shot sweep is schedule_scan() then drain().
//
// Blocks needing work enter a priority queue keyed by *remaining redundancy*:
// how many further failures the block survives before data loss.  A lost
// block of a stripe with exactly k live blocks, or a replicated block down to
// one copy, has priority 0 and is repaired first.  Workers (bounded
// concurrency) re-verify every task against live NameNode metadata before
// acting, so stale queue entries — e.g. from a detector false positive or a
// node that recovered mid-queue — degrade to no-ops instead of spurious
// copies.  Failures mid-repair (sources dying under the reader) retry with
// exponential backoff up to max_attempts.
//
// A running manager also adopts foreground rebuilds: when a degraded read
// reconstructs a lost block whose task is still queued, the task is swapped
// for an adoption that stores the reader's rebuilt copy at a repair target
// (one block copy, or none when the reader itself is an eligible target)
// instead of reading k blocks again.  Adoptions run ahead of queued tasks,
// draw the same repair budget, and fall back to the original task when the
// reader died or no target is left.
//
// All data movement goes through the MiniCfs Transport; an optional token
// bucket caps aggregate repair bandwidth on top of it, modelling HDFS's
// dfs.datanode.balance / replication throttles so repair traffic cannot
// starve foreground work.  It stands down when the transport schedules with
// QoS, whose repair class rate is then the budget.
//
// Two execution modes:
//  * start()/stop() — live mode: up to `workers` drainer tasks on the shared
//    data-path pool (datapath::WorkerPool) service the queue until it is
//    empty, and scheduling new work re-pumps drainers as needed.  No
//    persistent threads: an idle manager costs nothing.  Only this mode
//    adopts foreground rebuilds (start() installs the MiniCfs rebuild
//    listener, stop() clears it).
//  * drain()        — processes the whole queue synchronously on the caller
//    thread in strict priority order, deterministically (benches, sim).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cfs/minicfs.h"
#include "common/debt_bucket.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace ear::failure {

struct RepairConfig {
  int workers = 2;            // live-mode repair concurrency
  int max_attempts = 3;       // attempts per block before giving up
  Seconds retry_backoff = 0.005;  // initial backoff, doubles per attempt
  BytesPerSec repair_bandwidth = 0;  // aggregate cap; 0 = unthrottled
  // Observability/test hook: runs before each task attempt and each
  // adoption with the block and its queue priority (live mode: on the
  // worker thread).
  std::function<void(BlockId, int)> on_task;
};

class RepairManager {
 public:
  struct Report {
    int64_t re_replicated = 0;  // replica copies created
    int64_t repaired = 0;       // blocks rebuilt via decoding or adopted
    int64_t adopted = 0;        // of those, stored from a foreground rebuild
    int64_t unrecoverable = 0;  // blocks given up on (after retries)
    int64_t noop = 0;           // tasks already satisfied at re-verification
    int64_t retries = 0;        // attempts that failed and were requeued
    int64_t bytes_moved = 0;    // transport bytes charged to repair
  };

  RepairManager(cfs::MiniCfs& cfs, const RepairConfig& config);
  ~RepairManager();

  RepairManager(const RepairManager&) = delete;
  RepairManager& operator=(const RepairManager&) = delete;

  // ---- scheduling (thread-safe) -------------------------------------------
  // Scans the namespace once (one NameNode lock) and enqueues every block
  // below its redundancy target.  Returns the number of tasks enqueued.
  int schedule_scan();
  // Enqueues only blocks with a registered copy on `node` / in `rack` —
  // the detector-driven path, avoiding full scans per failure.
  int schedule_node(NodeId node);
  int schedule_rack(RackId rack);

  // ---- execution ----------------------------------------------------------
  // Live mode: at most `workers` concurrent drainer tasks on the shared
  // data-path pool service the queue (adoptions first) until stop().
  void start();
  // Stops live mode and blocks until every drainer has exited; adoptions
  // still pending turn back into the queued tasks they replaced.
  void stop();
  // Blocks until the queue and the pending adoptions are empty and all
  // drainers are idle.
  void wait_idle();

  // Synchronous mode: processes the entire queue (including retries) on the
  // calling thread in strict priority order.  Returns the work done by this
  // call.  Not concurrent with start().
  Report drain();

  // ---- introspection ------------------------------------------------------
  Report report() const;  // cumulative over the manager's lifetime
  size_t queue_depth() const;  // queued tasks plus pending adoptions

 private:
  struct Task {
    int priority = 0;  // extra failures tolerable before data loss
    BlockId block = kInvalidBlock;
    int attempts = 0;
  };
  // A foreground rebuild of a queued block: `task` is the queued task it
  // replaced, `bytes` the reader's rebuilt copy on `holder`.
  struct Adoption {
    Task task;
    NodeId holder = kInvalidNode;
    datapath::BlockBuffer bytes;
  };
  // kRequeue puts the task back in the queue unchanged (an adoption that
  // could not run).
  enum class Outcome { kDone, kNoop, kRetry, kUnrecoverable, kRequeue };

  // Priority of a block given live copy/stripe state; <0 means healthy.
  int compute_priority(const cfs::BlockStatus& status,
                       const cfs::NamespaceSnapshot& snap) const;
  int enqueue_snapshot(const cfs::NamespaceSnapshot& snap,
                       const std::function<bool(const cfs::BlockStatus&)>&
                           filter);
  void push_task(Task task);  // caller holds mu_
  bool pop_task(Task* task);  // caller holds mu_

  // One repair attempt; re-verifies state, then decodes or re-replicates.
  Outcome attempt(const Task& task, bool live_mode);
  // The rebuild listener: swaps a still-queued task for an adoption.
  void on_rebuilt(BlockId block, NodeId holder,
                  const datapath::BlockBuffer& bytes);
  // Stores an adoption's copy at a repair target.
  Outcome adopt(const Adoption& adoption);
  void finish(const Task& task, Outcome outcome, bool live_mode);
  // Submits drainer tasks to the shared pool until min(config.workers,
  // queue depth) are running.  Caller holds mu_; no-op unless running_.
  void pump_locked();
  // No queued task, pending adoption or running repair.  Caller holds mu_.
  bool idle_locked() const;
  void drainer_loop();
  void throttle(Bytes bytes, bool live_mode);

  cfs::MiniCfs* cfs_;
  RepairConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // queue non-empty or stopping
  std::condition_variable idle_cv_;  // queue empty and workers idle
  std::set<std::pair<int, BlockId>> queue_;  // (priority, block)
  std::map<BlockId, int> queued_;            // block -> priority (dedupe)
  std::map<BlockId, int> attempts_;          // retry counts for queued blocks
  std::deque<Adoption> adoptions_;           // run ahead of queue_
  int drainers_ = 0;      // drainer tasks alive on the shared pool
  int active_ = 0;        // drainers currently executing a repair
  bool running_ = false;  // between start() and stop()
  bool stop_ = false;
  bool listening_ = false;  // this manager installed the rebuild listener
  Report report_;

  std::mutex throttle_mu_;
  std::optional<DebtBucket> budget_;  // engaged iff repair_bandwidth > 0

  obs::Gauge* gauge_queue_depth_;
  obs::Counter* ctr_repaired_;
  obs::Counter* ctr_adopted_;
  obs::Counter* ctr_re_replicated_;
  obs::Counter* ctr_unrecoverable_;
  obs::Counter* ctr_retries_;
  obs::Counter* ctr_bytes_;
};

}  // namespace ear::failure
