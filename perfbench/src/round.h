// Building blocks shared by the workloads: cluster construction, the writer
// schedule that seals one stripe per k writes, namespace probes, the
// restore loop and the end-of-round byte check.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cfs/minicfs.h"
#include "failure/repair.h"
#include "harness.h"

namespace earbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // self-check size: one short round
};

struct ClusterSpec {
  int racks = 0;
  int nodes_per_rack = 0;
  int n = 0;
  int k = 0;
  int replication = 0;
  Bytes block_size = 0;
  Bytes cache_bytes = 0;
};

ear::cfs::CfsConfig make_config(const ClusterSpec& spec, uint64_t seed);

// Client node issuing write `seq`: k consecutive writes come from one rack,
// so EAR (which opens one stripe per writer rack) seals a stripe every k
// writes and a round needs exactly stripes * k writes.
NodeId writer_for(const ear::Topology& topo, int k, uint64_t seq);

// Times one namespace_snapshot() into col.snapshot_ms and returns it.
ear::cfs::NamespaceSnapshot timed_snapshot(const ear::cfs::MiniCfs& cfs,
                                           Collector& col);

// Blocks whose live copies are below target: one for blocks of encoded
// stripes, `replication` for replicated blocks.
int64_t blocks_below_target(const ear::cfs::MiniCfs& cfs, int replication);

// Bytes held by every DataNode store over the user bytes written.
int64_t stored_bytes(const ear::cfs::MiniCfs& cfs);

// Node (or rack, with `by_rack`) whose count of single-copy blocks is closest
// to the mean, so a failure costs about the same on every seed.
int typical_failure_domain(const ear::cfs::MiniCfs& cfs,
                           const ear::cfs::NamespaceSnapshot& snap,
                           bool by_rack, uint64_t seed);

// Spans of RepairManager tasks, from one task start to the next on the same
// worker thread; spans still open when the queue drains close at close().
class RepairTimer {
 public:
  std::function<void(BlockId, int)> hook();
  void close(Collector& col);

 private:
  std::mutex mu_;
  std::unordered_map<std::thread::id, Clock::time_point> open_;
  std::vector<double> done_ms_;
};

// Waits for the repair queue to drain, rescanning until no block is below
// target (blocks created after the failure, e.g. written onto the dead node,
// need a scan).  Returns the blocks still below target.
int64_t restore_until_clean(ear::cfs::MiniCfs& cfs,
                            ear::failure::RepairManager& repair,
                            int replication);

// Adds the manager's report to the collector and counts repair operations;
// blocks left below target after the restore count as failed repairs.
void harvest_repair(const ear::failure::RepairManager& repair,
                    int64_t below_target, Collector& col);

// Reader-cache statistics of a finished round.
void harvest_cache(const ear::cfs::MiniCfs& cfs, Collector& col);

// Checks every stored copy of every recorded block, on every node, against
// the writer-side record.
void verify_stored(const ear::cfs::MiniCfs& cfs, Payloads& payloads);

// Grows the shared data-path WorkerPool to `threads` parked threads before
// anything is timed.  The pool spawns a thread on submit only when none is
// idle, so a burst of map tasks larger than the idle count queues behind the
// idle threads instead of growing the pool; grown lazily, a round's
// conversion ran in one or two waves depending on earlier rounds.
void grow_worker_pool(int threads);

// Enables registry collection for traced rounds (every other round of a
// --trace 1 run, so the untraced rounds give the overhead baseline).
bool begin_round_tracing(const RunOptions& opts, int round);

// Whether another round should start.
bool more_rounds(const RunOptions& opts, int rounds_done,
                 Clock::time_point run_start);

}  // namespace earbench
