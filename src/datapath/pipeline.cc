#include "datapath/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <vector>

#include "common/wake_record.h"
#include "datapath/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ear::datapath {

// -------------------------------------------------------------- ChunkLadder

void ChunkLadder::publish(int upto) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_ = std::max(ready_, upto);
  }
  cv_.notify_all();
}

bool ChunkLadder::wait_for(int upto) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this, upto] { return aborted_ || ready_ >= upto; });
  return ready_ >= upto;
}

void ChunkLadder::abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

int ChunkLadder::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_;
}

// ----------------------------------------------------------- StagedPipeline

namespace {

// Counting semaphore bounding how many fan-out lanes and chain hops move
// bytes at once across the whole process.  A lane holds a slot only while it
// fetches and a hop only while it moves one chunk — never while waiting on
// another lane or hop — so the gate cannot deadlock: every slot holder
// finishes unconditionally and frees its slot.
class LaneGate {
 public:
  explicit LaneGate(int slots) : slots_(slots) {}

  void acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return slots_ > 0; });
    --slots_;
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++slots_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int slots_;
};

// The one gate shared by every fan-out lane and chain hop in the process.
LaneGate& lane_gate() {
  static LaneGate gate(StagedPipeline::kMaxActiveLanes);
  return gate;
}

// Holds one gate slot for its scope.
class LaneSlot {
 public:
  LaneSlot() { lane_gate().acquire(); }
  ~LaneSlot() { lane_gate().release(); }
  LaneSlot(const LaneSlot&) = delete;
  LaneSlot& operator=(const LaneSlot&) = delete;
};

// Dates one chain hop on the calling thread (DESIGN.md "Work-conserving
// senders"): for its scope, the thread's moves are handed `ready`, when the
// hop's bytes existed, and on leaving it `ready` is when they landed, the
// next hop's ready time.  The hand-off is cleared on every exit, so none
// leaks into the thread's later moves.
class HandOff {
 public:
  explicit HandOff(WakeRecord::Clock::time_point& ready) : ready_(ready) {
    this_thread_wake().ready = ready;
  }
  ~HandOff() {
    WakeRecord& wake = this_thread_wake();
    ready_ = wake.ready.value_or(ready_);
    wake.ready.reset();
  }
  HandOff(const HandOff&) = delete;
  HandOff& operator=(const HandOff&) = delete;

 private:
  WakeRecord::Clock::time_point& ready_;
};

}  // namespace

void StagedPipeline::run_fanout(int chunks, int lanes,
                                const std::function<void(int, int)>& fetch,
                                const std::function<void(int)>& compute,
                                const std::function<void(int)>& upload) {
  if (lanes == 1 && chunks <= 1) {
    // One-shot path: no stage tasks, no hand-off.  With more lanes every
    // lane still runs, since each covers a disjoint share of the sources.
    fetch(0, 0);
    compute(0);
    if (upload) upload(0);
    return;
  }

  static obs::Gauge* gauge_in_flight =
      &obs::Registry::instance().gauge("datapath.chunks_in_flight");
  static obs::Gauge* gauge_lanes =
      &obs::Registry::instance().gauge("datapath.fetch_lanes");
  gauge_lanes->set_max(static_cast<double>(lanes));

  std::vector<ChunkLadder> ladders(static_cast<size_t>(lanes));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(lanes));
  std::atomic<bool> aborting{false};
  ChunkLadder computed;  // compute -> upload
  // Declared after everything the stage tasks touch: on every exit path,
  // exceptions included, the group waits for its tasks before those go.
  TaskGroup stages(WorkerPool::shared());

  for (int l = 0; l < lanes; ++l) {
    stages.submit([&, l] {
      LaneSlot slot;
      obs::Span span("datapath.fetch", "datapath");
      span.arg("lane", l);
      span.arg("chunks", chunks);
      try {
        for (int c = 0; c < chunks; ++c) {
          if (aborting.load(std::memory_order_relaxed)) break;
          fetch(l, c);
          ladders[static_cast<size_t>(l)].publish(c + 1);
        }
      } catch (...) {
        errors[static_cast<size_t>(l)] = std::current_exception();
        aborting.store(true, std::memory_order_relaxed);
      }
      // Release any waiter stuck beyond this lane's published rungs (a
      // no-op for waits the lane already satisfied).
      if (aborting.load(std::memory_order_relaxed)) {
        ladders[static_cast<size_t>(l)].abort();
      }
    });
  }
  if (upload) {
    // upload(c) as soon as compute(c) has published; stops when compute
    // aborts.
    stages.submit([&] {
      obs::Span span("datapath.upload", "datapath");
      span.arg("chunks", chunks);
      for (int c = 0; c < chunks && computed.wait_for(c + 1); ++c) upload(c);
    });
  }

  try {
    obs::Span span("datapath.compute", "datapath");
    span.arg("chunks", chunks);
    span.arg("lanes", lanes);
    for (int c = 0; c < chunks; ++c) {
      bool rung_complete = true;
      int min_ready = chunks;
      for (auto& ladder : ladders) {
        if (!ladder.wait_for(c + 1)) {
          rung_complete = false;
          break;
        }
        min_ready = std::min(min_ready, ladder.ready());
      }
      if (!rung_complete) {
        computed.abort();
        break;
      }
      // Rungs every lane has fully delivered but compute has not consumed:
      // > 1 proves the lanes ran ahead while we decoded.
      gauge_in_flight->set_max(static_cast<double>(min_ready - c));
      compute(c);
      computed.publish(c + 1);
    }
  } catch (...) {
    // Stop the lanes at their next rung and release the uploader, so the
    // group can drain before the exception leaves.
    aborting.store(true, std::memory_order_relaxed);
    computed.abort();
    throw;
  }

  stages.wait();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void StagedPipeline::run_chain(int chunks, const std::vector<int>& chain_hops,
                               const std::function<void(int, int)>& hop,
                               const std::function<void(int)>& compute) {
  const int chains = static_cast<int>(chain_hops.size());
  assert(chains >= 1);
  // Every chain's first hop has its bytes now: the caller holds them all.
  const auto started = WakeRecord::Clock::now();
  if (chains == 1 && chunks <= 1) {
    // One-shot path: each hop forwards the whole window in chain order.
    auto ready = started;
    for (int h = 0; h < chain_hops[0]; ++h) {
      HandOff handoff(ready);
      hop(h, 0);
    }
    compute(0);
    return;
  }

  static obs::Gauge* gauge_in_flight =
      &obs::Registry::instance().gauge("datapath.chunks_in_flight");

  // first[j]: chain j's first hop; first[chains]: the hop count.
  std::vector<int> first(static_cast<size_t>(chains) + 1, 0);
  for (int j = 0; j < chains; ++j) {
    assert(chain_hops[static_cast<size_t>(j)] >= 1);
    first[static_cast<size_t>(j) + 1] =
        first[static_cast<size_t>(j)] + chain_hops[static_cast<size_t>(j)];
  }
  // Cell (h, c), hop h moving chunk c, follows (h-1, c) in its chain and
  // (h, c-1).  One task per (chain, chunk) walks its chunk down every hop
  // of its chain, so the task's own previous move satisfies (h-1, c) and
  // each move waits only for the chunk ahead to have left the hop; over an
  // instant transport a chunk then crosses its chain on one thread.
  // crossed[h]: chunks [0, n) have crossed hop h, in chunk order.
  std::vector<ChunkLadder> crossed(static_cast<size_t>(first.back()));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(chains) *
                                         static_cast<size_t>(chunks));
  std::atomic<bool> aborting{false};
  const auto abort_all = [&] {
    aborting.store(true, std::memory_order_relaxed);
    for (auto& ladder : crossed) ladder.abort();
  };
  // Declared last, as in run_fanout(): it waits for the tasks on every exit
  // path.
  TaskGroup stages(WorkerPool::shared());

  // Chunk-major, so every chain's chunk 0 sets out first.
  for (int c = 0; c < chunks; ++c) {
    for (int j = 0; j < chains; ++j) {
      stages.submit([&, c, j] {
        const int begin = first[static_cast<size_t>(j)];
        const int end = first[static_cast<size_t>(j) + 1];
        obs::Span span("datapath.chain", "datapath");
        span.arg("chain", j);
        span.arg("chunk", c);
        span.arg("hops", end - begin);
        try {
          // Chunk c reaches each next hop when this task's own previous hop
          // landed it, however late the task wakes to forward it.
          auto ready = started;
          for (int h = begin; h < end; ++h) {
            ChunkLadder& here = crossed[static_cast<size_t>(h)];
            // Wait slot-free (the gate rule in pipeline.h) for chunk c-1 to
            // have left hop h.
            if (!here.wait_for(c)) return;
            if (aborting.load(std::memory_order_relaxed)) return;
            {
              LaneSlot slot;
              HandOff handoff(ready);
              hop(h, c);
            }
            here.publish(c + 1);
          }
        } catch (...) {
          errors[static_cast<size_t>(c) * static_cast<size_t>(chains) +
                 static_cast<size_t>(j)] = std::current_exception();
          abort_all();
        }
      });
    }
  }

  try {
    obs::Span span("datapath.compute", "datapath");
    span.arg("chunks", chunks);
    span.arg("chains", chains);
    span.arg("hops", first.back());
    for (int c = 0; c < chunks; ++c) {
      bool delivered = true;
      int min_ready = chunks;
      for (int j = 0; j < chains && delivered; ++j) {
        const int tail = first[static_cast<size_t>(j) + 1] - 1;
        ChunkLadder& last = crossed[static_cast<size_t>(tail)];
        delivered = last.wait_for(c + 1);
        min_ready = std::min(min_ready, last.ready());
      }
      if (!delivered) break;
      // Chunks through every chain but not yet consumed.
      gauge_in_flight->set_max(static_cast<double>(min_ready - c));
      compute(c);
    }
  } catch (...) {
    abort_all();  // release every waiting task so the group can drain
    throw;
  }

  stages.wait();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ear::datapath
