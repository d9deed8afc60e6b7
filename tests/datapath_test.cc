// Data-path layer tests: zero-copy BlockBuffer semantics, the shared
// worker pool, the staged chunked pipeline, and end-to-end equivalence of
// the chunked encode/degraded-read paths with the one-shot paths (parity
// must be byte-identical — GF(2^8) row ops are bytewise, so chunking can
// never change the result).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/rng.h"
#include "datapath/block_buffer.h"
#include "datapath/pipeline.h"
#include "datapath/worker_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "qos/qos.h"

namespace ear {
namespace {

using datapath::BlockBuffer;
using datapath::ChunkPlan;
using datapath::MutableBlockBuffer;
using datapath::StagedPipeline;
using datapath::TaskGroup;
using datapath::WorkerPool;

// ------------------------------------------------------------- BlockBuffer

TEST(BlockBuffer, CopyOfOwnsIndependentBytes) {
  std::vector<uint8_t> src{1, 2, 3, 4};
  const BlockBuffer buf = BlockBuffer::copy_of(src);
  src[0] = 99;
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.span()[0], 1);
  EXPECT_EQ(buf.window(1, 2)[0], 2);
}

TEST(BlockBuffer, TakeAdoptsWithoutCopy) {
  std::vector<uint8_t> src{5, 6, 7};
  const uint8_t* raw = src.data();
  const BlockBuffer buf = BlockBuffer::take(std::move(src));
  EXPECT_EQ(buf.data(), raw);  // same allocation, no byte copy
  EXPECT_EQ(buf.refs(), 1);
  const BlockBuffer shared = buf;
  EXPECT_EQ(shared.data(), raw);
  EXPECT_EQ(buf.refs(), 2);
}

TEST(BlockBuffer, SealFreezesWithoutCopy) {
  MutableBlockBuffer staging(8);
  staging.span()[3] = 42;
  const uint8_t* raw = staging.data();
  const BlockBuffer sealed = std::move(staging).seal();
  EXPECT_EQ(sealed.data(), raw);
  EXPECT_EQ(sealed.size(), 8u);
  EXPECT_EQ(sealed.span()[3], 42);
  EXPECT_EQ(staging.size(), 0u);  // handle dead after seal
}

TEST(BlockBuffer, EqualityAgainstVectorAndBuffer) {
  const std::vector<uint8_t> v{9, 8, 7};
  const BlockBuffer a = BlockBuffer::copy_of(v);
  const BlockBuffer b = BlockBuffer::take(std::vector<uint8_t>(v));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, v);
  EXPECT_EQ(v, a);  // reversed candidate (C++20)
  EXPECT_FALSE(a == BlockBuffer::copy_of(std::vector<uint8_t>{9, 8}));
}

TEST(BlockBuffer, CopyOfChargesBytesCopiedCounter) {
  obs::Config cfg;
  cfg.metrics = true;
  obs::init(cfg);
  obs::Registry::instance().reset_values();
  auto& ctr = obs::Registry::instance().counter("datapath.bytes_copied");

  const std::vector<uint8_t> v(1000, 1);
  const BlockBuffer copied = BlockBuffer::copy_of(v);
  EXPECT_EQ(ctr.value(), 1000);
  const BlockBuffer adopted = BlockBuffer::take(std::vector<uint8_t>(v));
  const BlockBuffer shared = adopted;  // ref share: free
  EXPECT_EQ(ctr.value(), 1000);
  (void)copied;
  (void)shared;
  const std::vector<uint8_t> out = adopted.to_vector();
  EXPECT_EQ(ctr.value(), 2000);
  EXPECT_EQ(out, v);
  obs::shutdown();
}

// -------------------------------------------------------------- WorkerPool

TEST(WorkerPool, RunsSubmittedTasks) {
  WorkerPool pool;
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 100; ++i) {
      group.submit([&ran] { ran.fetch_add(1); });
    }
    group.wait();
  }
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100);

  // One task at a time: the parked threads are reused, not one spawned per
  // task.  A new thread is needed only when every thread is still finishing
  // an earlier task, so the count barely moves.
  const int after_burst = pool.thread_count();
  for (int i = 0; i < 100; ++i) {
    TaskGroup group(pool);
    group.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 200);
  EXPECT_LE(pool.thread_count(), after_burst + 2);
}

TEST(WorkerPool, BurstLargerThanIdleThreadsRunsConcurrently) {
  // A burst of tasks that can only finish together: each blocks until all
  // of them have started.  The pool holds fewer idle threads than the
  // burst, so it must spawn for the tasks the idle threads cannot cover
  // instead of queueing them behind blocked ones.  Blocked tasks give up
  // after a deadline, so a pool that queues fails here instead of hanging.
  WorkerPool pool;
  {
    TaskGroup warm(pool);
    warm.submit([] {});
  }
  const int idle_before = pool.thread_count();
  const int burst = idle_before + 6;

  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  int met = 0;
  {
    TaskGroup group(pool);
    for (int i = 0; i < burst; ++i) {
      group.submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        ++started;
        cv.notify_all();
        if (cv.wait_for(lock, std::chrono::seconds(10),
                        [&] { return started == burst; })) {
          ++met;
        }
      });
    }
  }
  EXPECT_EQ(met, burst) << "only " << met << " of " << burst
                        << " tasks ran concurrently";
  EXPECT_GE(pool.thread_count(), burst);
}

TEST(WorkerPool, TaskMayWaitOnTaskItSubmits) {
  // Nested fan-out, as a RaidNode map task running a staged pipeline does:
  // every outer task blocks on inner tasks it submits to the same pool.
  WorkerPool pool;
  std::atomic<int> inner_ran{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i) {
    outer.submit([&] {
      TaskGroup inner(pool);
      for (int j = 0; j < 4; ++j) {
        inner.submit([&] { inner_ran.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_ran.load(), 32);
}

TEST(WorkerPool, TaskGroupRunsTasksUnderSubmittersQosContext) {
  WorkerPool pool;
  qos::TransferContext seen;
  bool active = false;
  {
    const qos::QosScope scope(qos::TrafficClass::kRepair, 3);
    TaskGroup group(pool);
    group.submit([&] {
      seen = qos::current_context();
      active = qos::context_active();
    });
  }
  EXPECT_TRUE(active);
  EXPECT_EQ(seen.cls, qos::TrafficClass::kRepair);
  EXPECT_EQ(seen.tenant, 3);
  // Outside the scope the submitter has no context, and neither does its
  // task, though it may run on the thread that ran the tagged one.
  TaskGroup group(pool);
  group.submit([&] { active = qos::context_active(); });
  group.wait();
  EXPECT_FALSE(active);
}

TEST(WorkerPool, TaskGroupBoundsConcurrency) {
  WorkerPool pool;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  TaskGroup group(pool, /*max_concurrency=*/2);
  for (int i = 0; i < 12; ++i) {
    group.submit([&] {
      const int now = running.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1);
    });
  }
  group.wait();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(WorkerPool, SharedInstanceIsSingleton) {
  WorkerPool& a = WorkerPool::shared();
  WorkerPool& b = WorkerPool::shared();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------- ChunkPlan

TEST(ChunkPlan, SlicesBlockIntoWindows) {
  const ChunkPlan plan{100, 30};
  EXPECT_EQ(plan.count(), 4);
  EXPECT_EQ(plan.offset(0), 0u);
  EXPECT_EQ(plan.len(0), 30u);
  EXPECT_EQ(plan.offset(3), 90u);
  EXPECT_EQ(plan.len(3), 10u);  // tail window
}

TEST(ChunkPlan, ZeroChunkMeansOneShot) {
  EXPECT_EQ((ChunkPlan{100, 0}).count(), 1);
  EXPECT_EQ((ChunkPlan{100, 0}).len(0), 100u);
  EXPECT_EQ((ChunkPlan{100, 200}).count(), 1);
  EXPECT_EQ((ChunkPlan{100, 100}).count(), 1);
}

// ----------------------------------------------------------- StagedPipeline

TEST(StagedPipeline, StagesObserveChunkOrder) {
  const int chunks = 16;
  std::vector<int> fetched, computed, uploaded;
  std::mutex mu;
  StagedPipeline::run_fanout(
      chunks, /*lanes=*/1,
      [&](int, int c) {
        std::lock_guard<std::mutex> lock(mu);
        fetched.push_back(c);
      },
      [&](int c) {
        std::lock_guard<std::mutex> lock(mu);
        // compute(c) must run after fetch(c) finished.
        EXPECT_GE(static_cast<int>(fetched.size()), c + 1);
        computed.push_back(c);
      },
      [&](int c) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_GE(static_cast<int>(computed.size()), c + 1);
        uploaded.push_back(c);
      });
  ASSERT_EQ(fetched.size(), static_cast<size_t>(chunks));
  ASSERT_EQ(computed.size(), static_cast<size_t>(chunks));
  ASSERT_EQ(uploaded.size(), static_cast<size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    EXPECT_EQ(fetched[static_cast<size_t>(c)], c);
    EXPECT_EQ(computed[static_cast<size_t>(c)], c);
    EXPECT_EQ(uploaded[static_cast<size_t>(c)], c);
  }
}

TEST(StagedPipeline, FetchExceptionPropagates) {
  EXPECT_THROW(StagedPipeline::run_fanout(
                   4, /*lanes=*/1,
                   [&](int, int c) {
                     if (c == 2) throw std::runtime_error("link died");
                   },
                   [&](int) {}),
               std::runtime_error);
}

TEST(StagedPipeline, ManyShortCallsTearDownCleanly) {
  // Each call's stage tasks signal a latch on the caller's stack; the caller
  // returns, and the next call reuses that stack, as soon as the latch
  // opens.  Four callers run 10k short run_fanout calls (1-12 lanes,
  // with and without an upload stage), ~1% of them failing in fetch, so any
  // task touching its call's state after the latch opened shows up under
  // the sanitizers.
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 2500;
  std::atomic<int> thrown{0};
  std::atomic<int> expected_throws{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kCallsPerCaller; ++i) {
        const int lanes = 1 + static_cast<int>(rng.uniform(12));
        const int chunks = 1 + static_cast<int>(rng.uniform(4));
        const bool fail = rng.uniform(100) == 0;
        const bool with_upload = rng.uniform(2) == 0;
        const int fail_lane = static_cast<int>(
            rng.uniform(static_cast<uint64_t>(lanes)));
        const int fail_chunk = static_cast<int>(
            rng.uniform(static_cast<uint64_t>(chunks)));
        std::atomic<int> fetched{0};
        int computed = 0;
        std::atomic<int> uploaded{0};
        const auto fetch = [&](int lane, int c) {
          if (fail && lane == fail_lane && c == fail_chunk) {
            throw std::runtime_error("link died");
          }
          fetched.fetch_add(1);
        };
        const auto compute = [&](int) { ++computed; };
        std::function<void(int)> upload;
        if (with_upload) upload = [&](int) { uploaded.fetch_add(1); };
        if (fail) expected_throws.fetch_add(1);
        try {
          StagedPipeline::run_fanout(chunks, lanes, fetch, compute, upload);
        } catch (const std::runtime_error&) {
          thrown.fetch_add(1);
          continue;
        }
        if (fetched.load() != chunks * lanes || computed != chunks ||
            uploaded.load() != (with_upload ? chunks : 0)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(thrown.load(), expected_throws.load());
  EXPECT_GT(expected_throws.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

// -------------------------------------------------------- StagedPipeline chain

// Hop layouts the chain tests sweep: one chain, two and three parallel
// chains (p in {1, 2, 3}), uneven lengths included.
const std::vector<std::vector<int>> kChainLayouts = {{5}, {3, 3}, {3, 2, 3}};

std::string layout_name(const std::vector<int>& chain_hops) {
  std::string name;
  for (const int hops : chain_hops) {
    name += (name.empty() ? "" : "+") + std::to_string(hops);
  }
  return name + " hops";
}

// first[h]: the first hop of hop h's chain; last[j]: chain j's last hop.
struct ChainLayout {
  std::vector<int> first;
  std::vector<int> last;
  int hops = 0;

  explicit ChainLayout(const std::vector<int>& chain_hops) {
    for (const int n : chain_hops) {
      for (int i = 0; i < n; ++i) first.push_back(hops);
      hops += n;
      last.push_back(hops - 1);
    }
  }
};

// A recording hop function: hop h may move chunk c only once the hop
// before it in its chain has delivered it, each hop moves its chunks in
// order, and compute(c) runs only after every chain's last hop delivered
// chunk c.  The hops sleep so later chunks are still upstream while
// earlier ones move down the chains; with `slow_last_chain` the last
// chain's hops sleep ten times longer, so the others deliver well before
// it.
void expect_chain_order(int chunks, const std::vector<int>& chain_hops,
                        bool slow_last_chain = false) {
  SCOPED_TRACE(std::to_string(chunks) + " chunks, " + layout_name(chain_hops) +
               (slow_last_chain ? ", slow last chain" : ""));
  const ChainLayout layout(chain_hops);
  const int slow_from =
      slow_last_chain ? layout.hops - chain_hops.back() : layout.hops;
  std::mutex mu;
  std::vector<int> delivered(static_cast<size_t>(layout.hops), 0);  // per hop
  std::vector<int> computed;
  int active = 0, max_active = 0;
  StagedPipeline::run_chain(
      chunks, chain_hops,
      [&](int h, int c) {
        {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_EQ(delivered[static_cast<size_t>(h)], c)
              << "hop " << h << " out of order";
          if (h > layout.first[static_cast<size_t>(h)]) {
            EXPECT_GE(delivered[static_cast<size_t>(h - 1)], c + 1)
                << "hop " << h << " moved chunk " << c
                << " before its predecessor delivered it";
          }
          max_active = std::max(max_active, ++active);
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(h >= slow_from ? 5000 : 500));
        std::lock_guard<std::mutex> lock(mu);
        --active;
        delivered[static_cast<size_t>(h)] = c + 1;
      },
      [&](int c) {
        std::lock_guard<std::mutex> lock(mu);
        for (const int h : layout.last) {
          EXPECT_GE(delivered[static_cast<size_t>(h)], c + 1)
              << "chain ending at hop " << h << " had not delivered";
        }
        computed.push_back(c);
      });
  for (int h = 0; h < layout.hops; ++h) {
    EXPECT_EQ(delivered[static_cast<size_t>(h)], chunks) << "hop " << h;
  }
  ASSERT_EQ(computed.size(), static_cast<size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    EXPECT_EQ(computed[static_cast<size_t>(c)], c);
  }
  // Pipelined, not store-and-forward: hops moved chunks at the same time.
  EXPECT_GE(max_active, 2);
}

TEST(StagedPipelineChain, HopsWaitForTheirPredecessor) {
  expect_chain_order(/*chunks=*/8, {5});  // more chunks than hops
  expect_chain_order(/*chunks=*/3, {8});  // more hops than chunks
  for (const auto& layout : kChainLayouts) {
    expect_chain_order(/*chunks=*/4, layout);
    // One chunk: parallel chains still overlap (one chain runs inline).
    if (layout.size() > 1) expect_chain_order(/*chunks=*/1, layout);
  }
  // compute(c) waits for the chain that delivers last, not the first.
  expect_chain_order(/*chunks=*/3, {3, 2}, /*slow_last_chain=*/true);
}

TEST(StagedPipelineChain, SingleChunkRunsHopsInChainOrderInline) {
  std::vector<int> order;
  int computes = 0;
  StagedPipeline::run_chain(
      1, {4}, [&](int h, int c) {
        EXPECT_EQ(c, 0);
        order.push_back(h);
      },
      [&](int c) {
        EXPECT_EQ(order.size(), 4u);
        EXPECT_EQ(c, 0);
        ++computes;
      });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(computes, 1);
}

TEST(StagedPipelineChain, OneChainSubmitsOneTaskPerChunk) {
  // One chain runs exactly one pool task per chunk (none for one chunk);
  // p parallel chains run one per (chain, chunk).
  const struct {
    int chunks;
    std::vector<int> chain_hops;
    int64_t tasks;
  } cases[] = {{8, {5}, 8},     {1, {5}, 0},      {2, {4}, 2},
               {8, {3, 3}, 16}, {1, {2, 2, 1}, 3}, {2, {3, 2, 3}, 6}};
  WorkerPool& pool = WorkerPool::shared();
  for (const auto& tc : cases) {
    SCOPED_TRACE(std::to_string(tc.chunks) + " chunks, " +
                 layout_name(tc.chain_hops));
    const int64_t before = pool.tasks_executed();
    StagedPipeline::run_chain(tc.chunks, tc.chain_hops, [](int, int) {},
                              [](int) {});
    EXPECT_EQ(pool.tasks_executed() - before, tc.tasks);
  }
}

// Runs one failing set of chains and checks that nothing of it runs after
// the call returned: every task of every chain drained before the exception
// left.
void expect_chain_error_drains(int chunks, const std::vector<int>& chain_hops,
                               int fail_hop, int fail_compute) {
  SCOPED_TRACE(std::to_string(chunks) + " chunks, " + layout_name(chain_hops) +
               ", failing hop " + std::to_string(fail_hop));
  const ChainLayout layout(chain_hops);
  std::atomic<int> calls{0};
  std::atomic<bool> returned{false};
  std::atomic<int> late{0};
  EXPECT_THROW(
      StagedPipeline::run_chain(
          chunks, chain_hops,
          [&](int h, int c) {
            if (returned.load()) late.fetch_add(1);
            calls.fetch_add(1);
            // Chunks past the failing one move slowly, so the error lands
            // while most of their moves are still to come, however late
            // the caller gets to run.
            std::this_thread::sleep_for(
                std::chrono::microseconds(c >= 2 ? 2000 : 200));
            if (h == fail_hop && c == 1) throw std::runtime_error("hop died");
          },
          [&](int c) {
            if (c == fail_compute) throw std::runtime_error("decode died");
          }),
      std::runtime_error);
  returned.store(true);
  const int at_return = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), at_return) << "a hop ran after the call returned";
  EXPECT_EQ(late.load(), 0);
  EXPECT_LT(at_return, chunks * layout.hops)
      << "the error did not stop the chains";
}

TEST(StagedPipelineChain, HopErrorPropagatesAndDrains) {
  expect_chain_error_drains(8, {4}, /*fail_hop=*/2, /*fail_compute=*/-1);
  expect_chain_error_drains(3, {8}, /*fail_hop=*/5, /*fail_compute=*/-1);
  // A hop of every chain fails in turn: the others drain too.
  for (const auto& chain_hops : kChainLayouts) {
    const ChainLayout layout(chain_hops);
    for (const int h : layout.last) {
      expect_chain_error_drains(8, chain_hops, /*fail_hop=*/h,
                                /*fail_compute=*/-1);
    }
  }
}

TEST(StagedPipelineChain, ComputeErrorPropagatesAndDrains) {
  expect_chain_error_drains(8, {4}, /*fail_hop=*/-1, /*fail_compute=*/1);
  expect_chain_error_drains(3, {8}, /*fail_hop=*/-1, /*fail_compute=*/0);
  for (const auto& chain_hops : kChainLayouts) {
    expect_chain_error_drains(8, chain_hops, /*fail_hop=*/-1,
                              /*fail_compute=*/1);
  }
}

// Runs `work` on its own thread.  A deadlocked thread cannot be joined, so
// missing the deadline fails the test and aborts the process.
void finish_within(std::chrono::seconds deadline,
                   const std::function<void()>& work) {
  std::atomic<bool> done{false};
  std::thread runner([&] {
    work();
    done.store(true);
  });
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!done.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!done.load()) {
    ADD_FAILURE() << "deadlocked: not finished within " << deadline.count()
                  << " s";
    std::abort();
  }
  runner.join();
}

TEST(StagedPipelineChain, WaitingHopsHoldNoGateSlot) {
  // Fan-out lanes parked in fetch hold all but two gate slots.  In p
  // three-hop chains of three chunks, chain 0's chunk 1 move over hop 0
  // then stalls, holding one slot, until chunk 0 has crossed chain 0's hop
  // 2: chunk 0's last two moves must get by on the one remaining slot while
  // the other chains' moves compete for it and chunk 2 waits for chunk 1.
  // Chains whose waiting tasks held slots would deadlock here whenever a
  // waiter took that slot first; ManyConcurrentChainsFinish, whose waiting
  // tasks outnumber the slots, catches that every time.
  constexpr int kParked = StagedPipeline::kMaxActiveLanes - 2;
  for (const int p : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(p) + " chains");
    std::mutex mu;
    std::condition_variable cv;
    int parked = 0;
    bool release = false;
    bool hop2_moved_chunk0 = false;
    std::thread blocker([&] {
      StagedPipeline::run_fanout(
          1, kParked,
          [&](int, int) {
            std::unique_lock<std::mutex> lock(mu);
            ++parked;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
          },
          [](int) {});
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return parked == kParked; });
    }
    int computed = 0;
    finish_within(std::chrono::seconds(30), [&] {
      StagedPipeline::run_chain(
          3, std::vector<int>(static_cast<size_t>(p), 3),
          [&](int h, int c) {
            std::unique_lock<std::mutex> lock(mu);
            if (h == 0 && c == 1) {
              cv.wait(lock, [&] { return hop2_moved_chunk0; });
            }
            if (h == 2 && c == 0) {
              hop2_moved_chunk0 = true;
              cv.notify_all();
            }
          },
          [&](int) { ++computed; });
    });
    EXPECT_EQ(computed, 3);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    blocker.join();
  }
}

TEST(StagedPipelineChain, ManyConcurrentChainsFinish) {
  // 50 concurrent calls of ten hops each, as one chain, two or three
  // parallel ones, half of them 12 chunks long and half 4, put about 800
  // tasks (one per chain and chunk) in flight against the kMaxActiveLanes
  // (64) gate slots; every call must finish and move every chunk through
  // every hop.  Were a task to keep a slot while it waits for the chunk
  // ahead, waiting tasks would fill every slot and the chains would stall.
  constexpr int kCalls = 50, kHops = 10;
  static_assert(kCalls * kHops > StagedPipeline::kMaxActiveLanes);
  const std::vector<std::vector<int>> layouts = {{10}, {5, 5}, {4, 3, 3}};
  std::atomic<int> wrong{0};
  finish_within(std::chrono::seconds(60), [&] {
    std::vector<std::thread> callers;
    for (int i = 0; i < kCalls; ++i) {
      callers.emplace_back([&, i] {
        const int chunks = i % 2 == 0 ? 12 : 4;
        std::atomic<int> hop_calls{0};
        int computed = 0;
        StagedPipeline::run_chain(
            chunks, layouts[static_cast<size_t>(i % 3)],
            [&](int, int) {
              hop_calls.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            },
            [&](int) { ++computed; });
        if (hop_calls.load() != chunks * kHops || computed != chunks) {
          wrong.fetch_add(1);
        }
      });
    }
    for (auto& t : callers) t.join();
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST(WorkerPool, DataPathOperationsReuseSharedThreads) {
  // Writes (replication hops), encodes (fetch/upload stages) and degraded
  // reads (helper-chain tasks for RS, fan-out lanes for Clay's sub-block
  // plan) all run on the shared pool: after a warm-up, 200 more operations
  // spawn no thread, and every degraded read executes its chain or its
  // lanes on pool tasks.
  for (const auto family :
       {erasure::CodecFamily::kRS, erasure::CodecFamily::kClay}) {
    SCOPED_TRACE(erasure::family_name(family));
    cfs::CfsConfig cfg;
    cfg.racks = 8;
    cfg.nodes_per_rack = 2;
    cfg.placement.code = CodeParams{6, 4};
    cfg.placement.replication = 3;
    cfg.placement.c = 1;
    cfg.use_ear = true;
    cfg.block_size = 320_KB;  // two pipeline chunks of at most 256 KiB
    cfg.seed = 5;
    cfg.codec_family = family;
    const int k = cfg.placement.code.k;
    const Topology topo(cfg.racks, cfg.nodes_per_rack);
    cfs::MiniCfs cluster(
        cfg, std::make_unique<cfs::InstantTransport>(topo, 256_KB));
    Rng rng(9);
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
    std::map<BlockId, std::vector<uint8_t>> warmup_blocks;
    std::set<StripeId> encoded;

    // Writes until a stripe seals, then encodes it.  Returns the stripe and
    // the number of operations run.
    const auto write_and_encode_stripe = [&](bool record) {
      int ops = 0;
      while (true) {
        for (const StripeId s : cluster.sealed_stripes()) {
          if (encoded.insert(s).second) {
            cluster.encode_stripe(s);
            return std::make_pair(s, ops + 1);
          }
        }
        for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
        const BlockId id = cluster.write_block(data);
        if (record) warmup_blocks[id] = data;
        ++ops;
      }
    };

    // Warm-up: one stripe to read from, its first data block's holder dead.
    const cfs::StripeMeta meta =
        cluster.stripe_meta(write_and_encode_stripe(true).first);
    const BlockId victim = meta.data_blocks[0];
    const std::vector<uint8_t> original = warmup_blocks.at(victim);
    warmup_blocks.clear();
    const NodeId holder = cluster.block_locations(victim)[0];
    cluster.kill_node(holder);
    const NodeId reader = (holder + 1) % topo.node_count();
    ASSERT_EQ(cluster.read_block(victim, reader), original);
    // Park more threads than one operation can occupy, so a thread still
    // returning from the previous operation never forces a spawn.
    {
      constexpr int kParked = 24;
      std::mutex mu;
      std::condition_variable cv;
      int started = 0;
      TaskGroup group(WorkerPool::shared());
      for (int i = 0; i < kParked; ++i) {
        group.submit([&] {
          std::unique_lock<std::mutex> lock(mu);
          ++started;
          cv.notify_all();
          cv.wait(lock, [&] { return started == kParked; });
        });
      }
    }

    const int threads_before = WorkerPool::shared().thread_count();
    const int64_t tasks_before = WorkerPool::shared().tasks_executed();
    int ops = 0;
    int degraded_reads = 0;
    while (ops < 200) {
      ops += write_and_encode_stripe(false).second;
      for (int r = 0; r < 5; ++r) {
        EXPECT_EQ(cluster.read_block(victim, reader), original);
        ++degraded_reads;
        ++ops;
      }
    }
    EXPECT_EQ(WorkerPool::shared().thread_count(), threads_before);
    // RS: the k-hop chain over two chunks runs on at least two pool tasks.
    // Clay (sub-block chunks of 40 KiB, one pipeline chunk): one fan-out
    // lane per helper, n - 1 of them.
    const int per_read = family == erasure::CodecFamily::kRS
                             ? std::min(k, 2)
                             : cfg.placement.code.n - 1;
    EXPECT_GE(WorkerPool::shared().tasks_executed() - tasks_before,
              static_cast<int64_t>(degraded_reads) * per_read);
  }
}

// ------------------------------------------- end-to-end chunked equivalence

cfs::CfsConfig equivalence_config() {
  cfs::CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 64_KB;
  cfg.seed = 11;
  return cfg;
}

// Builds a cluster, writes until one stripe seals, encodes it.
// `preferred_chunk` = 0 drives the one-shot path; a divisor-unaligned chunk
// drives the staged chunked path with a short tail window.
std::unique_ptr<cfs::MiniCfs> encoded_cluster(
    const cfs::CfsConfig& cfg, Bytes preferred_chunk,
    std::map<BlockId, std::vector<uint8_t>>* originals = nullptr,
    StripeId* encoded_stripe = nullptr) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo, preferred_chunk));
  Rng rng(7);
  while (cfs->sealed_stripes().empty()) {
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
    for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cfs->write_block(data);
    if (originals) (*originals)[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  if (encoded_stripe) *encoded_stripe = stripe;
  return cfs;
}

TEST(ChunkedDataPath, ParityByteIdenticalToOneShot) {
  const auto cfg = equivalence_config();
  // 24 KB does not divide the 64 KB block: exercises the tail window.
  StripeId stripe_a = kInvalidStripe;
  StripeId stripe_b = kInvalidStripe;
  auto one_shot = encoded_cluster(cfg, 0, nullptr, &stripe_a);
  auto chunked = encoded_cluster(cfg, 24_KB, nullptr, &stripe_b);

  ASSERT_EQ(stripe_a, stripe_b);  // same seed, same write sequence
  const cfs::StripeMeta a = one_shot->stripe_meta(stripe_a);
  const cfs::StripeMeta b = chunked->stripe_meta(stripe_b);
  ASSERT_EQ(a.parity_blocks.size(), b.parity_blocks.size());
  for (size_t j = 0; j < a.parity_blocks.size(); ++j) {
    EXPECT_EQ(one_shot->read_block(a.parity_blocks[j], 0),
              chunked->read_block(b.parity_blocks[j], 0))
        << "parity " << j << " differs between one-shot and chunked encode";
  }
}

TEST(ChunkedDataPath, DegradedReadByteIdenticalToOneShot) {
  const auto cfg = equivalence_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto chunked = encoded_cluster(cfg, 24_KB, &originals, &stripe);

  const cfs::StripeMeta meta = chunked->stripe_meta(stripe);
  const BlockId victim = meta.data_blocks[0];
  const NodeId holder = chunked->block_locations(victim)[0];
  chunked->kill_node(holder);
  const NodeId reader =
      (holder + 1) % chunked->topology().node_count();
  // Chunked reconstruction must reproduce the original bytes exactly.
  EXPECT_EQ(chunked->read_block(victim, reader), originals.at(victim));
}

TEST(ChunkedDataPath, RaidNodeJobMatchesAcrossChunking) {
  // Same seed, same writes; encode via RaidNode on the shared pool with and
  // without chunking — every data block must stay byte-identical.
  const auto cfg = equivalence_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto one_shot = encoded_cluster(cfg, 0, &originals, &stripe);
  std::map<BlockId, std::vector<uint8_t>> originals_chunked;
  auto chunked = encoded_cluster(cfg, 16_KB, &originals_chunked);

  const cfs::StripeMeta a = one_shot->stripe_meta(stripe);
  for (const BlockId blk : a.data_blocks) {
    EXPECT_EQ(one_shot->read_block(blk, 0), originals.at(blk));
    EXPECT_EQ(chunked->read_block(blk, 0), originals_chunked.at(blk));
  }
}

// -------------------------------------------------- zero-copy write path

TEST(ZeroCopyWritePath, OneCopyPerBlockNotPerReplica) {
  obs::Config ocfg;
  ocfg.metrics = true;
  obs::init(ocfg);
  obs::Registry::instance().reset_values();
  auto& ctr = obs::Registry::instance().counter("datapath.bytes_copied");

  const auto cfg = equivalence_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));
  std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size), 0xab);
  const BlockId id = cfs->write_block(data);
  // r = 3 replicas share ONE physical copy of the caller's buffer.
  EXPECT_EQ(ctr.value(), cfg.block_size);
  // A replica read shares the stored buffer: still no new copy.
  EXPECT_EQ(cfs->read_block(id, 0), data);
  EXPECT_EQ(ctr.value(), cfg.block_size);
  obs::shutdown();
}

// ---------------------------------------------------- set_transport contract

// Transport whose transfers block until released; lets the test hold a
// write in flight deterministically.
class GateTransport final : public cfs::Transport {
 public:
  void transfer(NodeId, NodeId, Bytes) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  int64_t cross_rack_bytes() const override { return 0; }
  int64_t intra_rack_bytes() const override { return 0; }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TEST(SetTransport, ThrowsWhileDataMovementInFlight) {
  const auto cfg = equivalence_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto gate = std::make_unique<GateTransport>();
  GateTransport* gate_ptr = gate.get();
  cfs::MiniCfs cluster(cfg, std::move(gate));

  std::thread writer([&] {
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size), 1);
    cluster.write_block(data);
  });
  gate_ptr->wait_entered();  // the write is now blocked inside the transport
  EXPECT_THROW(
      cluster.set_transport(std::make_unique<cfs::InstantTransport>(topo)),
      std::logic_error);
  gate_ptr->open();
  writer.join();
  // Quiesced: the swap now succeeds, and the cluster keeps working.
  cluster.set_transport(std::make_unique<cfs::InstantTransport>(topo));
  std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size), 2);
  const BlockId id = cluster.write_block(data);
  EXPECT_EQ(cluster.read_block(id, 0), data);
}

// ------------------------------------------- encode waits for write commits

// Every location, stripe position and stripe row of a namespace snapshot,
// flattened for equality checks.
std::string describe(const cfs::NamespaceSnapshot& snap) {
  std::string out;
  for (const auto& [block, status] : snap.blocks) {
    out += "b" + std::to_string(block) + "@" + std::to_string(status.stripe) +
           "." + std::to_string(status.position) + ":";
    for (const NodeId n : status.locations) out += std::to_string(n) + ",";
    out += status.encoded ? "E;" : ";";
  }
  for (const auto& [id, meta] : snap.stripes) {
    out += "s" + std::to_string(id) + ":";
    for (const BlockId b : meta.data_blocks) out += std::to_string(b) + ",";
    out += "|";
    for (const BlockId b : meta.parity_blocks) out += std::to_string(b) + ",";
    out += meta.encoded ? "E;" : ";";
  }
  return out;
}

// A stripe seals when its k blocks are placed; its last write may still be
// on the wire.  Encoding it then must refuse before touching anything, and
// succeed once the write commits.
TEST(EncodeStripe, RefusesUntilEveryWriteCommits) {
  const auto cfg = equivalence_config();
  const int k = cfg.placement.code.k;
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::MiniCfs cluster(cfg, std::make_unique<cfs::InstantTransport>(topo));
  // One writer node: every block shares its core rack, so the k-th seals.
  std::map<BlockId, std::vector<uint8_t>> originals;
  for (int i = 0; i + 1 < k; ++i) {
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size),
                              static_cast<uint8_t>(i + 1));
    originals[cluster.write_block(data, NodeId{0})] = std::move(data);
  }
  ASSERT_TRUE(cluster.sealed_stripes().empty());

  auto gate = std::make_unique<GateTransport>();
  GateTransport* gate_ptr = gate.get();
  cluster.set_transport(std::move(gate));
  const std::vector<uint8_t> last(static_cast<size_t>(cfg.block_size), 0xee);
  BlockId last_id = kInvalidBlock;
  std::thread writer([&] { last_id = cluster.write_block(last, NodeId{0}); });
  gate_ptr->wait_entered();  // placed (the stripe sealed), not yet stored
  const std::vector<StripeId> sealed = cluster.sealed_stripes();
  if (sealed.size() != 1) {
    gate_ptr->open();
    writer.join();
    FAIL() << sealed.size() << " sealed stripes, expected 1";
  }
  const StripeId stripe = sealed[0];

  const std::string before = describe(cluster.namespace_snapshot());
  const auto stored_before = cluster.export_image().node_blocks;
  const int64_t downloads_before = cluster.encode_cross_rack_downloads();
  try {
    cluster.encode_stripe(stripe);
    ADD_FAILURE() << "encode of a stripe with a write in flight succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("has not committed"),
              std::string::npos)
        << e.what();
  } catch (...) {
    ADD_FAILURE() << "encode refused with a non-runtime_error exception";
  }
  EXPECT_EQ(describe(cluster.namespace_snapshot()), before);
  EXPECT_EQ(cluster.export_image().node_blocks, stored_before);
  EXPECT_EQ(cluster.encode_cross_rack_downloads(), downloads_before);
  EXPECT_FALSE(cluster.is_encoded(stripe));

  gate_ptr->open();
  writer.join();
  originals[last_id] = last;
  cluster.encode_stripe(stripe);
  EXPECT_TRUE(cluster.is_encoded(stripe));
  const cfs::StripeMeta meta = cluster.stripe_meta(stripe);
  ASSERT_EQ(meta.data_blocks.size(), static_cast<size_t>(k));
  for (const BlockId b : meta.data_blocks) {
    EXPECT_EQ(cluster.block_locations(b).size(), 1u);
    EXPECT_EQ(cluster.read_block(b, 0), originals.at(b));
  }
}

}  // namespace
}  // namespace ear
