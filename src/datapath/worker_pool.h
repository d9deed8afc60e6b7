// Shared worker pool — the one source of data-path threads (see DESIGN.md
// "Data path").
//
// RaidNode map tasks, RepairManager drainers, staged-pipeline stages,
// degraded-read chain tasks and fan-out lanes, replication hops and
// inline-EC pushes all run here instead of on per-operation std::threads,
// so the data path pays for bytes and GF math, not for creating and joining
// thread stacks.
// Threads are spawned on demand and parked on a condition variable when
// idle; they are reused by every later operation and joined only when the
// pool is destroyed.
//
// Spawn rule: submit() spawns a thread whenever queued tasks outnumber idle
// threads, so every queued task has a thread that will run it without
// waiting for any running task to finish.  There is no thread cap — the
// pool's size follows the peak number of concurrent tasks, which the
// callers bound (TaskGroup map slots, repair workers, the LaneGate of
// fan-out lanes and chain hops).  Together these make it safe for a task to
// block on a task it submitted: pipeline stages, chain tasks and fan-out
// lanes may be nested inside a map task.
//
// Tasks must not throw: an escaping exception would terminate the process.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "qos/qos.h"

namespace ear::datapath {

class WorkerPool {
 public:
  // The process-wide pool every data-path component submits to.
  static WorkerPool& shared();

  WorkerPool() = default;
  ~WorkerPool();  // drains the queue, then joins every thread

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void submit(std::function<void()> fn);

  int thread_count() const;     // threads spawned so far
  int64_t tasks_executed() const;

 private:
  void worker_loop(int index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int idle_ = 0;
  int64_t executed_ = 0;
  bool stop_ = false;
};

// A batch of tasks on a pool and the latch its submitter waits on: at most
// `max_concurrency` of the group's tasks occupy pool threads at once (0 =
// unlimited); the rest wait in a local backlog.  Each task runs under the
// (class, tenant) QoS context that was current when it was submitted (see
// qos/qos.h).  wait() blocks until every submitted task has finished; the
// destructor waits too, so a group on the stack never outlives its tasks.
class TaskGroup {
 public:
  explicit TaskGroup(WorkerPool& pool, int max_concurrency = 0);
  ~TaskGroup();  // waits

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> fn);
  void wait();

 private:
  struct Task {
    std::function<void()> fn;
    qos::Captured qctx;
  };
  void run_one(Task task);

  WorkerPool* pool_;
  const int limit_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> backlog_;
  int running_ = 0;
  int pending_ = 0;  // running + backlog
};

}  // namespace ear::datapath
