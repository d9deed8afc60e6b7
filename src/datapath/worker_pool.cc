#include "datapath/worker_pool.h"

#include <string>
#include <utility>

#include "obs/trace.h"

namespace ear::datapath {

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    // Every queued task must have a thread that is free to take it: idle
    // threads count once each, so a burst larger than the idle count grows
    // the pool instead of queueing behind running (possibly blocked) tasks.
    if (static_cast<int>(queue_.size()) > idle_) {
      const int index = static_cast<int>(threads_.size());
      threads_.emplace_back([this, index] { worker_loop(index); });
    }
  }
  cv_.notify_one();
}

void WorkerPool::worker_loop(int index) {
  obs::set_current_thread_name("datapath-" + std::to_string(index));
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    ++idle_;
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    --idle_;
    if (queue_.empty()) return;  // stopping, and the queue is drained
    std::function<void()> fn = std::move(queue_.front());
    queue_.pop_front();
    ++executed_;
    lock.unlock();
    fn();
    lock.lock();
  }
}

int WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

int64_t WorkerPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

// ---------------------------------------------------------------- TaskGroup

TaskGroup::TaskGroup(WorkerPool& pool, int max_concurrency)
    : pool_(&pool), limit_(max_concurrency) {}

TaskGroup::~TaskGroup() { wait(); }

void TaskGroup::submit(std::function<void()> fn) {
  Task task{std::move(fn), qos::capture()};
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_;
  if (limit_ > 0 && running_ >= limit_) {
    backlog_.push_back(std::move(task));
    return;
  }
  ++running_;
  pool_->submit(
      [this, task = std::move(task)]() mutable { run_one(std::move(task)); });
}

void TaskGroup::run_one(Task task) {
  // Chain backlogged tasks onto this pool slot (keeps `running_` at the
  // limit and avoids re-queueing behind unrelated work).
  while (true) {
    {
      qos::InstallScope qscope(task.qctx);
      task.fn();
    }
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    if (backlog_.empty()) {
      --running_;
      // Notify while holding the lock: the waiter may destroy this group
      // (often a stack object) as soon as it sees pending_ == 0, and it
      // cannot see that before the lock is released.
      if (pending_ == 0) cv_.notify_all();
      return;
    }
    task = std::move(backlog_.front());
    backlog_.pop_front();
  }
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace ear::datapath
