#include "failure/repair.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

#include "datapath/worker_pool.h"
#include "obs/trace.h"
#include "qos/qos.h"

namespace ear::failure {

using Clock = std::chrono::steady_clock;


RepairManager::RepairManager(cfs::MiniCfs& cfs, const RepairConfig& config)
    : cfs_(&cfs),
      config_(config),
      gauge_queue_depth_(
          &obs::Registry::instance().gauge("repair.queue_depth")),
      ctr_repaired_(&obs::Registry::instance().counter("repair.blocks_repaired")),
      ctr_adopted_(&obs::Registry::instance().counter("repair.blocks_adopted")),
      ctr_re_replicated_(
          &obs::Registry::instance().counter("repair.blocks_re_replicated")),
      ctr_unrecoverable_(
          &obs::Registry::instance().counter("repair.blocks_unrecoverable")),
      ctr_retries_(&obs::Registry::instance().counter("repair.retries")),
      ctr_bytes_(&obs::Registry::instance().counter("repair.bytes_moved")) {
  // Allow a burst of a few blocks, full at the start, so single repairs
  // never stall at startup.
  if (config_.repair_bandwidth > 0) {
    budget_.emplace(config_.repair_bandwidth,
                    static_cast<double>(cfs_->config().block_size) * 4,
                    Clock::now());
  }
}

RepairManager::~RepairManager() { stop(); }

// ------------------------------------------------------------- scheduling

int RepairManager::compute_priority(const cfs::BlockStatus& status,
                                    const cfs::NamespaceSnapshot& snap) const {
  int live = 0;
  for (const NodeId n : status.locations) {
    if (cfs_->node_alive(n)) ++live;
  }
  const int target =
      status.encoded ? 1 : cfs_->config().placement.replication;
  if (live >= target) return -1;  // healthy
  if (live == 0 && status.encoded) {
    // Lost block of an encoded stripe: urgency is how many more failures the
    // stripe tolerates before dropping below k live blocks.
    const auto meta = snap.stripes.find(status.stripe);
    if (meta == snap.stripes.end()) return 0;
    std::vector<BlockId> siblings = meta->second.data_blocks;
    siblings.insert(siblings.end(), meta->second.parity_blocks.begin(),
                    meta->second.parity_blocks.end());
    int live_blocks = 0;
    for (const BlockId sibling : siblings) {
      const auto it = snap.blocks.find(sibling);
      if (it == snap.blocks.end()) continue;
      for (const NodeId n : it->second.locations) {
        if (cfs_->node_alive(n)) {
          ++live_blocks;
          break;
        }
      }
    }
    return std::max(0, live_blocks - cfs_->config().placement.code.k);
  }
  // Replicated (or partially live): one more failure than (live - 1) loses
  // the block.
  return std::max(0, live - 1);
}

void RepairManager::push_task(Task task) {
  if (queued_.emplace(task.block, task.priority).second) {
    queue_.emplace(task.priority, task.block);
  }
  attempts_[task.block] = task.attempts;
  gauge_queue_depth_->set(static_cast<double>(queue_.size()));
}

bool RepairManager::pop_task(Task* task) {
  if (queue_.empty()) return false;
  const auto it = queue_.begin();
  task->priority = it->first;
  task->block = it->second;
  queue_.erase(it);
  queued_.erase(task->block);
  const auto at = attempts_.find(task->block);
  task->attempts = at == attempts_.end() ? 0 : at->second;
  attempts_.erase(task->block);
  gauge_queue_depth_->set(static_cast<double>(queue_.size()));
  return true;
}

int RepairManager::enqueue_snapshot(
    const cfs::NamespaceSnapshot& snap,
    const std::function<bool(const cfs::BlockStatus&)>& filter) {
  int enqueued = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [block, status] : snap.blocks) {
    if (filter && !filter(status)) continue;
    const int priority = compute_priority(status, snap);
    if (priority < 0) continue;
    if (queued_.count(block)) continue;
    push_task({priority, block, 0});
    ++enqueued;
  }
  if (enqueued > 0) pump_locked();
  return enqueued;
}

int RepairManager::schedule_scan() {
  return enqueue_snapshot(cfs_->namespace_snapshot(), nullptr);
}

int RepairManager::schedule_node(NodeId node) {
  return enqueue_snapshot(
      cfs_->namespace_snapshot(), [node](const cfs::BlockStatus& status) {
        return std::find(status.locations.begin(), status.locations.end(),
                         node) != status.locations.end();
      });
}

int RepairManager::schedule_rack(RackId rack) {
  const Topology& topo = cfs_->topology();
  return enqueue_snapshot(
      cfs_->namespace_snapshot(),
      [&topo, rack](const cfs::BlockStatus& status) {
        for (const NodeId n : status.locations) {
          if (topo.rack_of(n) == rack) return true;
        }
        return false;
      });
}

// -------------------------------------------------------------- execution

void RepairManager::throttle(Bytes bytes, bool live_mode) {
  // When the transport schedules with QoS, the repair budget is enforced
  // there as the kRepair class rate — metering here too would throttle the
  // same bytes twice.
  if (!budget_ || cfs_->transport().qos_enabled()) return;
  double wait_s = 0;
  {
    std::lock_guard<std::mutex> lock(throttle_mu_);
    budget_->refill(Clock::now());
    // Charge first, then sleep the debt off: the wait itself repays it, so
    // the next refill starts from zero instead of refilling the slept
    // seconds a second time.
    budget_->charge(static_cast<double>(bytes));
    wait_s = budget_->seconds_until(0);
  }
  // drain() never sleeps: synchronous mode stays deterministic; the bucket
  // still meters so live workers resuming later inherit the debt.
  if (live_mode && wait_s > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
  }
}

RepairManager::Outcome RepairManager::attempt(const Task& task,
                                              bool live_mode) {
  // Everything a repair task moves — decode fetches, re-replication copies —
  // is repair traffic of the system tenant, whichever pool thread runs it.
  qos::QosScope qscope(qos::TrafficClass::kRepair, 0);
  const BlockId block = task.block;
  obs::Span span("repair.task", "failure");
  span.arg("block", block);
  span.arg("priority", task.priority);

  const std::vector<NodeId> locs = cfs_->block_locations(block);
  const bool encoded = cfs_->is_block_encoded(block);
  // An encoded block with no location left is lost, not deleted: a restart
  // that lost its only copy pruned it.  It is decoded below.
  if (locs.empty() && !encoded) return Outcome::kNoop;  // deleted or unknown
  std::vector<NodeId> live;
  for (const NodeId n : locs) {
    if (cfs_->node_alive(n)) live.push_back(n);
  }
  const int target = encoded ? 1 : cfs_->config().placement.replication;
  if (static_cast<int>(live.size()) >= target) return Outcome::kNoop;

  const Bytes block_size = cfs_->config().block_size;
  if (live.empty()) {
    if (!encoded) return Outcome::kRetry;  // only a revival can save it
    const NodeId dst =
        cfs_->pick_repair_target({}, cfs_->live_stripe_nodes(block));
    if (dst == kInvalidNode) return Outcome::kRetry;
    // Per-codec repair traffic: the codec's cheapest plan for the live
    // helper set (sub-block ranges for Clay/Hitchhiker, a local group for
    // LRC) — k full blocks only when no plan exists.  Scalar RS resolves
    // to exactly the old block_size * k model.
    const Bytes moved = cfs_->planned_repair_bytes(block);
    throttle(moved, live_mode);
    try {
      cfs_->repair_block(block, dst);
    } catch (const std::runtime_error&) {
      return Outcome::kRetry;
    }
    ctr_repaired_->add();
    ctr_bytes_->add(moved);
    std::lock_guard<std::mutex> lock(mu_);
    ++report_.repaired;
    report_.bytes_moved += moved;
    return Outcome::kDone;
  }

  // Under-replicated: add copies until the target, avoiding used racks.
  // A lost copy the stripe's pending encode relies on (under EAR: the
  // block's core-rack copy, or one the kept-replica matching needs) goes
  // back to its own rack while that rack has a live node to take it.
  std::vector<NodeId> lost;
  for (const NodeId n : locs) {
    if (!cfs_->node_alive(n)) lost.push_back(n);
  }
  for (size_t copy = 0; static_cast<int>(live.size()) < target; ++copy) {
    const RackId home = copy < lost.size()
                            ? cfs_->restore_rack(block, lost[copy])
                            : kInvalidRack;
    const NodeId dst = cfs_->pick_repair_target(live, {}, home);
    if (dst == kInvalidNode) return Outcome::kRetry;
    throttle(block_size, live_mode);
    try {
      cfs_->replicate_block(block, dst);
    } catch (const std::runtime_error&) {
      return Outcome::kRetry;
    }
    live.push_back(dst);
    ctr_re_replicated_->add();
    ctr_bytes_->add(block_size);
    std::lock_guard<std::mutex> lock(mu_);
    ++report_.re_replicated;
    report_.bytes_moved += block_size;
  }
  return Outcome::kDone;
}

void RepairManager::on_rebuilt(BlockId block, NodeId holder,
                               const datapath::BlockBuffer& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_ || stop_) return;
  // Only a queued task is swapped; one already in flight runs its own
  // reconstruction.
  const auto it = queued_.find(block);
  if (it == queued_.end()) return;
  Task task{it->second, block, 0};
  queue_.erase({task.priority, block});
  queued_.erase(it);
  const auto at = attempts_.find(block);
  if (at != attempts_.end()) {
    task.attempts = at->second;
    attempts_.erase(at);
  }
  gauge_queue_depth_->set(static_cast<double>(queue_.size()));
  adoptions_.push_back({task, holder, bytes});
  pump_locked();
}

RepairManager::Outcome RepairManager::adopt(const Adoption& adoption) {
  qos::QosScope qscope(qos::TrafficClass::kRepair, 0);
  const BlockId block = adoption.task.block;
  obs::Span span("repair.adopt", "failure");
  span.arg("block", block);
  span.arg("holder", adoption.holder);

  // The target a repair of this block would draw; the holder stands in for
  // it when both sit in the same tier, and then no byte moves.
  const std::set<NodeId> holders = cfs_->live_stripe_nodes(block);
  NodeId dst = cfs_->pick_repair_target({}, holders);
  if (dst == kInvalidNode || !cfs_->node_alive(adoption.holder)) {
    return Outcome::kRequeue;
  }
  if (cfs_->target_tier(adoption.holder, holders) ==
      cfs_->target_tier(dst, holders)) {
    dst = adoption.holder;
  }
  const Bytes moved =
      dst == adoption.holder ? 0 : cfs_->config().block_size;
  throttle(moved, /*live_mode=*/true);
  try {
    if (!cfs_->adopt_block(block, adoption.holder, dst, adoption.bytes)) {
      return Outcome::kNoop;
    }
  } catch (const std::runtime_error&) {
    return Outcome::kRequeue;
  }
  ctr_repaired_->add();
  ctr_adopted_->add();
  ctr_bytes_->add(moved);
  std::lock_guard<std::mutex> lock(mu_);
  ++report_.repaired;
  ++report_.adopted;
  report_.bytes_moved += moved;
  return Outcome::kDone;
}

void RepairManager::finish(const Task& task, Outcome outcome,
                           bool live_mode) {
  switch (outcome) {
    case Outcome::kDone:
      return;
    case Outcome::kRequeue: {
      std::lock_guard<std::mutex> lock(mu_);
      push_task(task);
      return;
    }
    case Outcome::kNoop: {
      std::lock_guard<std::mutex> lock(mu_);
      ++report_.noop;
      return;
    }
    case Outcome::kUnrecoverable:
      break;
    case Outcome::kRetry: {
      if (task.attempts + 1 < config_.max_attempts) {
        if (live_mode) {
          // Exponential backoff, interruptible by stop().
          const Seconds backoff =
              config_.retry_backoff * static_cast<double>(1 << task.attempts);
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait_for(lock, std::chrono::duration<double>(backoff),
                       [this] { return stop_; });
          if (stop_) return;
          ++report_.retries;
          push_task({task.priority, task.block, task.attempts + 1});
          cv_.notify_all();
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          ++report_.retries;
          push_task({task.priority, task.block, task.attempts + 1});
        }
        ctr_retries_->add();
        return;
      }
      break;
    }
  }
  ctr_unrecoverable_->add();
  std::lock_guard<std::mutex> lock(mu_);
  ++report_.unrecoverable;
}

void RepairManager::pump_locked() {
  if (!running_ || stop_) return;
  const int wanted = std::min<int>(
      config_.workers, static_cast<int>(queue_.size() + adoptions_.size()));
  while (drainers_ < wanted) {
    ++drainers_;
    datapath::WorkerPool::shared().submit([this] { drainer_loop(); });
  }
}

// A drainer services the queue until it runs dry, then exits (pump_locked
// re-submits one when new work arrives).  It must not throw — it runs as a
// shared-pool task.  Besides the transport and its own retry backoff it
// waits only on tasks its repairs submit (degraded-read chain tasks and
// fan-out lanes), which the pool's spawn rule always gives a thread.
void RepairManager::drainer_loop() {
  while (true) {
    Task task;
    std::optional<Adoption> adoption;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stop_ && running_ && !adoptions_.empty()) {
        adoption = std::move(adoptions_.front());
        adoptions_.pop_front();
        task = adoption->task;
      } else if (stop_ || !running_ || !pop_task(&task)) {
        --drainers_;
        if (drainers_ == 0) idle_cv_.notify_all();
        return;
      }
      ++active_;
    }
    if (config_.on_task) config_.on_task(task.block, task.priority);
    const Outcome outcome =
        adoption ? adopt(*adoption) : attempt(task, /*live_mode=*/true);
    finish(task, outcome, /*live_mode=*/true);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (idle_locked()) idle_cv_.notify_all();
    }
  }
}

bool RepairManager::idle_locked() const {
  return queue_.empty() && adoptions_.empty() && active_ == 0;
}

void RepairManager::start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
    running_ = true;
    pump_locked();
  }
  cfs_->set_rebuild_listener(
      [this](BlockId block, NodeId holder, const datapath::BlockBuffer& bytes) {
        on_rebuilt(block, holder, bytes);
      });
  listening_ = true;
}

void RepairManager::stop() {
  // Cleared before taking mu_: a running callback holds the listener slot
  // while it waits for mu_.
  if (listening_) {
    cfs_->set_rebuild_listener(nullptr);
    listening_ = false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;  // stays set until the next start(); wait_idle() unblocks
  running_ = false;
  cv_.notify_all();  // wake retry-backoff waits
  idle_cv_.notify_all();
  idle_cv_.wait(lock, [this] { return drainers_ == 0; });
  for (; !adoptions_.empty(); adoptions_.pop_front()) {
    push_task(adoptions_.front().task);
  }
}

void RepairManager::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return idle_locked() || stop_; });
}

RepairManager::Report RepairManager::drain() {
  const Report before = report();
  while (true) {
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!pop_task(&task)) break;
    }
    if (config_.on_task) config_.on_task(task.block, task.priority);
    const Outcome outcome = attempt(task, /*live_mode=*/false);
    finish(task, outcome, /*live_mode=*/false);
  }
  const Report after = report();
  Report delta;
  delta.re_replicated = after.re_replicated - before.re_replicated;
  delta.repaired = after.repaired - before.repaired;
  delta.adopted = after.adopted - before.adopted;
  delta.unrecoverable = after.unrecoverable - before.unrecoverable;
  delta.noop = after.noop - before.noop;
  delta.retries = after.retries - before.retries;
  delta.bytes_moved = after.bytes_moved - before.bytes_moved;
  return delta;
}

RepairManager::Report RepairManager::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

size_t RepairManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + adoptions_.size();
}

}  // namespace ear::failure
