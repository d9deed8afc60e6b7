#include "round.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "datapath/worker_pool.h"
#include "obs/obs.h"

namespace earbench {

using ear::cfs::MiniCfs;
using ear::cfs::NamespaceSnapshot;

ear::cfs::CfsConfig make_config(const ClusterSpec& spec, uint64_t seed) {
  ear::cfs::CfsConfig cfg;
  cfg.racks = spec.racks;
  cfg.nodes_per_rack = spec.nodes_per_rack;
  cfg.placement.code = ear::CodeParams{spec.n, spec.k};
  cfg.placement.replication = spec.replication;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = spec.block_size;
  cfg.cache_bytes = spec.cache_bytes;
  cfg.seed = seed;
  return cfg;
}

NodeId writer_for(const ear::Topology& topo, int k, uint64_t seq) {
  const uint64_t group = seq / static_cast<uint64_t>(k);
  const auto rack = static_cast<ear::RackId>(
      group % static_cast<uint64_t>(topo.rack_count()));
  const std::vector<NodeId> nodes = topo.nodes_in_rack(rack);
  return nodes[seq % nodes.size()];
}

NamespaceSnapshot timed_snapshot(const MiniCfs& cfs, Collector& col) {
  const auto t0 = Clock::now();
  NamespaceSnapshot snap = cfs.namespace_snapshot();
  col.snapshot_ms.add(seconds_since(t0) * 1e3);
  col.namespace_blocks = static_cast<int64_t>(snap.blocks.size());
  return snap;
}

int64_t blocks_below_target(const MiniCfs& cfs, int replication) {
  const NamespaceSnapshot snap = cfs.namespace_snapshot();
  int64_t below = 0;
  for (const auto& [block, status] : snap.blocks) {
    const auto live = std::count_if(
        status.locations.begin(), status.locations.end(),
        [&](NodeId n) { return cfs.node_alive(n); });
    if (live < (status.encoded ? 1 : replication)) ++below;
  }
  return below;
}

int64_t stored_bytes(const MiniCfs& cfs) {
  int64_t blocks = 0;
  for (NodeId n = 0; n < cfs.topology().node_count(); ++n) {
    blocks += cfs.blocks_stored_on(n);
  }
  return blocks * cfs.config().block_size;
}

int typical_failure_domain(const MiniCfs& cfs, const NamespaceSnapshot& snap,
                           bool by_rack, uint64_t seed) {
  const ear::Topology& topo = cfs.topology();
  std::vector<int> load(
      static_cast<size_t>(by_rack ? topo.rack_count() : topo.node_count()), 0);
  for (const auto& [block, status] : snap.blocks) {
    if (status.locations.size() != 1) continue;
    const NodeId n = status.locations.front();
    ++load[static_cast<size_t>(by_rack ? topo.rack_of(n) : n)];
  }
  double mean = 0;
  for (const int l : load) mean += l;
  mean /= static_cast<double>(load.size());
  std::vector<int> best;
  double best_gap = std::numeric_limits<double>::max();
  for (size_t i = 0; i < load.size(); ++i) {
    const double gap = std::abs(load[i] - mean);
    if (gap < best_gap - 1e-9) {
      best_gap = gap;
      best.clear();
    }
    if (std::abs(gap - best_gap) <= 1e-9) best.push_back(static_cast<int>(i));
  }
  ear::Rng rng(seed);
  return best[rng.index(best.size())];
}

std::function<void(BlockId, int)> RepairTimer::hook() {
  return [this](BlockId, int) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = open_.try_emplace(std::this_thread::get_id(), now);
    if (!fresh) {
      done_ms_.push_back(seconds_between(it->second, now) * 1e3);
      it->second = now;
    }
  };
}

void RepairTimer::close(Collector& col) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tid, start] : open_) {
    done_ms_.push_back(seconds_between(start, now) * 1e3);
  }
  open_.clear();
  col.repair_task_ms.add_all(done_ms_);
  done_ms_.clear();
}

int64_t restore_until_clean(MiniCfs& cfs, ear::failure::RepairManager& repair,
                            int replication) {
  int64_t below = 0;
  for (int pass = 0; pass < 8; ++pass) {
    repair.wait_idle();
    below = blocks_below_target(cfs, replication);
    if (below == 0 || repair.schedule_scan() == 0) break;
  }
  return below;
}

void harvest_repair(const ear::failure::RepairManager& repair,
                    int64_t below_target, Collector& col) {
  const auto r = repair.report();
  col.repair_repaired += r.repaired;
  col.repair_re_replicated += r.re_replicated;
  col.repair_retries += r.retries;
  col.repair_noop += r.noop;
  col.repair_unrecoverable += r.unrecoverable;
  col.repair_bytes_moved += r.bytes_moved;
  col.blocks_below_target += below_target;
  col.ops.attempt(OpKind::kRepair, r.repaired + r.re_replicated +
                                       r.unrecoverable + below_target);
  col.ops.fail(OpKind::kRepair, r.unrecoverable + below_target);
}

void harvest_cache(const MiniCfs& cfs, Collector& col) {
  if (const auto* cache = cfs.block_cache()) {
    col.cache_hits += cache->hits();
    col.cache_lookups += cache->hits() + cache->misses();
    col.cache_evictions += cache->evictions();
  }
}

void verify_stored(const MiniCfs& cfs, Payloads& payloads) {
  const ear::cfs::ClusterImage image = cfs.export_image();
  for (const auto& node : image.node_blocks) {
    for (const auto& [block, buf] : node) {
      if (payloads.known(block)) payloads.verify(block, buf.span());
    }
  }
}

void grow_worker_pool(int threads) {
  // Tasks that stay busy keep every spawned thread occupied, so each submit
  // finds no idle thread and spawns one.
  ear::datapath::TaskGroup group(ear::datapath::WorkerPool::shared());
  for (int i = 0; i < threads; ++i) {
    group.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
  }
  group.wait();
}

bool begin_round_tracing(const RunOptions& opts, int round) {
  const bool traced = opts.trace && round % 2 == 0;
  ear::obs::Config cfg;
  cfg.metrics = traced;
  ear::obs::init(cfg);
  return traced;
}

bool more_rounds(const RunOptions& opts, int rounds_done,
                 Clock::time_point run_start) {
  if (rounds_done == 0) return true;
  if (opts.smoke) return opts.trace && rounds_done < 2;
  // A traced run needs a traced and an untraced round for the overhead.
  if (opts.trace && rounds_done < 2) return true;
  return seconds_since(run_start) < opts.seconds;
}

}  // namespace earbench
