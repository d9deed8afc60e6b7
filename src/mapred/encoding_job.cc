#include "mapred/encoding_job.h"

#include <utility>

#include "sim/encode_flow.h"

namespace ear::mapred {

EncodingJob::EncodingJob(sim::Engine& engine, sim::Network& network,
                         PlacementPolicy& policy,
                         const EncodingJobConfig& config)
    : engine_(&engine), network_(&network), policy_(&policy), config_(config),
      rng_(config.seed) {
  free_slots_.assign(static_cast<size_t>(policy.topology().node_count()),
                     config.map_slots_per_node);
}

void EncodingJob::submit(const std::vector<StripeId>& stripes) {
  started_ = engine_->now();
  report_.stripes = static_cast<int>(stripes.size());
  for (const StripeId id : stripes) {
    pending_.push_back(Task{id, policy_->plan_encoding(id)});
  }
  try_dispatch();
}

NodeId EncodingJob::choose_node(const Task& task) {
  const Topology& topo = policy_->topology();
  const StripeInfo& stripe = policy_->stripe(task.stripe);

  const auto free_in_rack = [&](RackId rack) -> NodeId {
    for (const NodeId n : topo.nodes_in_rack(rack)) {
      if (free_slots_[static_cast<size_t>(n)] > 0) return n;
    }
    return kInvalidNode;
  };

  switch (config_.locality) {
    case EncodingLocality::kStrict: {
      // The encoding-job flag: core rack or nothing (§IV-B, third
      // modification).  RR stripes have no core rack; fall back to the
      // preferred (plan) node's rack.
      const RackId rack = stripe.core_rack != kInvalidRack
                              ? stripe.core_rack
                              : topo.rack_of(task.plan.encoder);
      if (task.plan.encoder != kInvalidNode &&
          free_slots_[static_cast<size_t>(task.plan.encoder)] > 0 &&
          topo.rack_of(task.plan.encoder) == rack) {
        return task.plan.encoder;
      }
      return free_in_rack(rack);
    }
    case EncodingLocality::kPreferred: {
      // Best-effort: preferred node, its rack, then any free slot.
      if (free_slots_[static_cast<size_t>(task.plan.encoder)] > 0) {
        return task.plan.encoder;
      }
      const NodeId rack_local =
          free_in_rack(topo.rack_of(task.plan.encoder));
      if (rack_local != kInvalidNode) return rack_local;
      [[fallthrough]];
    }
    case EncodingLocality::kNone: {
      const int nodes = topo.node_count();
      const int start =
          static_cast<int>(rng_.uniform(static_cast<uint64_t>(nodes)));
      for (int off = 0; off < nodes; ++off) {
        const NodeId n = (start + off) % nodes;
        if (free_slots_[static_cast<size_t>(n)] > 0) return n;
      }
      return kInvalidNode;
    }
  }
  return kInvalidNode;
}

void EncodingJob::try_dispatch() {
  // Scan the queue; strict tasks whose core rack is busy are skipped (they
  // keep waiting) while later tasks may still dispatch.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const NodeId node = choose_node(*it);
    if (node == kInvalidNode) {
      ++it;
      continue;
    }
    Task task = std::move(*it);
    it = pending_.erase(it);
    --free_slots_[static_cast<size_t>(node)];
    ++running_;
    run_task(std::move(task), node);
  }
}

void EncodingJob::run_task(Task task, NodeId node) {
  const Topology& topo = policy_->topology();
  const StripeInfo& stripe = policy_->stripe(task.stripe);
  if (stripe.core_rack != kInvalidRack &&
      topo.rack_of(node) == stripe.core_rack) {
    ++report_.tasks_in_core_rack;
  } else {
    ++report_.tasks_elsewhere;
  }

  // Download one replica of each data block to `node` (local, then the
  // first same-rack copy, then a random one), upload the parity blocks.
  const RackId node_rack = topo.rack_of(node);
  std::vector<NodeId> sources;
  sources.reserve(stripe.replicas.size());
  for (const auto& replicas : stripe.replicas) {
    NodeId src = kInvalidNode;
    for (const NodeId r : replicas) {
      if (r == node) {
        src = r;
        break;
      }
    }
    if (src == kInvalidNode) {
      for (const NodeId r : replicas) {
        if (topo.rack_of(r) == node_rack) {
          src = r;
          break;
        }
      }
    }
    if (src == kInvalidNode) {
      src = replicas[rng_.index(replicas.size())];
      ++report_.cross_rack_downloads;
    }
    sources.push_back(src);
  }
  sim::EncodeFlow flow;
  flow.encoder = node;
  flow.gather = sim::direct_gather(sources, node);
  flow.parity = std::move(task.plan.parity);
  flow.block_size = config_.block_size;
  sim::run_encode_flow(*engine_, *network_, std::move(flow), [this, node] {
    ++free_slots_[static_cast<size_t>(node)];
    --running_;
    if (pending_.empty() && running_ == 0) {
      report_.duration = engine_->now() - started_;
    }
    try_dispatch();
  });
}

}  // namespace ear::mapred
