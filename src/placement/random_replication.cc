#include "placement/random_replication.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "placement/replica_layout.h"

namespace ear {

RandomReplication::RandomReplication(const Topology& topo,
                                     const PlacementConfig& config,
                                     uint64_t seed)
    : topo_(&topo), config_(config), rng_(seed) {
  assert(topo.rack_count() >= 2);
  assert(config.replication >= 1);
}

BlockPlacement RandomReplication::place_block(BlockId block,
                                              std::optional<NodeId> writer) {
  // HDFS: first replica on the writing node when it is a DataNode, otherwise
  // a random node of a random rack.
  const NodeId first = writer.value_or(random_node(*topo_, rng_));

  BlockPlacement placement;
  placement.block = block;
  placement.replicas = draw_secondary_replicas(*topo_, config_, first, rng_);
  placement.iterations = 1;

  // Stripe assembly: arrival order, k blocks per stripe.
  if (open_stripe_ == kInvalidStripe) {
    StripeInfo info;
    info.id = next_stripe_id_++;
    open_stripe_ = info.id;
    stripes_.emplace(info.id, std::move(info));
  }
  StripeInfo& s = stripes_.at(open_stripe_);
  s.blocks.push_back(block);
  s.replicas.push_back(placement.replicas);
  placement.stripe = s.id;
  if (s.sealed(config_.code.k)) {
    sealed_.push_back(s.id);
    open_stripe_ = kInvalidStripe;
  }
  return placement;
}

std::vector<StripeId> RandomReplication::sealed_stripes() const {
  return sealed_;
}

const StripeInfo& RandomReplication::stripe(StripeId id) const {
  return stripes_.at(id);
}

EncodePlan RandomReplication::plan_encoding(
    StripeId id, const std::vector<std::vector<NodeId>>& replicas,
    const NodeDown& down) {
  const StripeInfo& s = stripes_.at(id);
  assert(s.sealed(config_.code.k));
  const int k = config_.code.k;
  const int m = config_.code.m();
  assert(static_cast<int>(replicas.size()) == k);
  const std::vector<std::vector<NodeId>> live = live_copies(replicas, down);

  EncodePlan plan;
  plan.stripe = id;
  // §II-A: "The CFS randomly selects a node to perform the encoding
  // operation for a stripe."  A down node is re-drawn.
  plan.encoder = draw_live_node(*topo_, kInvalidRack, down, rng_);
  if (plan.encoder == kInvalidNode) {
    throw std::runtime_error("RR: no live node to encode stripe " +
                             std::to_string(id));
  }
  plan.cross_rack_downloads =
      count_cross_rack_downloads(*topo_, plan.encoder, live);

  // Keep one live replica per data block.  HDFS-RAID retains the first
  // replica it finds; we keep a uniformly random one, which matches the
  // independence assumption of the paper's analysis (§II-B).  Nothing aligns
  // these picks, so the post-encode layout may violate rack-level fault
  // tolerance — that is RR's availability problem, detected later by
  // PlacementMonitor.
  std::vector<bool> node_used(static_cast<size_t>(topo_->node_count()), false);
  plan.kept.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto& copies = live[static_cast<size_t>(i)];
    if (copies.empty()) {
      throw std::runtime_error("RR: data block " + std::to_string(i) +
                               " of stripe " + std::to_string(id) +
                               " has no live copy");
    }
    // Prefer a replica on a node not already keeping another block of this
    // stripe (node-level fault tolerance), falling back to any replica.
    std::vector<NodeId> candidates;
    for (const NodeId n : copies) {
      if (!node_used[static_cast<size_t>(n)]) candidates.push_back(n);
    }
    const NodeId kept = candidates.empty()
                            ? copies[rng_.index(copies.size())]
                            : candidates[rng_.index(candidates.size())];
    node_used[static_cast<size_t>(kept)] = true;
    plan.kept.push_back(kept);
    for (const NodeId n : s.replicas[static_cast<size_t>(i)]) {
      if (n != kept) plan.deletions.emplace_back(i, n);
    }
  }

  // Parity blocks are written through the normal HDFS write path with
  // replication 1: random distinct live nodes not already holding stripe
  // blocks.
  const auto taken = [&](NodeId n) {
    return node_used[static_cast<size_t>(n)] || (down && down(n));
  };
  int free_nodes = 0;
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    if (!taken(n)) ++free_nodes;
  }
  if (free_nodes < m) {
    throw std::runtime_error("RR: fewer than m live nodes left for parity");
  }
  plan.parity.reserve(static_cast<size_t>(m));
  const RackId encoder_rack = topo_->rack_of(plan.encoder);
  for (int j = 0; j < m; ++j) {
    NodeId n;
    do {
      n = random_node(*topo_, rng_);
    } while (taken(n));
    node_used[static_cast<size_t>(n)] = true;
    plan.parity.push_back(n);
    if (topo_->rack_of(n) != encoder_rack) ++plan.cross_rack_parity_uploads;
  }
  return plan;
}

std::unique_ptr<PlacementPolicy> make_random_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed) {
  return std::make_unique<RandomReplication>(topo, config, seed);
}

}  // namespace ear
