// The repair primitives failure::RepairManager drives (block-status
// introspection, target choice, re-replication) and cluster images.
#include <algorithm>
#include <set>

#include "cfs/minicfs.h"
#include "qos/qos.h"

namespace ear::cfs {

std::vector<BlockId> MiniCfs::all_blocks() const { return ns_.all_blocks(); }

bool MiniCfs::is_block_encoded(BlockId block) const {
  const auto pos = ns_.find_block_stripe(block);
  if (!pos) return false;
  return ns_.stripe_encoded(pos->first);
}

NamespaceSnapshot MiniCfs::namespace_snapshot() const {
  return ns_.snapshot();
}

MiniCfs::TargetTier MiniCfs::target_tier(
    NodeId node, const std::set<NodeId>& holders) const {
  if (holders.count(node)) return TargetTier::kHolder;
  const RackId rack = topo_.rack_of(node);
  return std::any_of(holders.begin(), holders.end(),
                     [&](NodeId h) { return topo_.rack_of(h) == rack; })
             ? TargetTier::kUsedRack
             : TargetTier::kFreeRack;
}

NodeId MiniCfs::pick_repair_target(const std::vector<NodeId>& exclude,
                                   const std::set<NodeId>& holders,
                                   RackId home) const {
  std::set<NodeId> all_holders = holders;
  all_holders.insert(exclude.begin(), exclude.end());
  std::vector<NodeId> in_home;
  std::vector<NodeId> tiers[3];
  for (NodeId n = 0; n < topo_.node_count(); ++n) {
    if (!node_alive_[static_cast<size_t>(n)]) continue;
    if (std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
      continue;
    }
    if (topo_.rack_of(n) == home) in_home.push_back(n);
    tiers[static_cast<int>(target_tier(n, all_holders))].push_back(n);
  }
  std::lock_guard<std::mutex> lock(rng_mu_);
  if (!in_home.empty()) return in_home[rng_.index(in_home.size())];
  for (const std::vector<NodeId>& pool : tiers) {
    if (!pool.empty()) return pool[rng_.index(pool.size())];
  }
  return kInvalidNode;
}

RackId MiniCfs::restore_rack(BlockId block, NodeId lost) const {
  const auto pos = ns_.find_block_stripe(block);
  if (!pos || ns_.stripe_encoded(pos->first)) return kInvalidRack;
  std::vector<BlockId> placed;
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    placed = policy_->stripe(pos->first).blocks;
  }
  // A placed block whose write has not committed is listed nowhere yet.
  std::vector<std::vector<NodeId>> live;
  live.reserve(placed.size());
  for (const BlockId b : placed) {
    live.push_back(ns_.find_locations(b).value_or(std::vector<NodeId>{}));
    std::erase_if(live.back(), [this](NodeId n) {
      return !node_alive_[static_cast<size_t>(n)];
    });
  }
  std::lock_guard<std::mutex> lock(policy_mu_);
  return policy_->restore_rack(pos->first, pos->second, lost, live);
}

std::set<NodeId> MiniCfs::live_stripe_nodes(BlockId block) const {
  std::set<NodeId> nodes;
  const auto pos = ns_.find_block_stripe(block);
  if (!pos) return nodes;
  const auto meta = ns_.find_stripe(pos->first);
  if (!meta) return nodes;
  std::vector<BlockId> siblings = meta->data_blocks;
  siblings.insert(siblings.end(), meta->parity_blocks.begin(),
                  meta->parity_blocks.end());
  for (const BlockId sibling : siblings) {
    if (sibling == kInvalidBlock) continue;  // stripe still assembling
    const auto locs = ns_.find_locations(sibling);
    if (!locs) continue;
    for (const NodeId n : *locs) {
      if (node_alive_[static_cast<size_t>(n)]) nodes.insert(n);
    }
  }
  return nodes;
}

void MiniCfs::replicate_block(BlockId block, NodeId dst) {
  qos::OpScope op(qos::TrafficClass::kRepair);
  TransferScope in_flight(*this);
  std::vector<NodeId> locs = block_locations(block);
  std::vector<NodeId> live;
  for (const NodeId n : locs) {
    if (n != dst && node_alive_[static_cast<size_t>(n)]) live.push_back(n);
  }
  if (live.empty()) {
    throw std::runtime_error("no live replica to copy block " +
                             std::to_string(block));
  }
  const NodeId src = pick_source(live, dst, /*count=*/false);
  transport_->transfer(src, dst, config_.block_size);
  register_copy(block, dst, fetch(src, block));
}

ClusterImage MiniCfs::export_image() const {
  ClusterImage image;
  image.node_blocks.resize(datanodes_.size());
  for (size_t i = 0; i < datanodes_.size(); ++i) {
    image.node_blocks[i] =
        datanode(static_cast<NodeId>(i))->export_blocks();
  }
  return image;
}

}  // namespace ear::cfs
