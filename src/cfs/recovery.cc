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
                                   const std::set<NodeId>& holders) const {
  std::set<NodeId> all_holders = holders;
  all_holders.insert(exclude.begin(), exclude.end());
  std::vector<NodeId> tiers[3];
  for (NodeId n = 0; n < topo_.node_count(); ++n) {
    if (!node_alive_[static_cast<size_t>(n)]) continue;
    if (std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
      continue;
    }
    tiers[static_cast<int>(target_tier(n, all_holders))].push_back(n);
  }
  for (const std::vector<NodeId>& pool : tiers) {
    if (pool.empty()) continue;
    std::lock_guard<std::mutex> lock(rng_mu_);
    return pool[rng_.index(pool.size())];
  }
  return kInvalidNode;
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
  image.config = config_;
  image.next_block_id = next_block_id_.load(std::memory_order_relaxed);
  ns_.export_maps(&image.locations, &image.stripes, &image.block_positions);
  image.node_blocks.resize(datanodes_.size());
  for (size_t i = 0; i < datanodes_.size(); ++i) {
    image.node_blocks[i] = datanodes_[i]->export_blocks();
  }
  return image;
}

std::unique_ptr<MiniCfs> MiniCfs::from_image(
    ClusterImage image, std::unique_ptr<Transport> transport) {
  auto cfs = std::make_unique<MiniCfs>(image.config, std::move(transport));
  if (image.node_blocks.size() !=
      static_cast<size_t>(cfs->topo_.node_count())) {
    throw std::runtime_error("checkpoint topology mismatch");
  }
  {
    cfs->next_block_id_.store(image.next_block_id,
                              std::memory_order_relaxed);
    // New stripes must not collide with snapshotted ones (the fresh
    // placement policy restarts its id counter at 0); inline stripes count
    // downward and need the same treatment.
    StripeId max_policy_stripe = -1;
    StripeId min_inline_stripe = 0;
    for (const auto& [id, meta] : image.stripes) {
      (void)meta;
      max_policy_stripe = std::max(max_policy_stripe, id);
      min_inline_stripe = std::min(min_inline_stripe, id);
    }
    cfs->ns_.import_maps(std::move(image.locations), std::move(image.stripes),
                         std::move(image.block_positions));
    std::lock_guard<std::mutex> lock(cfs->policy_mu_);
    cfs->policy_->reserve_stripe_ids(max_policy_stripe + 1);
    cfs->next_inline_stripe_id_.store(min_inline_stripe - 1,
                                      std::memory_order_relaxed);
  }
  for (size_t i = 0; i < image.node_blocks.size(); ++i) {
    for (auto& [block, bytes] : image.node_blocks[i]) {
      cfs->datanodes_[i]->put(block, std::move(bytes));
    }
  }
  return cfs;
}

}  // namespace ear::cfs
