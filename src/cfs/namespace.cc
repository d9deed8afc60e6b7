#include "cfs/namespace.h"

#include <algorithm>
#include <stdexcept>

namespace ear::cfs {

namespace {

// Fibonacci hashing: block and stripe ids are sequential (stripes from the
// write path count downward), so a plain modulo would put neighbouring ids
// in neighbouring shards and every multi-shard commit of one stripe would
// touch the same few shards.  The golden-ratio multiply spreads them.
size_t mix(uint64_t id, size_t shards) {
  return static_cast<size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) % shards;
}

}  // namespace

NamespaceShards::NamespaceShards(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("NamespaceShards: need at least one shard");
  }
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t NamespaceShards::block_shard(BlockId block) const {
  return mix(static_cast<uint64_t>(block), shards_.size());
}

size_t NamespaceShards::stripe_shard(StripeId stripe) const {
  return mix(static_cast<uint64_t>(stripe), shards_.size());
}

std::vector<std::unique_lock<std::mutex>> NamespaceShards::lock_shards(
    std::vector<size_t> indices) const {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(indices.size());
  for (const size_t i : indices) {
    locks.emplace_back(shards_[i]->mu);
  }
  return locks;
}

// ------------------------------------------------------- block point ops

std::optional<std::vector<NodeId>> NamespaceShards::find_locations(
    BlockId block) const {
  const Shard& shard = *shards_[block_shard(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.locations.find(block);
  if (it == shard.locations.end()) return std::nullopt;
  return it->second;
}

bool NamespaceShards::update_locations(
    BlockId block, const std::function<void(std::vector<NodeId>&)>& fn) {
  Shard& shard = *shards_[block_shard(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.locations.find(block);
  if (it == shard.locations.end()) return false;
  fn(it->second);
  return true;
}

std::optional<std::pair<StripeId, int>> NamespaceShards::find_block_stripe(
    BlockId block) const {
  const Shard& shard = *shards_[block_shard(block)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.block_pos.find(block);
  if (it == shard.block_pos.end()) return std::nullopt;
  return it->second;
}

size_t NamespaceShards::block_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->locations.size();
  }
  return total;
}

std::vector<BlockId> NamespaceShards::all_blocks() const {
  std::vector<BlockId> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->locations.size());
    for (const auto& [block, locs] : shard->locations) {
      (void)locs;
      out.push_back(block);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------ stripe point ops

std::optional<StripeMeta> NamespaceShards::find_stripe(StripeId stripe) const {
  const Shard& shard = *shards_[stripe_shard(stripe)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.stripes.find(stripe);
  if (it == shard.stripes.end()) return std::nullopt;
  return it->second;
}

bool NamespaceShards::stripe_encoded(StripeId stripe) const {
  const Shard& shard = *shards_[stripe_shard(stripe)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.stripes.find(stripe);
  return it != shard.stripes.end() && it->second.encoded;
}

// ---------------------------------------------------- multi-shard commits

void NamespaceShards::commit_new_block(BlockId block,
                                       std::vector<NodeId> replicas,
                                       StripeId stripe, int position) {
  const auto locks = lock_shards({block_shard(block), stripe_shard(stripe)});
  Shard& ss = *shards_[stripe_shard(stripe)];
  StripeMeta& meta = ss.stripes[stripe];
  meta.id = stripe;
  // Slot by position, not append order: replication pipelines of one
  // stripe's writers may finish (and commit) out of placement order.
  if (static_cast<int>(meta.data_blocks.size()) <= position) {
    meta.data_blocks.resize(static_cast<size_t>(position) + 1, kInvalidBlock);
  }
  meta.data_blocks[static_cast<size_t>(position)] = block;
  Shard& bs = *shards_[block_shard(block)];
  bs.block_pos[block] = {stripe, position};
  bs.locations[block] = std::move(replicas);
}

std::vector<std::pair<int, NodeId>> NamespaceShards::commit_encoded_stripe(
    StripeId stripe, const std::vector<BlockId>& data_blocks,
    const std::vector<NodeId>& kept,
    const std::vector<BlockId>& parity_blocks,
    const std::vector<NodeId>& parity_nodes) {
  std::vector<size_t> indices{stripe_shard(stripe)};
  for (const BlockId b : data_blocks) indices.push_back(block_shard(b));
  for (const BlockId b : parity_blocks) indices.push_back(block_shard(b));
  const auto locks = lock_shards(std::move(indices));

  // Every data block has committed (MiniCfs::encode_stripe refuses until
  // then), so the stripe row and the data blocks' positions are complete.
  const int k = static_cast<int>(data_blocks.size());
  StripeMeta& meta = shards_[stripe_shard(stripe)]->stripes[stripe];
  std::vector<std::pair<int, NodeId>> retired;
  for (int i = 0; i < k; ++i) {
    const BlockId b = data_blocks[static_cast<size_t>(i)];
    std::vector<NodeId>& locs = shards_[block_shard(b)]->locations[b];
    const NodeId keep = kept[static_cast<size_t>(i)];
    for (const NodeId n : locs) {
      if (n != keep) retired.emplace_back(i, n);
    }
    locs = {keep};
  }
  for (size_t j = 0; j < parity_blocks.size(); ++j) {
    const BlockId b = parity_blocks[j];
    Shard& bs = *shards_[block_shard(b)];
    bs.locations[b] = {parity_nodes[j]};
    bs.block_pos[b] = {stripe, k + static_cast<int>(j)};
  }
  meta.parity_blocks = parity_blocks;
  meta.encoded = true;
  return retired;
}

void NamespaceShards::commit_inline_stripe(StripeId stripe,
                                           const std::vector<BlockId>& blocks,
                                           const std::vector<NodeId>& nodes,
                                           int k) {
  std::vector<size_t> indices{stripe_shard(stripe)};
  for (const BlockId b : blocks) indices.push_back(block_shard(b));
  const auto locks = lock_shards(std::move(indices));

  StripeMeta& meta = shards_[stripe_shard(stripe)]->stripes[stripe];
  meta.id = stripe;
  meta.encoded = true;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const BlockId b = blocks[i];
    Shard& bs = *shards_[block_shard(b)];
    bs.locations[b] = {nodes[i]};
    bs.block_pos[b] = {stripe, static_cast<int>(i)};
    if (static_cast<int>(i) < k) {
      meta.data_blocks.push_back(b);
    } else {
      meta.parity_blocks.push_back(b);
    }
  }
}

// ------------------------------------------------------ whole-namespace

NamespaceSnapshot NamespaceShards::snapshot() const {
  std::map<BlockId, std::vector<NodeId>> locations;
  std::map<BlockId, std::pair<StripeId, int>> positions;
  NamespaceSnapshot snap;
  // Epoch acquire: take every shard in ascending order.  Once all locks are
  // held the view is consistent; each shard is then copied and released
  // immediately so point ops on low shards resume during the rest of the
  // copy.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    locations.insert(shard.locations.begin(), shard.locations.end());
    positions.insert(shard.block_pos.begin(), shard.block_pos.end());
    snap.stripes.insert(shard.stripes.begin(), shard.stripes.end());
    locks[i].unlock();
  }

  // Join outside every lock: the epoch is already fixed.
  for (auto& [block, locs] : locations) {
    BlockStatus status;
    status.locations = std::move(locs);
    const auto pos = positions.find(block);
    if (pos != positions.end()) {
      status.stripe = pos->second.first;
      status.position = pos->second.second;
      const auto meta = snap.stripes.find(status.stripe);
      status.encoded = meta != snap.stripes.end() && meta->second.encoded;
    }
    snap.blocks.emplace(block, std::move(status));
  }
  return snap;
}

}  // namespace ear::cfs
