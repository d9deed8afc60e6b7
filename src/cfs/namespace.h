// Lock-striped NameNode namespace.
//
// MiniCfs used to guard all NameNode metadata (block locations, stripe
// metadata, block->stripe positions) with one global mutex, so foreground
// writers, the RaidNode's encode map-tasks, and the RepairManager's drainers
// all serialized on a single lock.  NamespaceShards stripes that state over
// N shards (default 16) keyed by BlockId / StripeId hash:
//
//  * Point lookups and mutations lock exactly one shard.
//  * Commits that span shards (registering a new block touches the block's
//    shard and its stripe's shard; an encode commit touches every block of
//    the stripe) acquire all touched shards in ascending shard-index order
//    before mutating anything, so a commit is atomic with respect to
//    snapshot() and no lock-order cycle is possible.
//  * snapshot() is epoch-consistent: it acquires every shard in ascending
//    order — once all locks are held simultaneously the epoch is defined —
//    then copies each shard's raw maps and releases that shard immediately,
//    so mutators of already-copied shards resume while the copy of later
//    shards is still in progress.  The expensive block<->stripe join runs
//    after every lock has been released.
//
// Lock-ordering rule (the only one in this file): shard mutexes are always
// acquired in ascending shard index, and nothing else is ever acquired while
// a shard mutex is held.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "placement/types.h"

namespace ear::cfs {

// Per-stripe metadata kept by the NameNode after encoding.
struct StripeMeta {
  StripeId id = kInvalidStripe;
  std::vector<BlockId> data_blocks;    // indexed by stripe position 0..k-1
  std::vector<BlockId> parity_blocks;  // size n - k (empty until encoded)
  bool encoded = false;
};

// Point-in-time view of one block's metadata (see snapshot()).
struct BlockStatus {
  std::vector<NodeId> locations;   // where copies are registered (may be dead)
  StripeId stripe = kInvalidStripe;
  int position = -1;               // index in stripe, 0..n-1; -1 if unstriped
  bool encoded = false;            // the stripe finished encoding
};

// One-epoch snapshot of the NameNode metadata.  Block reports and the
// failure/repair subsystem iterate over this instead of taking NameNode
// locks once per block.
struct NamespaceSnapshot {
  std::map<BlockId, BlockStatus> blocks;
  std::map<StripeId, StripeMeta> stripes;
};

class NamespaceShards {
 public:
  static constexpr int kDefaultShards = 16;

  explicit NamespaceShards(int shards = kDefaultShards);

  NamespaceShards(const NamespaceShards&) = delete;
  NamespaceShards& operator=(const NamespaceShards&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }

  // ---- block point ops (one shard lock) ---------------------------------
  std::optional<std::vector<NodeId>> find_locations(BlockId block) const;
  // Applies `fn` to the block's registered location vector.  Returns false
  // (without calling fn) when the block is unknown.
  bool update_locations(BlockId block,
                        const std::function<void(std::vector<NodeId>&)>& fn);
  std::optional<std::pair<StripeId, int>> find_block_stripe(
      BlockId block) const;
  size_t block_count() const;
  std::vector<BlockId> all_blocks() const;  // ascending

  // ---- stripe point ops (one shard lock) --------------------------------
  std::optional<StripeMeta> find_stripe(StripeId stripe) const;
  bool stripe_encoded(StripeId stripe) const;

  // ---- multi-shard commits (atomic w.r.t. snapshot()) -------------------
  // Registers a freshly written block: its replica locations, its stripe
  // position, and its slot in the stripe's data_blocks.  data_blocks is
  // indexed by position (not append order): concurrent writers of one
  // stripe may commit out of placement order, and degraded reads decode by
  // position.
  void commit_new_block(BlockId block, std::vector<NodeId> replicas,
                        StripeId stripe, int position);

  // Commits a finished background encode of a stripe whose k data blocks
  // have all committed, in one atomic step: data block i keeps its listed
  // copies minus the `retired` (data index, node) replicas the encode
  // deletes, plus kept[i]; the m new parity blocks get their locations and
  // stripe positions k..n-1; the stripe is flagged encoded.  A copy a
  // repair registered meanwhile stays listed, as it stays stored.
  void commit_encoded_stripe(
      StripeId stripe, const std::vector<BlockId>& data_blocks,
      const std::vector<NodeId>& kept,
      const std::vector<std::pair<int, NodeId>>& retired,
      const std::vector<BlockId>& parity_blocks,
      const std::vector<NodeId>& parity_nodes);

  // Commits a write-path (inline) erasure-coded stripe: n single-location
  // blocks plus the fully encoded stripe row, atomically.
  void commit_inline_stripe(StripeId stripe,
                            const std::vector<BlockId>& blocks,
                            const std::vector<NodeId>& nodes, int k);

  // ---- whole-namespace ops ----------------------------------------------
  NamespaceSnapshot snapshot() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<BlockId, std::vector<NodeId>> locations;
    std::map<BlockId, std::pair<StripeId, int>> block_pos;
    std::map<StripeId, StripeMeta> stripes;
  };

  size_t block_shard(BlockId block) const;
  size_t stripe_shard(StripeId stripe) const;

  // Locks the given shard indices (deduplicated) in ascending order for the
  // lifetime of the returned guards.
  std::vector<std::unique_lock<std::mutex>> lock_shards(
      std::vector<size_t> indices) const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ear::cfs
