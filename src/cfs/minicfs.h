// MiniCfs — an in-process clustered file system with real data paths.
//
// This is the repo's stand-in for the paper's Facebook-HDFS testbed (§IV,
// §V-A).  It keeps the architecture of HDFS + HDFS-RAID:
//   * a NameNode role (metadata: block locations, stripe map, the
//     pre-encoding store filled by the placement policy),
//   * DataNode roles (in-memory block stores holding real bytes),
//   * a client write path (replication pipeline),
//   * the encoding operation (download k data blocks to the encoder node,
//     compute Reed-Solomon parity over the actual bytes, upload parity,
//     delete redundant replicas),
//   * failure injection (node / rack kill) and degraded reads + repair via
//     erasure decoding.
//
// All data movement is charged to a pluggable Transport; with
// ThrottledTransport the cluster physically exhibits the paper's cross-rack
// bottleneck in real time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "cfs/namespace.h"
#include "cfs/transport.h"
#include "common/rng.h"
#include "datapath/block_buffer.h"
#include "datapath/block_cache.h"
#include "erasure/codec.h"
#include "obs/metrics.h"
#include "placement/policy.h"
#include "placement/types.h"
#include "store/block_store.h"

namespace ear::cfs {

struct CfsConfig {
  int racks = 12;
  int nodes_per_rack = 1;  // the paper's testbed: one DataNode per rack
  PlacementConfig placement{};
  bool use_ear = true;
  Bytes block_size = 1_MB;
  erasure::Construction construction = erasure::Construction::kCauchy;
  // Erasure-codec family for encoded stripes (erasure/codec.h).  kRS
  // (default) reproduces the scalar Reed-Solomon path byte for byte; kLRC
  // adds local-group repair; kClay / kHitchhiker are sub-packetized vector
  // codes whose single-block repairs fetch sub-block ranges of the helpers
  // instead of k full blocks.  block_size must be divisible by the
  // family's sub-packetization alpha.
  erasure::CodecFamily codec_family = erasure::CodecFamily::kRS;
  uint64_t seed = 1;
  // NameNode lock striping (cfs/namespace.h).  1 reproduces the old
  // single-mutex NameNode (the bench_ext_namenode baseline).
  int namespace_shards = NamespaceShards::kDefaultShards;
  // Reader-side block cache budget in bytes (datapath/block_cache.h).  A
  // cache hit returns the reader's cached BlockBuffer with zero transport
  // bytes and zero copies.  0 (default) disables the cache and reproduces
  // the pre-cache read path exactly.
  Bytes cache_bytes = 0;
  // DataNode block-store backend (src/store/).  kMem (default) keeps blocks
  // in RAM — the pre-store behavior, byte for byte.  kMmap lays blocks out
  // in per-node segment files under `store_dir` with a crash-consistent
  // append-only directory; restart_node() then recovers a node's surviving
  // blocks from disk instead of losing everything.
  store::StoreBackend store_backend = store::StoreBackend::kMem;
  // Root directory for persistent stores (per-node subdirectories
  // node-0000, node-0001, ... are created inside).  Required when
  // store_backend == kMmap; ignored for kMem.
  std::string store_dir;
  // Segment-file roll size for the mmap backend.
  Bytes store_segment_bytes = 256_MB;
  // Distributed encode (src/ecdag/): the stripe encode runs as a
  // rack-aware partial-sum tree, so each remote rack ships one combined
  // chunk per parity output across the core switch instead of every raw
  // block.  false (default) keeps the single-node staged encode pipeline;
  // the parity is byte-identical either way.  Degraded reads and repairs
  // ignore it: they always take the helper chain or the fan-out lanes
  // (read_block).  SimConfig::ecdag_enable means the same in the simulator.
  bool ecdag_enable = false;
};

// StripeMeta, BlockStatus and NamespaceSnapshot live in cfs/namespace.h.

// Every DataNode's stored blocks, for checks that compare what the stores
// hold against what the NameNode lists or against expected bytes.
struct ClusterImage {
  // node -> (block -> bytes).  Buffers are shared with the live DataNode
  // stores (BlockBuffer contents are immutable), so exporting an image
  // copies metadata only, never block bytes.
  std::vector<std::map<BlockId, datapath::BlockBuffer>> node_blocks;
};

class MiniCfs {
 public:
  MiniCfs(const CfsConfig& config, std::unique_ptr<Transport> transport);
  ~MiniCfs();

  MiniCfs(const MiniCfs&) = delete;
  MiniCfs& operator=(const MiniCfs&) = delete;

  const Topology& topology() const { return topo_; }
  const CfsConfig& config() const { return config_; }
  Transport& transport() { return *transport_; }
  PlacementPolicy& policy() { return *policy_; }

  // Swaps the transport.  Used by benches to pre-load data instantly (the
  // paper's stripes were written long before the measured window) and then
  // switch to the throttled transport for the experiment itself.
  //
  // Contract: the swap is serialized against other swaps by an internal
  // mutex, but it must not race in-flight data movement — every data-moving
  // operation (write/read/encode/repair/replicate) registers itself for its
  // full duration, and set_transport throws std::logic_error if any is
  // still in flight.  Quiesce workers (join RaidNode jobs, stop the
  // RepairManager) before swapping.
  //
  // The in-flight guard fences block-cache fills too: a fill only ever
  // happens inside the read that produced the bytes, which holds its
  // TransferScope for the fill's full duration (cache_fill asserts this),
  // so a swap can never interleave with a fill.  Cached entries themselves
  // survive the swap — BlockBuffer contents are immutable and a hit
  // touches no transport — which is exactly the pre-loaded-data semantics
  // benches use set_transport for.
  void set_transport(std::unique_ptr<Transport> transport);

  // ---- client write path -------------------------------------------------
  // Writes one block (must be exactly block_size bytes) with replication.
  // Blocks the caller for the duration of the pipeline.  Returns the block
  // id.  Thread-safe.
  BlockId write_block(std::span<const uint8_t> data,
                      std::optional<NodeId> writer = std::nullopt);

  // Writes a full stripe of k blocks with erasure coding ON the write path
  // (no replication phase) — the alternative Zhang et al. study in the
  // paper's related work.  The writer computes the parity and pushes all n
  // blocks to n distinct nodes in n distinct racks.  Returns the stripe id
  // (disjoint from the asynchronous-encoding stripe ids).  Use to compare
  // synchronous vs asynchronous encoding.
  StripeId write_encoded_stripe(
      const std::vector<std::span<const uint8_t>>& data,
      std::optional<NodeId> writer = std::nullopt);

  // ---- client read path --------------------------------------------------
  // Reads a block to `reader`.  Consults the reader-side block cache first
  // (when CfsConfig::cache_bytes > 0): a hit returns the reader's cached
  // buffer with zero transport transfer and zero copies.  Otherwise serves
  // from a live replica when one exists (returning a zero-copy reference
  // to the replica's stored buffer; a copy deleted under the read, e.g. by
  // a racing encode, sends it to the next live copy); otherwise performs a
  // degraded read, reconstructing from any k live blocks of the encoded
  // stripe through the staged chunked pipeline: when every source ships
  // its whole block (RS, LRC, and the decode fallback when the codec has
  // no plan) the reader is the end of a helper chain that streams a
  // partial sum (repair pipelining); sub-block plans (Clay, Hitchhiker)
  // fan in over one lane per source.  Every store miss a read retries past
  // counts in `cfs.read.store_misses`.  Throws std::runtime_error when the
  // block is unrecoverable.
  datapath::BlockBuffer read_block(BlockId block, NodeId reader);

  // Rebuild listener: one slot, called after a degraded read inside
  // read_block reconstructed a whole lost block for `holder` (the reader),
  // with the rebuilt bytes.  Never called for a kRepair-class read, so a
  // repair's own reconstruction is not reported back to it.  Runs on the
  // reader's thread, outside every MiniCfs lock; it must not throw or call
  // set_rebuild_listener.  The RepairManager uses it to adopt rebuilt
  // blocks it still has queued (failure/repair.h).
  using RebuildListener = std::function<void(
      BlockId block, NodeId holder, const datapath::BlockBuffer& bytes)>;
  // Installs `listener`, or clears the slot when it is empty.  Returns once
  // no call of the previous listener is still running, so its owner may be
  // destroyed after clearing.
  void set_rebuild_listener(RebuildListener listener);

  // ---- encoding (the RaidNode path uses these) ----------------------------
  std::vector<StripeId> sealed_stripes() const;

  // Encodes one sealed stripe: the calling thread plays the map task.
  // `encoder_override` forces the encoder node (ablation hook modelling a
  // JobTracker that ignored the core-rack preference).
  void encode_stripe(StripeId stripe,
                     std::optional<NodeId> encoder_override = std::nullopt);

  bool is_encoded(StripeId stripe) const;
  StripeMeta stripe_meta(StripeId stripe) const;

  // ---- failure & repair ----------------------------------------------------
  // Restoring redundancy after failures is failure::RepairManager's job (a
  // synchronous sweep is schedule_scan() then drain()); it drives the repair
  // primitives below.
  void kill_node(NodeId node);
  void kill_rack(RackId rack);
  // Revival models a transient failure (a slow node reporting back): the
  // node rejoins with its block store intact, and any location the NameNode
  // has not yet pruned becomes servable again.  revive_rack and revive_all
  // revive each node through revive_node.
  void revive_node(NodeId node);
  void revive_rack(RackId rack);
  void revive_all();
  bool node_alive(NodeId node) const;

  // Process restart: the node's in-memory store state is discarded and the
  // store is reopened from its backing medium, then the node rejoins and
  // files a block report the NameNode reconciles (HDFS DataNode
  // re-registration).  With the mmap backend the store replays its
  // crash-consistent directory, so committed blocks survive and only the
  // delta (blocks lost in the crash, or re-homed while the node was down)
  // needs repair; with the mem backend a restart loses every block — the
  // two together turn "node restart" and "node lost its disk" into
  // distinct, measurable scenarios (vs. revive_node, which models a
  // transient stall with all state intact).
  //
  // Reconciliation: namespace locations naming this node for blocks the
  // reopened store no longer holds are pruned (a later RepairManager pass
  // repairs them); surviving blocks the namespace still knows are
  // re-registered; surviving blocks the namespace has forgotten entirely are
  // discarded from the store.  The node is down from the moment its store is
  // reopened until the reconciliation is done, so a read never picks a
  // location the reopened store does not hold.
  struct RestartReport {
    int64_t blocks_recovered = 0;     // blocks the reopened store holds
    int64_t locations_pruned = 0;     // namespace locations dropped
    int64_t blocks_reregistered = 0;  // surviving blocks re-added
    int64_t stale_blocks_discarded = 0;  // store blocks no longer in ns
  };
  RestartReport restart_node(NodeId node);

  // Reconstructs a lost block of an encoded stripe onto `target` and
  // registers the new location.
  void repair_block(BlockId block, NodeId target);

  // Stores `bytes`, a copy of `block` a degraded read rebuilt on `holder`,
  // at `target` and registers the new location: one block transfer when
  // holder and target differ, none otherwise.  Returns false, moving
  // nothing, when the block is unknown or already has a live copy.  Throws
  // std::runtime_error when holder or target is down.
  bool adopt_block(BlockId block, NodeId holder, NodeId target,
                   datapath::BlockBuffer bytes);

  // Copies a block from a surviving replica onto `dst` and registers the new
  // location (pruning dead ones).  Throws std::runtime_error when no live
  // replica exists.
  void replicate_block(BlockId block, NodeId dst);

  // Where a candidate repair destination sits relative to `holders` (the
  // nodes holding the copies or stripe siblings the new copy must not share
  // a failure domain with), best first: in a rack holding none of them; in
  // a rack holding one, but not a holder itself; or a holder.
  enum class TargetTier { kFreeRack, kUsedRack, kHolder };
  TargetTier target_tier(NodeId node, const std::set<NodeId>& holders) const;

  // Picks a repair destination uniformly at random (seeded RNG) among the
  // live nodes outside `exclude` in the best non-empty TargetTier, with the
  // nodes of `exclude` and `holders` as the holders.  Re-replication
  // excludes the block's live copies; a lost stripe block passes its live
  // siblings' nodes as `holders`, so it shares a node with a sibling only
  // when no other live node is left.  Returns kInvalidNode when none is.
  NodeId pick_repair_target(const std::vector<NodeId>& exclude,
                            const std::set<NodeId>& holders = {}) const;

  // Nodes currently holding a live copy of any block of `block`'s stripe
  // (rack-fault-tolerant repairs place the rebuilt block elsewhere).  Empty
  // when the block is not part of a known stripe.
  std::set<NodeId> live_stripe_nodes(BlockId block) const;

  // ---- cluster image -------------------------------------------------------
  ClusterImage export_image() const;

  // ---- introspection -------------------------------------------------------
  std::vector<NodeId> block_locations(BlockId block) const;
  // The stripe codec (config.codec_family over placement.code's (n, k)).
  const erasure::ErasureCodec& codec() const { return *codec_; }
  // Network bytes a repair of `block` would move under the codec's current
  // cheapest plan: the RepairPlan's sub-block bytes when one exists for the
  // live helper set, otherwise k full blocks (whole-stripe decode), or one
  // block for replicated copies.  The RepairManager charges this instead of
  // the old hardcoded k-blocks model.
  Bytes planned_repair_bytes(BlockId block) const;
  // Reader-side cache instance; null when CfsConfig::cache_bytes == 0.
  const datapath::BlockCache* block_cache() const { return cache_.get(); }
  std::vector<BlockId> all_blocks() const;
  bool is_block_encoded(BlockId block) const;
  NamespaceSnapshot namespace_snapshot() const;
  int64_t blocks_stored_on(NodeId node) const;
  int64_t encode_cross_rack_downloads() const {
    return encode_cross_rack_downloads_;
  }

 private:
  // store_test drives the private fetch/erase error paths directly.
  friend class MiniCfsTestPeer;

  // Builds the configured store backend for one node (mem map, or an mmap
  // store rooted at store_dir/node-NNNN).  Also the restart_node reopen
  // path.
  std::unique_ptr<store::BlockStore> make_store(NodeId node) const;

  // Zero-copy block store access: store() registers a shared buffer
  // reference (persistent backends commit it durably), fetch() hands one
  // out; the store's internal mutex guards only index state, never a byte
  // copy.  fetch() and erase() throw std::runtime_error naming the node,
  // block, and backend when the block is absent.
  void store(NodeId node, BlockId block, datapath::BlockBuffer bytes);
  datapath::BlockBuffer fetch(NodeId node, BlockId block) const;
  // Ranged fetch: zero-copy view of bytes [offset, offset + len) of the
  // stored block (the vector-codec repair path reads helper sub-ranges
  // through this; both store backends serve it without touching the rest
  // of the block).
  datapath::BlockBuffer fetch_range(NodeId node, BlockId block, size_t offset,
                                    size_t len) const;
  void erase(NodeId node, BlockId block);

  // The one copy-registration path of repair, re-replication and adoption:
  // stores `bytes` as `node`'s copy of `block`, drops cached copies (the
  // servable locations change), prunes dead locations and adds `node`.
  void register_copy(BlockId block, NodeId node, datapath::BlockBuffer bytes);

  // Registers a data-moving operation for set_transport's in-flight check.
  class TransferScope {
   public:
    explicit TransferScope(const MiniCfs& cfs) : cfs_(&cfs) {
      cfs_->transfers_in_flight_.fetch_add(1, std::memory_order_relaxed);
    }
    ~TransferScope() {
      cfs_->transfers_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    TransferScope(const TransferScope&) = delete;
    TransferScope& operator=(const TransferScope&) = delete;

   private:
    const MiniCfs* cfs_;
  };

  // Picks the source replica for a block download to `dst` (local, then
  // same-rack, then any live replica).  Returns kInvalidNode if none live.
  NodeId pick_source(const std::vector<NodeId>& locations, NodeId dst,
                     bool count_cross_rack_download);

  // Caches `bytes` as `reader`'s copy of `block`.  Must run inside the
  // read's TransferScope (throws std::logic_error otherwise): cache fills
  // are data movement for the purposes of the set_transport contract.
  void cache_fill(NodeId reader, BlockId block,
                  const datapath::BlockBuffer& bytes);
  // Coherence hook: drops every reader's cached copy of `block` (called on
  // replica delete, encode commit, repair/replicate rewrite, node revive).
  void cache_invalidate(BlockId block);

  // Reconstructs `block` from live stripe blocks: the slow path of
  // read_block.  degraded_read retries degraded_read_once, which runs one
  // attempt, when a helper it picked is gone by the time its bytes are
  // fetched.
  datapath::BlockBuffer degraded_read(BlockId block, NodeId reader);
  datapath::BlockBuffer degraded_read_once(BlockId block, NodeId reader);
  // The positions of `meta`'s stripe, other than `skip`, whose block has a
  // live copy, in stripe order (degraded reads and repair planning).
  struct LivePositions {
    std::vector<int> ids;
    std::vector<BlockId> blocks;  // parallel to ids
  };
  LivePositions live_positions(const StripeMeta& meta, int skip) const;
  // Hands a foreground rebuild to the rebuild listener, if one is set.
  void notify_rebuilt(BlockId block, NodeId holder,
                      const datapath::BlockBuffer& bytes);

  // Running estimate of an operation's uncontended per-byte time: the
  // least measured since the last reset, so a preempted or queued call
  // cannot inflate it.  Shared by concurrent reads.
  class CostEstimate {
   public:
    void add(double seconds, size_t bytes);
    // Seconds per byte; negative before the first sample.
    double per_byte() const {
      return per_byte_.load(std::memory_order_relaxed);
    }
    void reset() { per_byte_.store(-1, std::memory_order_relaxed); }

   private:
    std::atomic<double> per_byte_{-1};
  };

  CfsConfig config_;
  Topology topo_;
  std::mutex transport_mu_;  // serializes set_transport swaps
  mutable std::atomic<int> transfers_in_flight_{0};
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<PlacementPolicy> policy_;
  // Reader-side block cache; null when config.cache_bytes == 0 (the
  // pre-cache read path, exactly).
  std::unique_ptr<datapath::BlockCache> cache_;
  std::unique_ptr<erasure::ErasureCodec> codec_;

  // The NameNode namespace: lock-striped block locations, stripe metadata,
  // and block->stripe positions (cfs/namespace.h).  The placement policy
  // keeps its own stripe-assembly state and is guarded separately by
  // policy_mu_; nothing acquires a namespace shard while holding policy_mu_
  // or vice versa.
  NamespaceShards ns_;
  mutable std::mutex policy_mu_;
  std::vector<std::unique_ptr<store::BlockStore>> datanodes_;
  std::vector<std::atomic<bool>> node_alive_;
  std::atomic<BlockId> next_block_id_{0};
  // Inline (write-path) stripes count downward so they never collide with
  // the placement policy's stripe ids.
  std::atomic<StripeId> next_inline_stripe_id_{-1};
  mutable std::mutex rng_mu_;
  mutable Rng rng_;
  std::atomic<int64_t> encode_cross_rack_downloads_{0};
  // Per chunk byte: one helper-chain hop's wire time and the reader's
  // decode (apply_plan_chunk), measured by the degraded reads since the
  // transport was installed; set_transport resets both.  A whole-block read
  // splits its helper chain only while the wire is the slower of the two
  // (degraded_read_once).
  CostEstimate hop_wire_;
  CostEstimate decode_;

  // The rebuild listener slot.  listener_calls_ counts callbacks running
  // outside listener_mu_; clearing the slot waits for it to reach zero.
  std::mutex listener_mu_;
  std::condition_variable listener_cv_;
  std::shared_ptr<const RebuildListener> listener_;
  int listener_calls_ = 0;

  // Cached obs registry instruments (valid for the process lifetime).
  obs::Counter* ctr_blocks_written_;
  obs::Counter* ctr_stripes_encoded_;
  obs::Counter* ctr_degraded_reads_;
  obs::Counter* ctr_degraded_read_bytes_;
  obs::Counter* ctr_repairs_;
  obs::Counter* ctr_store_misses_;
  obs::Counter* ctr_split_chains_;
  obs::Gauge* gauge_chains_;
  obs::Histogram* hist_encode_s_;
};

}  // namespace ear::cfs
