// Reader-side block cache — LRU over zero-copy BlockBuffers (see DESIGN.md
// "Read path").
//
// MiniCfs::read_block charges a full-block transport transfer on every
// call, even when the same reader just fetched the same block; for the
// read-dominated workloads the paper measures (Figure 10 MapReduce, Figure
// 15 read balance) that makes repeated reads the slowest path in the
// system.  BlockCache models each reader node's client-side cache: entries
// are keyed by (reader, block) — a hit means *that reader* already holds
// the bytes locally, so it costs zero transport bytes and, because
// BlockBuffer is ref-counted, zero byte copies.
//
// Semantics:
//  * Capacity is in bytes; eviction is strict LRU across all readers'
//    entries (one shared budget, like an OS page cache split by client).
//    capacity 0 disables the cache entirely: lookup always misses, insert
//    is a no-op — the pre-cache read path, byte for byte.
//  * Cached contents are immutable BlockBuffers, so a hit can never return
//    torn or mutated bytes.  Staleness is about *visibility*, not content:
//    the owner invalidates on block delete, re-encode, repair-rewrite and
//    node revive (see MiniCfs) so a cached entry never makes a read
//    succeed against metadata under which the uncached path would behave
//    differently.
//  * Thread-safe; one mutex.  The hot path is a hash lookup + list splice,
//    never a byte copy.
//
// Instruments: datapath.cache.{hits,misses,evictions,invalidations}
// counters and the datapath.cache.bytes gauge.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "datapath/block_buffer.h"
#include "obs/metrics.h"

namespace ear::datapath {

class BlockCache {
 public:
  // `capacity` in bytes; 0 disables the cache (every lookup misses without
  // counting, every insert is a no-op).
  explicit BlockCache(Bytes capacity);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  Bytes capacity() const { return capacity_; }

  // Returns reader's cached copy of `block` and marks it most recently
  // used; nullopt on miss.  The returned buffer shares the cached
  // allocation (zero copies).
  std::optional<BlockBuffer> lookup(int reader, int64_t block);

  // Caches `bytes` for (reader, block), evicting least-recently-used
  // entries until it fits.  A buffer larger than the whole capacity is not
  // cached.  Re-inserting an existing key replaces its bytes (newest fill
  // wins) and refreshes its recency.
  void insert(int reader, int64_t block, BlockBuffer bytes);

  // Drops every reader's entry for `block` (delete / re-encode / repair /
  // revive coherence points; see the class comment).
  void invalidate_block(int64_t block);

  // ---- introspection (tests, benches) ------------------------------------
  Bytes bytes_used() const;
  size_t entries() const;
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    int reader;
    int64_t block;
    bool operator==(const Key& o) const {
      return reader == o.reader && block == o.block;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Fibonacci-style mix; reader counts are small and block ids dense.
      const uint64_t h =
          (static_cast<uint64_t>(k.block) * 0x9e3779b97f4a7c15ULL) ^
          (static_cast<uint64_t>(static_cast<uint32_t>(k.reader)) *
           0xc2b2ae3d27d4eb4fULL);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    BlockBuffer bytes;
  };

  // Drops the entry at `it` (mu_ held).  Adjusts maps and the byte gauge
  // but charges no hit/miss/eviction counter — callers account the cause.
  void drop_locked(std::list<Entry>::iterator it);
  void set_bytes_gauge_locked();

  const Bytes capacity_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  // block -> readers holding it; makes invalidate_block O(readers of that
  // block) instead of a full scan.
  std::unordered_map<int64_t, std::vector<int>> readers_of_;
  Bytes used_ = 0;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};

  obs::Counter* ctr_hits_;
  obs::Counter* ctr_misses_;
  obs::Counter* ctr_evictions_;
  obs::Counter* ctr_invalidations_;
  obs::Gauge* gauge_bytes_;
};

}  // namespace ear::datapath
