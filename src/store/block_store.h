// Persistent DataNode block stores (see DESIGN.md "Persistent store").
//
// MiniCfs used to keep every DataNode's blocks in a RAM-resident
// std::map<BlockId, BlockBuffer>, which caps datasets far below the paper's
// scale (96 x 64 MB stripes) and makes "node restart" indistinguishable
// from "node lost all data".  BlockStore is the seam that fixes both: one
// store instance per DataNode, with two implementations —
//
//  * MemBlockStore (mem_store.h)   — the existing in-RAM map, byte-identical
//    behavior, the default backend.
//  * MmapBlockStore (mmap_store.h) — per-node segment files plus a
//    crash-consistent append-only block directory; fetch() hands out a
//    zero-copy BlockBuffer view of the mmap'd segment, so the PR 3
//    ref-counting and the PR 5 reader cache work unchanged over it.
//
// Contract shared by all backends:
//  * put() overwrites: the latest bytes for a BlockId win (re-encode and
//    repair rewrite blocks in place).
//  * get() returns a buffer that shares the stored bytes (zero copies) and
//    stays valid after a later erase/overwrite/store-destruction —
//    BlockBuffer contents are immutable and ref-counted, so an outstanding
//    reader never observes torn or freed bytes.
//  * All methods are thread-safe; the store's internal mutex guards only
//    index state, never a byte copy.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "datapath/block_buffer.h"
#include "placement/types.h"

namespace ear::store {

// Which implementation a DataNode store uses (CfsConfig::store_backend).
enum class StoreBackend {
  kMem = 0,   // RAM-resident map; a restart loses every block
  kMmap = 1,  // mmap-backed segment files; a restart replays the directory
};

inline const char* backend_name(StoreBackend backend) {
  return backend == StoreBackend::kMem ? "mem" : "mmap";
}

class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual StoreBackend backend() const = 0;
  const char* name() const { return backend_name(backend()); }

  // Stores (or overwrites) the block.  For persistent backends the call
  // returns only once the block is committed per the store's sync policy.
  virtual void put(BlockId block, datapath::BlockBuffer bytes) = 0;

  // Zero-copy reference to the stored bytes; nullopt when absent.
  virtual std::optional<datapath::BlockBuffer> get(BlockId block) const = 0;

  // Zero-copy reference to bytes [offset, offset + len) of the stored
  // block; nullopt when absent (or the range falls outside the block).
  // Backends whose get() already aliases the storage (mmap segments,
  // in-RAM buffers) serve this without touching the other bytes — the
  // vector-codec repair path fetches sub-block ranges through here.
  virtual std::optional<datapath::BlockBuffer> get_range(BlockId block,
                                                         size_t offset,
                                                         size_t len) const {
    auto full = get(block);
    if (!full.has_value() || offset + len > full->size()) return std::nullopt;
    return full->view(offset, len);
  }

  // Removes the block.  Returns false when it was not present.
  virtual bool erase(BlockId block) = 0;

  virtual bool contains(BlockId block) const = 0;
  virtual size_t block_count() const = 0;
  virtual int64_t bytes_stored() const = 0;  // live payload bytes
  virtual std::vector<BlockId> block_ids() const = 0;  // ascending

  // Snapshot of every block (MiniCfs::export_image).  Buffers share the stored
  // allocations / mappings; no payload copy.
  virtual std::map<BlockId, datapath::BlockBuffer> export_blocks() const = 0;

  // Durability barrier: returns once everything put() so far is on stable
  // storage (no-op for RAM stores; fsync for kOnFlush-policy mmap stores).
  virtual void flush() {}
};

}  // namespace ear::store
