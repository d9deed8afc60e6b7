// Mmap-backed persistent block store with a crash-consistent directory.
//
// On-disk layout (one directory per DataNode):
//
//   manifest.log      append-only block directory
//   seg-000000.dat    payload segments, append-only
//   seg-000001.dat    ...
//
// The manifest starts with the 8-byte magic "EARSTOR2" followed by
// fixed-size 48-byte records:
//
//   u32 marker 'EARM' | u32 type (1=PUT 2=ERASE) | u64 block | u32 segment |
//   u32 reserved | u64 offset | u64 length | u32 payload_crc | u32 record_crc
//
// record_crc covers the first 44 bytes; payload_crc is the CRC-32 of the
// block id (u64 little-endian) followed by the block bytes the record
// points at (0 for ERASE), so a PUT can only vouch for its own block.
//
// Commit protocol (SyncPolicy::kEveryCommit, the default):
//   1. append the payload to the current segment, fdatasync(segment)
//   2. append the manifest record,              fdatasync(manifest)
// A block is committed exactly when its manifest record is durable; the
// ordering guarantees a durable record never points at undurable bytes.
// SyncPolicy::kOnFlush defers both syncs to flush() — faster ingest, and
// the crash guarantee holds only up to the last flush().
//
// Replay-on-open scans the manifest sequentially and stops at the first
// record that is short, has a bad marker, or fails record_crc — a torn tail
// from a crash mid-commit — truncating the manifest there.  A record with
// a valid CRC but an unknown type, a segment beyond the files present plus
// the next one, or an extent end that overflows is treated as torn too, so
// a hostile manifest can neither size allocations nor create files.  Segment bytes
// beyond the highest replayed extent (payload written but record lost) are
// truncated too; an extent past a segment's end is dropped.  With
// verify_on_open, every surviving block's payload CRC is checked and
// corrupt blocks are dropped from the index; open_report() says what replay
// found.
//
// get() hands out a zero-copy BlockBuffer view of the mmap'd segment
// (BlockBuffer::view_of): the view's shared_ptr keeps the mapping alive, so
// outstanding readers — the PR 5 block cache included — stay valid across
// erase, overwrite, remap, and even store destruction.  The store itself
// retains no block payloads in RAM; resident size is page-cache-managed, so
// datasets larger than RAM work.
//
// Erase and overwrite append records; old payload bytes become garbage that
// is reclaimed only by a fresh store copy (no in-place compaction — the
// paper's workloads are write-once / encode-once).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"
#include "store/block_store.h"

namespace ear::store {

struct MmapStoreOptions {
  // Roll to a new segment file once the current one would exceed this.
  Bytes segment_bytes = 256_MB;

  enum class SyncPolicy {
    kEveryCommit,  // fdatasync segment + manifest on every put/erase
    kOnFlush,      // defer durability to flush()
  };
  SyncPolicy sync = SyncPolicy::kEveryCommit;

  // CRC-check every live block's payload during replay (drops corrupt
  // blocks instead of serving bad bytes).  Costs one sequential read of the
  // live dataset on open.
  bool verify_on_open = true;
};

class MmapBlockStore final : public BlockStore {
 public:
  struct OpenReport {
    int64_t records_replayed = 0;        // valid manifest records applied
    int64_t blocks_recovered = 0;        // live blocks after replay
    int64_t torn_bytes_truncated = 0;    // invalid manifest tail removed
    int64_t segment_bytes_truncated = 0; // orphan payload tails removed
    int64_t corrupt_blocks_dropped = 0;  // failed payload CRC / bad extent
  };

  // Opens (creating directories as needed) and replays the store at `dir`.
  // Throws std::runtime_error on unrecoverable I/O errors or a foreign
  // manifest magic.
  explicit MmapBlockStore(const std::string& dir,
                          const MmapStoreOptions& options = {});
  ~MmapBlockStore() override;

  StoreBackend backend() const override { return StoreBackend::kMmap; }

  void put(BlockId block, datapath::BlockBuffer bytes) override;
  std::optional<datapath::BlockBuffer> get(BlockId block) const override;
  bool erase(BlockId block) override;

  bool contains(BlockId block) const override;
  size_t block_count() const override;
  int64_t bytes_stored() const override;
  std::vector<BlockId> block_ids() const override;
  std::map<BlockId, datapath::BlockBuffer> export_blocks() const override;
  void flush() override;

  // ---- introspection (tests, benches) ------------------------------------
  const std::string& dir() const { return dir_; }
  const OpenReport& open_report() const { return open_report_; }
  // Current manifest file size; a commit's durability boundary (the
  // crash-consistency property test cuts the manifest at every byte).
  int64_t manifest_bytes() const;
  int segment_count() const;
  // Advises the kernel to drop the page cache for every segment (cold-start
  // read benches).  Pages are clean after fsync, so this models a restart
  // with an empty cache without needing privileges.
  void drop_page_cache() const;

 private:
  struct Extent {
    uint32_t segment = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t payload_crc = 0;
  };

  // One mmap of a segment prefix.  Views returned by get() alias this via
  // shared_ptr, so the mapping outlives remaps and the store itself while
  // any reader holds a buffer.
  struct Mapping {
    const uint8_t* base = nullptr;
    size_t len = 0;
    ~Mapping();
  };

  struct Segment {
    int fd = -1;
    uint64_t size = 0;  // committed high watermark (append position)
    std::shared_ptr<Mapping> mapping;  // covers [0, mapping->len)
  };

  void replay(const MmapStoreOptions& options);
  // Mapping of segment `seg` covering at least `need` bytes (mu_ held).
  std::shared_ptr<Mapping> mapping_for(uint32_t seg, uint64_t need) const;
  // Opens seg-<id>.dat, creating it if asked (mu_ held).
  int open_segment_file(uint32_t seg, bool create) const;
  std::string segment_path(uint32_t seg) const;
  void sync_dir() const;
  void append_record(uint8_t type, BlockId block, const Extent& extent);
  void sync_fd(int fd, const char* what) const;
  void close_fds();

  const std::string dir_;
  MmapStoreOptions options_;
  OpenReport open_report_;

  mutable std::mutex mu_;
  int dir_fd_ = -1;
  int manifest_fd_ = -1;
  int64_t manifest_size_ = 0;
  mutable std::vector<Segment> segments_;
  std::map<BlockId, Extent> index_;
  int64_t live_bytes_ = 0;
};

}  // namespace ear::store
