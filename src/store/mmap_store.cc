#include "store/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/crc32.h"

namespace ear::store {

namespace {

constexpr char kStoreMagic[8] = {'E', 'A', 'R', 'S', 'T', 'O', 'R', '2'};
constexpr uint32_t kRecordMarker = 0x4D524145u;  // "EARM" little-endian
constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordErase = 2;
constexpr size_t kRecordSize = 48;
constexpr size_t kHeaderSize = 8;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void put_le32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void put_le64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t get_le32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t get_le64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// Full-write loop (short writes are legal for write(2) even on regular
// files under signals).
void write_all(int fd, const uint8_t* data, size_t len,
               const char* what) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(std::string("write ") + what);
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

void pwrite_all(int fd, const uint8_t* data, size_t len, uint64_t offset,
                const char* what) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(std::string("pwrite ") + what);
    }
    data += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
}

// A record's payload_crc: the CRC-32 of the block id (u64 little-endian)
// followed by the payload, so a record only ever vouches for bytes that
// were written as its own block.
uint32_t payload_crc(BlockId block, const uint8_t* data, size_t len) {
  uint8_t id[8];
  put_le64(id, static_cast<uint64_t>(block));
  return crc32(data, len, crc32(id, sizeof(id)));
}

uint64_t file_size(int fd, const char* what) {
  struct stat st;
  if (::fstat(fd, &st) != 0) throw_errno(std::string("fstat ") + what);
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

MmapBlockStore::Mapping::~Mapping() {
  if (base != nullptr && len > 0) {
    ::munmap(const_cast<uint8_t*>(base), len);
  }
}

MmapBlockStore::MmapBlockStore(const std::string& dir,
                               const MmapStoreOptions& options)
    : dir_(dir), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("cannot create store directory " + dir_ + ": " +
                             ec.message());
  }
  dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) throw_errno("open " + dir_);
  try {
    replay(options);
  } catch (...) {
    close_fds();  // no destructor runs for a constructor that throws
    throw;
  }
}

MmapBlockStore::~MmapBlockStore() {
  std::lock_guard<std::mutex> lock(mu_);
  close_fds();
}

void MmapBlockStore::close_fds() {
  // Mappings are released by their shared_ptrs (outstanding BlockBuffer
  // views keep theirs alive); fds can close now — mmap survives close(2).
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

// Makes freshly created files (manifest, new segments) durable: their data
// syncs cover the bytes, this covers the directory entry itself.
void MmapBlockStore::sync_dir() const {
  if (::fsync(dir_fd_) != 0) throw_errno("fsync " + dir_);
}

std::string MmapBlockStore::segment_path(uint32_t seg) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06u.dat", seg);
  return dir_ + "/" + name;
}

int MmapBlockStore::open_segment_file(uint32_t seg, bool create) const {
  const std::string path = segment_path(seg);
  const int flags = O_RDWR | O_CLOEXEC | (create ? O_CREAT : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("open " + path);
  return fd;
}

void MmapBlockStore::sync_fd(int fd, const char* what) const {
  if (::fdatasync(fd) != 0) throw_errno(std::string("fdatasync ") + what);
}

void MmapBlockStore::replay(const MmapStoreOptions& options) {
  const std::string manifest_path = dir_ + "/manifest.log";
  manifest_fd_ =
      ::open(manifest_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (manifest_fd_ < 0) throw_errno("open " + manifest_path);

  uint64_t size = file_size(manifest_fd_, "manifest");
  if (size < kHeaderSize) {
    // Fresh store, or a crash tore the header itself: start over.  (A torn
    // header means no record was ever durable, so nothing is lost.)
    if (size != 0) {
      if (::ftruncate(manifest_fd_, 0) != 0) throw_errno("truncate manifest");
      open_report_.torn_bytes_truncated += static_cast<int64_t>(size);
    }
    write_all(manifest_fd_, reinterpret_cast<const uint8_t*>(kStoreMagic),
              kHeaderSize, "manifest header");
    sync_fd(manifest_fd_, "manifest");
    sync_dir();
    manifest_size_ = static_cast<int64_t>(kHeaderSize);
    return;  // empty directory: no segments yet
  }

  std::vector<uint8_t> manifest(size);
  for (uint64_t off = 0; off < size;) {
    const ssize_t n = ::pread(manifest_fd_, manifest.data() + off, size - off,
                              static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread manifest");
    }
    if (n == 0) throw std::runtime_error("manifest shrank during replay");
    off += static_cast<uint64_t>(n);
  }
  if (std::memcmp(manifest.data(), kStoreMagic, kHeaderSize) != 0) {
    throw std::runtime_error("not an EAR block store: " + manifest_path);
  }

  // Segment files are created in contiguous id order, so a record may name
  // one of them or the next one to be written, never anything beyond.
  uint32_t present = 0;
  while (std::filesystem::exists(segment_path(present))) ++present;

  // Sequential scan; the first short / unmarked / CRC-failing record is a
  // torn tail from a crash mid-commit — everything before it is the
  // committed prefix, everything from it on is discarded.  A record that
  // passes its CRC but holds values no commit writes (an unknown type, a
  // segment past `present`, an extent whose end overflows) is treated the
  // same way, before anything is sized or created from it.
  std::vector<uint64_t> watermark;  // per-segment payload high water
  uint64_t pos = kHeaderSize;
  while (pos + kRecordSize <= size) {
    const uint8_t* rec = manifest.data() + pos;
    const uint32_t marker = get_le32(rec);
    const uint32_t record_crc = get_le32(rec + 44);
    if (marker != kRecordMarker || crc32(rec, 44) != record_crc) break;
    const uint32_t type = get_le32(rec + 4);
    const BlockId block = static_cast<BlockId>(get_le64(rec + 8));
    Extent extent;
    extent.segment = get_le32(rec + 16);
    extent.offset = get_le64(rec + 24);
    extent.length = get_le64(rec + 32);
    extent.payload_crc = get_le32(rec + 40);
    if (type == kRecordPut) {
      if (extent.segment > present ||
          extent.length > UINT64_MAX - extent.offset) {
        break;
      }
      index_.insert_or_assign(block, extent);
      if (extent.length > 0) {
        if (watermark.size() <= extent.segment) {
          watermark.resize(extent.segment + 1, 0);
        }
        watermark[extent.segment] =
            std::max(watermark[extent.segment], extent.offset + extent.length);
      }
    } else if (type == kRecordErase) {
      index_.erase(block);
    } else {
      break;
    }
    ++open_report_.records_replayed;
    pos += kRecordSize;
  }
  if (pos != size) {
    if (::ftruncate(manifest_fd_, static_cast<off_t>(pos)) != 0) {
      throw_errno("truncate manifest tail");
    }
    sync_fd(manifest_fd_, "manifest");
    open_report_.torn_bytes_truncated += static_cast<int64_t>(size - pos);
  }
  manifest_size_ = static_cast<int64_t>(pos);

  // Open every segment file on disk; reconcile physical sizes with the
  // replayed watermarks.
  const uint32_t seg_count =
      std::max(present, static_cast<uint32_t>(watermark.size()));
  segments_.resize(seg_count);
  for (uint32_t s = 0; s < seg_count; ++s) {
    if (!std::filesystem::exists(segment_path(s))) {
      // Referenced but missing (external tampering): extents on it are
      // dropped below by the bounds check.
      segments_[s].fd = open_segment_file(s, /*create=*/true);
      segments_[s].size = 0;
      continue;
    }
    segments_[s].fd = open_segment_file(s, /*create=*/false);
    const uint64_t physical = file_size(segments_[s].fd, "segment");
    const uint64_t committed = s < watermark.size() ? watermark[s] : 0;
    if (physical > committed) {
      // Payload appended but its manifest record never became durable.
      if (::ftruncate(segments_[s].fd, static_cast<off_t>(committed)) != 0) {
        throw_errno("truncate segment tail");
      }
      open_report_.segment_bytes_truncated +=
          static_cast<int64_t>(physical - committed);
    }
    // A record pointing past the end of the file (media damage or a
    // hand-edited manifest) must not grow the mapping beyond the bytes that
    // exist: its extent is dropped by the bounds check below.
    segments_[s].size = std::min(physical, committed);
  }

  // Validate surviving extents: bounds always, payload CRC when asked.
  // (The fsync ordering makes both vacuous after a clean crash; they guard
  // against media corruption and hand-edited stores.)
  for (auto it = index_.begin(); it != index_.end();) {
    const Extent& extent = it->second;
    bool ok = extent.length == 0 ||
              (extent.segment < segments_.size() &&
               extent.offset + extent.length <=
                   segments_[extent.segment].size);
    if (ok && options.verify_on_open) {
      const uint8_t* data = nullptr;
      std::shared_ptr<Mapping> mapping;
      if (extent.length > 0) {
        mapping = mapping_for(extent.segment, extent.offset + extent.length);
        data = mapping->base + extent.offset;
      }
      ok = payload_crc(it->first, data, extent.length) == extent.payload_crc;
    }
    if (!ok) {
      ++open_report_.corrupt_blocks_dropped;
      it = index_.erase(it);
    } else {
      live_bytes_ += static_cast<int64_t>(extent.length);
      ++it;
    }
  }
  open_report_.blocks_recovered = static_cast<int64_t>(index_.size());
}

std::shared_ptr<MmapBlockStore::Mapping> MmapBlockStore::mapping_for(
    uint32_t seg, uint64_t need) const {
  Segment& segment = segments_[seg];
  if (segment.mapping && segment.mapping->len >= need) {
    return segment.mapping;
  }
  // Map the full committed prefix so one remap serves all current blocks.
  const uint64_t len = std::max(need, segment.size);
  void* base =
      ::mmap(nullptr, len, PROT_READ, MAP_SHARED, segment.fd, 0);
  if (base == MAP_FAILED) throw_errno("mmap " + segment_path(seg));
  auto mapping = std::make_shared<Mapping>();
  mapping->base = static_cast<const uint8_t*>(base);
  mapping->len = len;
  // The previous (shorter) mapping is released when its last view drops.
  segment.mapping = mapping;
  return mapping;
}

void MmapBlockStore::append_record(uint8_t type, BlockId block,
                                   const Extent& extent) {
  uint8_t rec[kRecordSize];
  put_le32(rec, kRecordMarker);
  put_le32(rec + 4, type);
  put_le64(rec + 8, static_cast<uint64_t>(block));
  put_le32(rec + 16, extent.segment);
  put_le32(rec + 20, 0);  // reserved
  put_le64(rec + 24, extent.offset);
  put_le64(rec + 32, extent.length);
  put_le32(rec + 40, extent.payload_crc);
  put_le32(rec + 44, crc32(rec, 44));
  pwrite_all(manifest_fd_, rec, kRecordSize,
             static_cast<uint64_t>(manifest_size_), "manifest record");
  if (options_.sync == MmapStoreOptions::SyncPolicy::kEveryCommit) {
    sync_fd(manifest_fd_, "manifest");
  }
  manifest_size_ += static_cast<int64_t>(kRecordSize);
}

void MmapBlockStore::put(BlockId block, datapath::BlockBuffer bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Extent extent;
  extent.length = bytes.size();
  extent.payload_crc = payload_crc(block, bytes.data(), bytes.size());
  if (!bytes.empty()) {
    // Roll to a fresh segment when the current one is full (never split a
    // block across segments).
    if (segments_.empty() ||
        (segments_.back().size > 0 &&
         segments_.back().size + bytes.size() >
             static_cast<uint64_t>(options_.segment_bytes))) {
      Segment seg;
      seg.fd = open_segment_file(static_cast<uint32_t>(segments_.size()),
                                 /*create=*/true);
      seg.size = 0;
      segments_.push_back(std::move(seg));
      if (options_.sync == MmapStoreOptions::SyncPolicy::kEveryCommit) {
        sync_dir();  // the new file's directory entry must outlive a crash
      }
    }
    Segment& seg = segments_.back();
    extent.segment = static_cast<uint32_t>(segments_.size() - 1);
    extent.offset = seg.size;
    pwrite_all(seg.fd, bytes.data(), bytes.size(), seg.size, "segment");
    if (options_.sync == MmapStoreOptions::SyncPolicy::kEveryCommit) {
      // Payload durable before its record: a durable record never points
      // at undurable bytes (the commit protocol in the header comment).
      sync_fd(seg.fd, "segment");
    }
    seg.size += bytes.size();
  }
  append_record(kRecordPut, block, extent);
  const auto it = index_.find(block);
  if (it != index_.end()) {
    live_bytes_ -= static_cast<int64_t>(it->second.length);
  }
  live_bytes_ += static_cast<int64_t>(extent.length);
  index_[block] = extent;
}

std::optional<datapath::BlockBuffer> MmapBlockStore::get(
    BlockId block) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(block);
  if (it == index_.end()) return std::nullopt;
  const Extent& extent = it->second;
  if (extent.length == 0) return datapath::BlockBuffer();
  const auto mapping = mapping_for(extent.segment,
                                   extent.offset + extent.length);
  // Zero-copy view: the buffer shares the mapping's lifetime; no payload
  // bytes are resident beyond what the page cache chooses to keep.
  return datapath::BlockBuffer::view_of(mapping,
                                        mapping->base + extent.offset,
                                        extent.length);
}

bool MmapBlockStore::erase(BlockId block) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(block);
  if (it == index_.end()) return false;
  Extent extent;  // ERASE records carry no payload
  append_record(kRecordErase, block, extent);
  live_bytes_ -= static_cast<int64_t>(it->second.length);
  index_.erase(it);
  return true;
}

bool MmapBlockStore::contains(BlockId block) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(block) > 0;
}

size_t MmapBlockStore::block_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

int64_t MmapBlockStore::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_bytes_;
}

std::vector<BlockId> MmapBlockStore::block_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockId> ids;
  ids.reserve(index_.size());
  for (const auto& [id, extent] : index_) ids.push_back(id);
  return ids;  // map order: ascending
}

std::map<BlockId, datapath::BlockBuffer> MmapBlockStore::export_blocks()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<BlockId, datapath::BlockBuffer> out;
  for (const auto& [id, extent] : index_) {
    if (extent.length == 0) {
      out.emplace(id, datapath::BlockBuffer());
      continue;
    }
    const auto mapping = mapping_for(extent.segment,
                                     extent.offset + extent.length);
    out.emplace(id, datapath::BlockBuffer::view_of(
                        mapping, mapping->base + extent.offset,
                        extent.length));
  }
  return out;
}

void MmapBlockStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Segment& seg : segments_) sync_fd(seg.fd, "segment");
  sync_fd(manifest_fd_, "manifest");
  sync_dir();
}

int64_t MmapBlockStore::manifest_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_size_;
}

int MmapBlockStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(segments_.size());
}

void MmapBlockStore::drop_page_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Segment& seg : segments_) {
    ::posix_fadvise(seg.fd, 0, 0, POSIX_FADV_DONTNEED);
  }
  if (manifest_fd_ >= 0) {
    ::posix_fadvise(manifest_fd_, 0, 0, POSIX_FADV_DONTNEED);
  }
}

}  // namespace ear::store
