// Zero-copy block buffers — the unit of byte ownership on the data path
// (see DESIGN.md "Data path").
//
// BlockBuffer is an immutable, ref-counted byte buffer: DataNode stores,
// the staged encode/repair pipelines and cluster images hand these around
// by reference instead of deep-copying block-sized vectors.
// A replicated block held by r DataNodes is one allocation with r refs;
// fetching a block for encoding or repair shares the store's buffer under
// the store's own mutex instead of copying a full block per access.
//
// The only places bytes are physically duplicated are BlockBuffer::copy_of
// (ingesting caller-owned data, e.g. the client write path) and to_vector
// (materialising for external consumers).  Both charge the
// `datapath.bytes_copied` counter, so benches and tests can prove the copy
// elimination end to end.
//
// Ownership rules:
//  * BlockBuffer contents are immutable for the buffer's whole lifetime;
//    sharing is therefore always safe, across threads included.
//  * MutableBlockBuffer is the single-writer staging area (parity under
//    construction, decode output).  seal() freezes it into a BlockBuffer
//    without copying; the mutable handle is dead afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ear::datapath {

// Charges `bytes` to the `datapath.bytes_copied` counter (no-op when
// metrics are disabled).
void count_copy(size_t bytes);

class BlockBuffer {
 public:
  BlockBuffer() = default;

  // Copies `data` into a fresh buffer (charged to datapath.bytes_copied).
  static BlockBuffer copy_of(std::span<const uint8_t> data);

  // Takes ownership of `data` without copying the bytes.
  static BlockBuffer take(std::vector<uint8_t> data);

  // Zero-copy view of memory owned by `owner` (an mmap'd store segment, a
  // pooled arena, ...).  The returned buffer keeps `owner` alive for its
  // whole lifetime via the shared_ptr aliasing constructor; the bytes at
  // [data, data + size) must stay valid and immutable for as long as
  // `owner`'s control block is.  refs() counts handles on `owner` exactly
  // like the heap-backed variants, so cache/pipeline sharing asserts keep
  // working over persistent stores.
  static BlockBuffer view_of(std::shared_ptr<const void> owner,
                             const uint8_t* data, size_t size);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* data() const { return data_.get(); }
  std::span<const uint8_t> span() const { return {data_.get(), size_}; }
  // View of bytes [offset, offset + len); the chunk windows of the staged
  // pipeline.
  std::span<const uint8_t> window(size_t offset, size_t len) const {
    return span().subspan(offset, len);
  }

  // Zero-copy sub-buffer of bytes [offset, offset + len): shares this
  // buffer's control block via the aliasing constructor, so the full
  // allocation stays alive while any range view does.  The vector-codec
  // repair path reads sub-block ranges of helper blocks through this.
  BlockBuffer view(size_t offset, size_t len) const {
    return BlockBuffer(
        std::shared_ptr<const uint8_t[]>(data_, data_.get() + offset), len);
  }

  // Materialises a private copy (charged to datapath.bytes_copied).
  std::vector<uint8_t> to_vector() const;

  // Number of BlockBuffer handles sharing this allocation (diagnostics /
  // tests asserting zero-copy sharing).
  long refs() const { return data_.use_count(); }

  friend bool operator==(const BlockBuffer& a, const BlockBuffer& b) {
    return a.size_ == b.size_ &&
           std::equal(a.data(), a.data() + a.size_, b.data());
  }
  friend bool operator==(const BlockBuffer& a, std::span<const uint8_t> b) {
    return a.size_ == b.size() &&
           std::equal(a.data(), a.data() + a.size_, b.data());
  }
  friend bool operator==(const BlockBuffer& a,
                         const std::vector<uint8_t>& b) {
    return a == std::span<const uint8_t>(b);
  }

 private:
  BlockBuffer(std::shared_ptr<const uint8_t[]> data, size_t size)
      : data_(std::move(data)), size_(size) {}

  friend class MutableBlockBuffer;

  std::shared_ptr<const uint8_t[]> data_;
  size_t size_ = 0;
};

// Single-writer staging buffer; seal() freezes it into an immutable
// BlockBuffer without copying.
class MutableBlockBuffer {
 public:
  MutableBlockBuffer() = default;
  // Zero-filled staging area.
  explicit MutableBlockBuffer(size_t size)
      : data_(new uint8_t[size]()), size_(size) {}

  // Staging area with indeterminate contents, for writers that overwrite
  // every byte before anything reads it (parity under encode, decode
  // output): skips the zero-fill the kernels would overwrite anyway.
  static MutableBlockBuffer uninitialized(size_t size) {
    MutableBlockBuffer buf;
    buf.data_.reset(new uint8_t[size]);
    buf.size_ = size;
    return buf;
  }

  size_t size() const { return size_; }
  uint8_t* data() { return data_.get(); }
  std::span<uint8_t> span() { return {data_.get(), size_}; }

  // Freezes the contents; this handle becomes empty.  No bytes move.
  BlockBuffer seal() && {
    const size_t size = size_;
    size_ = 0;
    return BlockBuffer(std::shared_ptr<const uint8_t[]>(std::move(data_)),
                       size);
  }

 private:
  std::shared_ptr<uint8_t[]> data_;
  size_t size_ = 0;
};

}  // namespace ear::datapath
