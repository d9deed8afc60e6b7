#include "datapath/block_cache.h"

#include <algorithm>

namespace ear::datapath {

BlockCache::BlockCache(Bytes capacity)
    : capacity_(capacity > 0 ? capacity : 0),
      ctr_hits_(&obs::Registry::instance().counter("datapath.cache.hits")),
      ctr_misses_(&obs::Registry::instance().counter("datapath.cache.misses")),
      ctr_evictions_(
          &obs::Registry::instance().counter("datapath.cache.evictions")),
      ctr_invalidations_(
          &obs::Registry::instance().counter("datapath.cache.invalidations")),
      gauge_bytes_(&obs::Registry::instance().gauge("datapath.cache.bytes")) {}

std::optional<BlockBuffer> BlockCache::lookup(int reader, int64_t block) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(Key{reader, block});
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ctr_misses_->add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // most recently used
  hits_.fetch_add(1, std::memory_order_relaxed);
  ctr_hits_->add();
  return it->second->bytes;  // shared reference, no byte copy
}

void BlockCache::insert(int reader, int64_t block, BlockBuffer bytes) {
  if (!enabled()) return;
  const Bytes size = static_cast<Bytes>(bytes.size());
  if (size <= 0 || size > capacity_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{reader, block};
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Newest bytes win (a repair may have rewritten the block between the
    // two fills), and the entry becomes most recently used.
    lru_.splice(lru_.begin(), lru_, it->second);
    used_ += size - static_cast<Bytes>(it->second->bytes.size());
    it->second->bytes = std::move(bytes);
    while (used_ > capacity_ && lru_.size() > 1) {
      drop_locked(std::prev(lru_.end()));
      evictions_.fetch_add(1, std::memory_order_relaxed);
      ctr_evictions_->add();
    }
    set_bytes_gauge_locked();
    return;
  }
  while (used_ + size > capacity_ && !lru_.empty()) {
    drop_locked(std::prev(lru_.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
    ctr_evictions_->add();
  }
  lru_.push_front(Entry{key, std::move(bytes)});
  index_.emplace(key, lru_.begin());
  auto& readers = readers_of_[block];
  if (std::find(readers.begin(), readers.end(), reader) == readers.end()) {
    readers.push_back(reader);
  }
  used_ += size;
  set_bytes_gauge_locked();
}

void BlockCache::invalidate_block(int64_t block) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto found = readers_of_.find(block);
  if (found == readers_of_.end()) return;
  // drop_locked edits readers_of_[block] in place; iterate a copy.
  const std::vector<int> readers = found->second;
  for (const int reader : readers) {
    const auto it = index_.find(Key{reader, block});
    if (it != index_.end()) {
      drop_locked(it->second);
      ctr_invalidations_->add();
    }
  }
  set_bytes_gauge_locked();
}

Bytes BlockCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

size_t BlockCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void BlockCache::drop_locked(std::list<Entry>::iterator it) {
  used_ -= static_cast<Bytes>(it->bytes.size());
  const Key key = it->key;
  index_.erase(key);
  const auto readers = readers_of_.find(key.block);
  if (readers != readers_of_.end()) {
    auto& vec = readers->second;
    vec.erase(std::remove(vec.begin(), vec.end(), key.reader), vec.end());
    if (vec.empty()) readers_of_.erase(readers);
  }
  lru_.erase(it);
  set_bytes_gauge_locked();
}

void BlockCache::set_bytes_gauge_locked() {
  gauge_bytes_->set(static_cast<double>(used_));
}

}  // namespace ear::datapath
