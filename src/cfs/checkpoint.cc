#include "cfs/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/crc32.h"

namespace ear::cfs {

namespace {

// One format version.  Nothing keeps a checkpoint past the process that
// wrote it, so the reader accepts exactly the version the writer emits and
// names any other.
constexpr char kMagic[8] = {'E', 'A', 'R', 'C', 'K', 'P', 'T', '7'};
constexpr size_t kCrcBytes = 4;
// Sanity cap on NameNode lock stripes (each costs an allocation at load).
constexpr int64_t kMaxNamespaceShards = 1 << 16;

// ---- little-endian primitives ------------------------------------------

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<uint8_t>& out, int64_t v) {
  put_u64(out, static_cast<uint64_t>(v));
}

void put_bytes(std::vector<uint8_t>& out, std::span<const uint8_t> v) {
  put_u64(out, v.size());
  out.insert(out.end(), v.begin(), v.end());
}

[[noreturn]] void reject(const std::string& why) {
  throw std::runtime_error("checkpoint rejected: " + why);
}

// Reads fields from [0, end) of the image.  A length is checked against
// the bytes left before it sizes anything; counts size nothing, since each
// record they count consumes bytes.
class Reader {
 public:
  Reader(const std::vector<uint8_t>& data, size_t end)
      : data_(&data), end_(end) {}

  size_t left() const { return end_ - pos_; }

  uint64_t u64() {
    if (left() < 8) throw std::runtime_error("checkpoint truncated");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>((*data_)[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  int64_t i64() { return static_cast<int64_t>(u64()); }

  // An i64 field that must lie in [lo, hi].
  int64_t i64_in(const char* name, int64_t lo, int64_t hi) {
    const int64_t v = i64();
    if (v < lo || v > hi) {
      reject(std::string(name) + " = " + std::to_string(v) +
             " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
             "]");
    }
    return v;
  }

  std::vector<uint8_t> bytes() {
    const uint64_t len = u64();
    if (len > left()) throw std::runtime_error("checkpoint truncated");
    const auto begin = data_->begin() + static_cast<ptrdiff_t>(pos_);
    pos_ += static_cast<size_t>(len);
    return std::vector<uint8_t>(begin, begin + static_cast<ptrdiff_t>(len));
  }

 private:
  const std::vector<uint8_t>* data_;
  size_t end_;
  size_t pos_ = sizeof(kMagic);
};

// Checks the magic, the version and the trailing CRC-32; returns where the
// fields end.
size_t check_frame(const std::vector<uint8_t>& data) {
  if (data.size() < sizeof(kMagic) + kCrcBytes ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic) - 1) != 0) {
    throw std::runtime_error("not an EAR checkpoint");
  }
  const char version = static_cast<char>(data[7]);
  if (version != kMagic[7]) {
    throw std::runtime_error("unsupported EAR checkpoint version 'EARCKPT" +
                             std::string(1, version) +
                             "' (this build reads EARCKPT7 only)");
  }
  const size_t end = data.size() - kCrcBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kCrcBytes; ++i) {
    stored |= static_cast<uint32_t>(data[end + i]) << (8 * i);
  }
  if (stored != crc32(data.data(), end)) {
    throw std::runtime_error("checkpoint checksum mismatch");
  }
  return end;
}

// Constructors report an unusable config with std::invalid_argument; from a
// checkpoint that is malformed input like any other.
template <typename F>
auto config_checked(F&& build) {
  try {
    return build();
  } catch (const std::invalid_argument& e) {
    reject(std::string("invalid config: ") + e.what());
  }
}

}  // namespace

std::vector<uint8_t> save_checkpoint(const MiniCfs& cfs) {
  const ClusterImage image = cfs.export_image();
  std::vector<uint8_t> out;
  // Byte-wise append (not a range insert): GCC 12's -Wstringop-overflow
  // false-positives on inserting a char array range into a fresh vector.
  for (const char c : kMagic) out.push_back(static_cast<uint8_t>(c));

  // Config.
  put_i64(out, image.config.racks);
  put_i64(out, image.config.nodes_per_rack);
  put_i64(out, image.config.placement.code.n);
  put_i64(out, image.config.placement.code.k);
  put_i64(out, image.config.placement.replication);
  put_i64(out, image.config.placement.one_replica_per_rack ? 1 : 0);
  put_i64(out, image.config.placement.c);
  put_i64(out, image.config.placement.target_racks);
  put_i64(out, image.config.use_ear ? 1 : 0);
  put_i64(out, image.config.block_size);
  put_i64(out,
          image.config.construction == erasure::Construction::kCauchy ? 1
                                                                      : 0);
  put_u64(out, image.config.seed);
  put_i64(out, image.config.namespace_shards);
  put_i64(out, image.config.cache_bytes);
  put_i64(out, static_cast<int64_t>(image.config.store_backend));
  {
    const std::string& dir = image.config.store_dir;
    put_bytes(out, {reinterpret_cast<const uint8_t*>(dir.data()),
                    dir.size()});
  }
  put_i64(out, image.config.store_segment_bytes);
  put_i64(out, image.config.ecdag_enable ? 1 : 0);
  // The codec family plus its sub-packetization.  alpha is derivable from
  // (family, n, k) but serialized anyway so a reader can reject a
  // checkpoint whose block layout it would mis-slice (a guard in case a
  // family's alpha derivation ever changes).
  put_i64(out, static_cast<int64_t>(image.config.codec_family));
  put_i64(out, cfs.codec().alpha());
  put_i64(out, image.next_block_id);

  // Block locations.
  put_u64(out, image.locations.size());
  for (const auto& [block, locs] : image.locations) {
    put_i64(out, block);
    put_u64(out, locs.size());
    for (const NodeId n : locs) put_i64(out, n);
  }

  // Stripes.
  put_u64(out, image.stripes.size());
  for (const auto& [id, meta] : image.stripes) {
    put_i64(out, id);
    put_i64(out, meta.encoded ? 1 : 0);
    put_u64(out, meta.data_blocks.size());
    for (const BlockId b : meta.data_blocks) put_i64(out, b);
    put_u64(out, meta.parity_blocks.size());
    for (const BlockId b : meta.parity_blocks) put_i64(out, b);
  }

  // Block -> stripe positions.
  put_u64(out, image.block_positions.size());
  for (const auto& [block, pos] : image.block_positions) {
    put_i64(out, block);
    put_i64(out, pos.first);
    put_i64(out, pos.second);
  }

  // Node block stores.
  put_u64(out, image.node_blocks.size());
  for (const auto& store : image.node_blocks) {
    put_u64(out, store.size());
    for (const auto& [block, data] : store) {
      put_i64(out, block);
      put_bytes(out, data.span());
    }
  }

  const uint32_t crc = crc32(out.data(), out.size());
  for (size_t i = 0; i < kCrcBytes; ++i) {
    out.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return out;
}

std::unique_ptr<MiniCfs> load_checkpoint(
    const std::vector<uint8_t>& data, std::unique_ptr<Transport> transport) {
  Reader in(data, check_frame(data));
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Stripe ids stay clear of the int64 ends: from_image steps one past the
  // largest and the smallest.
  constexpr int64_t kMaxStripeId = int64_t{1} << 62;

  ClusterImage image;
  CfsConfig& config = image.config;
  // Every node carries at least its 8-byte store record count, so the
  // topology can never outgrow the bytes left.
  config.racks = static_cast<int>(
      in.i64_in("racks", 1, static_cast<int64_t>(in.left() / 8)));
  config.nodes_per_rack = static_cast<int>(
      in.i64_in("nodes_per_rack", 1,
                static_cast<int64_t>(in.left() / 8) / config.racks));
  const int64_t nodes =
      static_cast<int64_t>(config.racks) * config.nodes_per_rack;
  config.placement.code.n = static_cast<int>(in.i64_in("n", 2, 255));
  config.placement.code.k =
      static_cast<int>(in.i64_in("k", 1, config.placement.code.n - 1));
  const int n = config.placement.code.n;
  const int k = config.placement.code.k;
  config.placement.replication =
      static_cast<int>(in.i64_in("replication", 1, nodes));
  config.placement.one_replica_per_rack = in.i64() != 0;
  config.placement.c = static_cast<int>(in.i64_in("c", 1, n));
  config.placement.target_racks =
      static_cast<int>(in.i64_in("target_racks", 0, config.racks));
  config.use_ear = in.i64() != 0;
  if (!config.use_ear && config.racks < 2) {
    reject("random replication needs at least two racks");
  }
  config.block_size = in.i64_in("block_size", 1, kMax);
  config.construction = in.i64() != 0 ? erasure::Construction::kCauchy
                                      : erasure::Construction::kVandermonde;
  config.seed = in.u64();
  config.namespace_shards = static_cast<int>(
      in.i64_in("namespace_shards", 1, kMaxNamespaceShards));
  config.cache_bytes = in.i64_in("cache_bytes", 0, kMax);
  config.store_backend =
      static_cast<store::StoreBackend>(in.i64_in("store_backend", 0, 1));
  const std::vector<uint8_t> dir = in.bytes();
  config.store_dir.assign(dir.begin(), dir.end());
  config.store_segment_bytes = in.i64_in("store_segment_bytes", 1, kMax);
  config.ecdag_enable = in.i64() != 0;
  config.codec_family =
      static_cast<erasure::CodecFamily>(in.i64_in("codec_family", 0, 4));
  const int64_t alpha = in.i64();
  const auto codec = config_checked([&] {
    return erasure::make_codec(config.codec_family, n, k, config.construction);
  });
  if (alpha != codec->alpha()) {
    throw std::runtime_error(
        "checkpoint sub-packetization mismatch: file says alpha=" +
        std::to_string(alpha) + " but " + codec->name() + "(" +
        std::to_string(codec->n()) + "," + std::to_string(codec->k()) +
        ") derives alpha=" + std::to_string(codec->alpha()));
  }
  image.next_block_id = in.i64();

  const uint64_t location_count = in.u64();
  for (uint64_t i = 0; i < location_count; ++i) {
    const BlockId block = in.i64();
    const uint64_t locs = in.u64();
    std::vector<NodeId> nodes_of_block;
    for (uint64_t j = 0; j < locs; ++j) {
      nodes_of_block.push_back(
          static_cast<NodeId>(in.i64_in("location node", 0, nodes - 1)));
    }
    image.locations.emplace(block, std::move(nodes_of_block));
  }

  const uint64_t stripe_count = in.u64();
  for (uint64_t i = 0; i < stripe_count; ++i) {
    StripeMeta meta;
    meta.id = in.i64_in("stripe id", -kMaxStripeId, kMaxStripeId);
    meta.encoded = in.i64() != 0;
    // An encoded stripe lists all k data and n - k parity blocks; one
    // still filling lists at most k data blocks and no parity.
    const int64_t dcount =
        in.i64_in("stripe data blocks", meta.encoded ? k : 0, k);
    for (int64_t j = 0; j < dcount; ++j) meta.data_blocks.push_back(in.i64());
    const int64_t m = meta.encoded ? n - k : 0;
    const int64_t pcount = in.i64_in("stripe parity blocks", m, m);
    for (int64_t j = 0; j < pcount; ++j) meta.parity_blocks.push_back(in.i64());
    image.stripes.emplace(meta.id, std::move(meta));
  }

  const uint64_t pos_count = in.u64();
  for (uint64_t i = 0; i < pos_count; ++i) {
    const BlockId block = in.i64();
    const StripeId stripe = in.i64();
    const int pos = static_cast<int>(in.i64_in("stripe position", 0, n - 1));
    image.block_positions.emplace(block, std::make_pair(stripe, pos));
  }

  if (in.u64() != static_cast<uint64_t>(nodes)) {
    reject("node store count differs from the topology");
  }
  image.node_blocks.resize(static_cast<size_t>(nodes));
  for (auto& node_store : image.node_blocks) {
    const uint64_t blocks = in.u64();
    for (uint64_t j = 0; j < blocks; ++j) {
      const BlockId block = in.i64();
      // take() adopts the decoded vector without a byte copy.
      auto bytes = datapath::BlockBuffer::take(in.bytes());
      if (static_cast<int64_t>(bytes.size()) != config.block_size) {
        reject("block " + std::to_string(block) + " is not block_size long");
      }
      node_store.emplace(block, std::move(bytes));
    }
  }
  if (in.left() != 0) {
    reject(std::to_string(in.left()) + " trailing bytes after the stores");
  }

  return config_checked([&] {
    return MiniCfs::from_image(std::move(image), std::move(transport));
  });
}

bool save_checkpoint_file(const MiniCfs& cfs, const std::string& path) {
  const std::vector<uint8_t> image = save_checkpoint(cfs);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  std::fclose(f);
  return written == image.size();
}

std::unique_ptr<MiniCfs> load_checkpoint_file(
    const std::string& path, std::unique_ptr<Transport> transport) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open checkpoint " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    throw std::runtime_error("cannot size checkpoint " + path);
  }
  std::vector<uint8_t> data(static_cast<size_t>(size));
  const size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) {
    throw std::runtime_error("short read on checkpoint " + path);
  }
  return load_checkpoint(data, std::move(transport));
}

}  // namespace ear::cfs
