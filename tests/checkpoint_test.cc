#include "cfs/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <typeinfo>

#include "common/crc32.h"
#include "common/rng.h"

namespace ear::cfs {
namespace {

CfsConfig ck_config() {
  CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;
  cfg.seed = 51;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

std::unique_ptr<Transport> instant(const CfsConfig& cfg) {
  return std::make_unique<InstantTransport>(
      Topology(cfg.racks, cfg.nodes_per_rack));
}

// Loads a cluster with some encoded and some replicated blocks.
std::map<BlockId, std::vector<uint8_t>> populate(MiniCfs& cfs, Rng& rng) {
  std::map<BlockId, std::vector<uint8_t>> contents;
  while (cfs.sealed_stripes().size() < 2) {
    std::vector<uint8_t> block(
        static_cast<size_t>(cfs.config().block_size));
    for (auto& b : block) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cfs.write_block(block);
    contents[id] = std::move(block);
  }
  cfs.encode_stripe(cfs.sealed_stripes()[0]);
  return contents;
}

TEST(Checkpoint, RoundTripPreservesReadsAndMetadata) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(1);
  const auto contents = populate(*original, rng);

  const auto image = save_checkpoint(*original);
  EXPECT_GT(image.size(), 1000u);
  auto restored = load_checkpoint(image, instant(cfg));

  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->block_locations(id), original->block_locations(id));
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
  const StripeId encoded = original->sealed_stripes()[0];
  EXPECT_TRUE(restored->is_encoded(encoded));
  const auto orig_meta = original->stripe_meta(encoded);
  const auto rest_meta = restored->stripe_meta(encoded);
  EXPECT_EQ(rest_meta.data_blocks, orig_meta.data_blocks);
  EXPECT_EQ(rest_meta.parity_blocks, orig_meta.parity_blocks);
}

TEST(Checkpoint, RestoredClusterSurvivesFailures) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(2);
  const auto contents = populate(*original, rng);
  const auto image = save_checkpoint(*original);
  auto restored = load_checkpoint(image, instant(cfg));

  // Degraded read through decoding must work on the restored cluster.
  const StripeId stripe = restored->sealed_stripes().empty()
                              ? original->sealed_stripes()[0]
                              : restored->sealed_stripes()[0];
  (void)stripe;
  const auto meta = original->stripe_meta(original->sealed_stripes()[0]);
  const BlockId victim = meta.data_blocks[0];
  restored->kill_node(restored->block_locations(victim)[0]);
  NodeId reader = 0;
  while (!restored->node_alive(reader)) ++reader;
  EXPECT_EQ(restored->read_block(victim, reader), contents.at(victim));
}

TEST(Checkpoint, RestoredClusterAcceptsNewWrites) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(3);
  populate(*original, rng);
  const BlockId last_before = original->all_blocks().back();

  auto restored = load_checkpoint(save_checkpoint(*original), instant(cfg));
  std::vector<uint8_t> fresh(static_cast<size_t>(cfg.block_size), 0x42);
  const BlockId id = restored->write_block(fresh);
  EXPECT_GT(id, last_before) << "block ids must not collide after restore";
  EXPECT_EQ(restored->read_block(id, 0), fresh);
}

TEST(Checkpoint, FileRoundTrip) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(4);
  const auto contents = populate(*original, rng);

  const std::string path = ::testing::TempDir() + "/cluster.ckpt";
  ASSERT_TRUE(save_checkpoint_file(*original, path));
  auto restored = load_checkpoint_file(path, instant(cfg));
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbage) {
  std::vector<uint8_t> garbage{'n', 'o', 'p', 'e'};
  EXPECT_THROW(load_checkpoint(garbage, instant(ck_config())),
               std::runtime_error);
  std::vector<uint8_t> truncated{'E', 'A', 'R', 'C', 'K', 'P', 'T', '1', 0};
  EXPECT_THROW(load_checkpoint(truncated, instant(ck_config())),
               std::runtime_error);
}

// Recomputes the trailing CRC-32 after a test edits an image, so the edit
// reaches the field parser instead of failing the checksum.
void restamp(std::vector<uint8_t>& image) {
  const size_t end = image.size() - 4;
  const uint32_t crc = crc32(image.data(), end);
  for (size_t i = 0; i < 4; ++i) {
    image[end + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

// Layout: 8-byte magic, 14 fixed i64 config fields (through cache_bytes),
// the store backend, the length-prefixed store dir (empty on the mem
// backend), the segment bytes, ecdag_enable, then the codec pair
// (codec_family, alpha).
constexpr size_t kAlphaOffset = 8 + 14 * 8 + 2 * 8 + 3 * 8;

TEST(Checkpoint, RejectsVersionsOutsideSupportedRange) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(7);
  populate(*original, rng);
  auto image = save_checkpoint(*original);

  // An older and a newer digit must both fail loudly, naming the version,
  // even though the rest of the stream (checksum included) is intact.
  for (const char digit : {'6', '8'}) {
    auto bad = image;
    bad[7] = static_cast<uint8_t>(digit);
    restamp(bad);
    try {
      load_checkpoint(bad, instant(cfg));
      FAIL() << "version '" << digit << "' must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'EARCKPT") + digit +
                                           "' (this build reads EARCKPT7"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, RejectsFlippedByteByChecksum) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(9);
  populate(*original, rng);
  const auto image = save_checkpoint(*original);

  // A config field, a block byte, and the checksum itself.
  for (const size_t at : {size_t{8}, image.size() / 2, image.size() - 1}) {
    auto bad = image;
    bad[at] ^= 0x10;
    try {
      load_checkpoint(bad, instant(cfg));
      FAIL() << "flipped byte " << at << " must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, RoundTripPreservesEcdagFlag) {
  auto cfg = ck_config();
  cfg.ecdag_enable = true;
  auto original = make_cfs(cfg);
  Rng rng(10);
  const auto contents = populate(*original, rng);

  auto restored = load_checkpoint(save_checkpoint(*original), instant(cfg));
  EXPECT_TRUE(restored->config().ecdag_enable);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
}

TEST(Checkpoint, RoundTripPreservesCodecFamily) {
  auto cfg = ck_config();
  cfg.codec_family = erasure::CodecFamily::kClay;  // (8,6): alpha = 16
  auto original = make_cfs(cfg);
  Rng rng(12);
  const auto contents = populate(*original, rng);

  auto restored = load_checkpoint(save_checkpoint(*original), instant(cfg));
  EXPECT_EQ(restored->config().codec_family, erasure::CodecFamily::kClay);
  EXPECT_EQ(restored->codec().alpha(), 16);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
}

TEST(Checkpoint, RejectsSubPacketizationMismatch) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(13);
  populate(*original, rng);
  auto image = save_checkpoint(*original);

  // Corrupt the serialized alpha: the reader must refuse to mis-slice the
  // block layout.
  image[kAlphaOffset] = 99;
  restamp(image);
  try {
    load_checkpoint(image, instant(cfg));
    FAIL() << "alpha mismatch must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sub-packetization mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RoundTripPreservesStoreConfig) {
  auto cfg = ck_config();
  cfg.store_backend = store::StoreBackend::kMmap;
  cfg.store_dir = ::testing::TempDir() + "/ear-store-ckpt-roundtrip";
  cfg.store_segment_bytes = 4_MB;
  std::filesystem::remove_all(cfg.store_dir);
  std::filesystem::create_directories(cfg.store_dir);
  auto original = make_cfs(cfg);
  Rng rng(8);
  const auto contents = populate(*original, rng);
  const auto image = save_checkpoint(*original);

  // Destroy the writer before reopening: the restored cluster replays the
  // same on-disk directories, mirroring a full-cluster restart.
  original.reset();
  auto restored = load_checkpoint(image, instant(cfg));
  EXPECT_EQ(restored->config().store_backend, store::StoreBackend::kMmap);
  EXPECT_EQ(restored->config().store_dir, cfg.store_dir);
  EXPECT_EQ(restored->config().store_segment_bytes, 4_MB);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
  restored.reset();
  std::filesystem::remove_all(cfg.store_dir);
}

// ---- hostile input: CheckpointMutation ----------------------------------
//
// Seeded sweeps over a saved image: bit flips, every truncation, and huge
// values written over every field.  Each case re-stamps the checksum so it
// reaches the field parser, and must either load or throw
// std::runtime_error — no crash, no other exception type.  Under ASan with
// max_allocation_size_mb, an allocation sized from a hostile field aborts
// the run.  Built with GCC only, the compiler every CI job uses, so the
// seeded case lists are the ones CI ran.
#if defined(__GNUC__) && !defined(__clang__)

// Tiny blocks keep the image near 1.5 KB, so a sweep is a few thousand
// cheap loads.
CfsConfig mutation_config() {
  CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{4, 3};
  cfg.placement.replication = 2;
  cfg.use_ear = true;
  cfg.block_size = 48;
  cfg.seed = 3;
  return cfg;
}

std::vector<uint8_t> mutation_image() {
  auto cfs = make_cfs(mutation_config());
  Rng rng(5);
  populate(*cfs, rng);
  return save_checkpoint(*cfs);
}

struct Outcomes {
  int loaded = 0;
  int rejected = 0;
};

// Loads `image`: a load or a std::runtime_error is fine, anything else is
// a failure.  A loaded cluster must then serve a read of every block it
// knows (bytes or a std::runtime_error), so a location naming a node
// outside the topology shows up here, under ASan, rather than later.
void load_or_reject(const std::vector<uint8_t>& image, const std::string& what,
                    Outcomes* outcomes) {
  try {
    auto cfs = load_checkpoint(image, instant(mutation_config()));
    ++outcomes->loaded;
    for (const BlockId b : cfs->all_blocks()) {
      try {
        cfs->read_block(b, 0);
      } catch (const std::runtime_error&) {
      }
    }
  } catch (const std::runtime_error&) {
    ++outcomes->rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": non-standard exception";
  }
}

TEST(CheckpointMutation, BitFlipsLoadOrThrowRuntimeError) {
  const auto image = mutation_image();
  ASSERT_NO_THROW(load_checkpoint(image, instant(mutation_config())));
  const size_t body = image.size() - 4;
  Rng rng(17);
  Outcomes outcomes;
  // One random bit in every byte, then random two- to four-bit bursts.
  for (size_t at = 0; at < body; ++at) {
    auto bad = image;
    bad[at] ^= static_cast<uint8_t>(1u << rng.uniform(8));
    restamp(bad);
    load_or_reject(bad, "flip at " + std::to_string(at), &outcomes);
  }
  for (int i = 0; i < 1000; ++i) {
    auto bad = image;
    const int flips = 2 + static_cast<int>(rng.uniform(3));
    for (int f = 0; f < flips; ++f) {
      bad[rng.uniform(body)] ^= static_cast<uint8_t>(1u << rng.uniform(8));
    }
    restamp(bad);
    load_or_reject(bad, "burst " + std::to_string(i), &outcomes);
  }
  // Block payload bits load; config, count and id bits mostly do not.
  EXPECT_GT(outcomes.loaded, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

TEST(CheckpointMutation, EveryTruncationThrowsRuntimeError) {
  const auto image = mutation_image();
  for (size_t len = 0; len < image.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    std::vector<uint8_t> cut(image.begin(),
                             image.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_THROW(load_checkpoint(cut, instant(mutation_config())),
                 std::runtime_error);
    // Re-stamped, the same cut reaches the parser with a shorter body.
    if (len >= 12) {
      restamp(cut);
      EXPECT_THROW(load_checkpoint(cut, instant(mutation_config())),
                   std::runtime_error);
    }
  }
}

TEST(CheckpointMutation, HugeLengthAndCountFieldsLoadOrThrow) {
  const auto image = mutation_image();
  const size_t body = image.size() - 4;
  Outcomes outcomes;
  // Written at every offset, so each lands on every length, count, id and
  // config field (and straddles their neighbours).
  for (const uint64_t huge :
       {~uint64_t{0}, uint64_t{1} << 63, (uint64_t{1} << 63) - 1,
        uint64_t{1} << 40, uint64_t{1} << 32, uint64_t{0xFFFFFFFF}}) {
    for (size_t at = 8; at + 8 <= body; ++at) {
      auto bad = image;
      for (size_t i = 0; i < 8; ++i) {
        bad[at + i] = static_cast<uint8_t>(huge >> (8 * i));
      }
      restamp(bad);
      load_or_reject(bad, "value " + std::to_string(huge) + " at " +
                              std::to_string(at),
                     &outcomes);
    }
  }
  EXPECT_GT(outcomes.rejected, 0);
}

#endif  // GCC

}  // namespace
}  // namespace ear::cfs
