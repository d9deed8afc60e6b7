// Vector-codec layer tests: the ErasureCodec interface, Clay coupled-layer
// MSR codes, Hitchhiker piggybacking, the scalar adapters' byte-identity
// with the seed codecs, and the sub-packetized consumers (MiniCfs degraded
// reads / repair, ClusterSim repair model).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cfs/minicfs.h"
#include "common/rng.h"
#include "datapath/block_buffer.h"
#include "erasure/clay.h"
#include "gf256/gf256.h"
#include "gf256/kernel.h"
#include "erasure/codec.h"
#include "erasure/hitchhiker.h"
#include "erasure/rs.h"
#include "sim/cluster.h"
#include "store/mem_store.h"

namespace ear::erasure {
namespace {

std::vector<uint8_t> random_bytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

// Encodes a full stripe; returns n blocks (k data + m parity).
std::vector<std::vector<uint8_t>> make_stripe(const ErasureCodec& codec,
                                              size_t block, uint64_t seed) {
  std::vector<std::vector<uint8_t>> blocks;
  for (int i = 0; i < codec.k(); ++i) {
    blocks.push_back(random_bytes(block, seed + static_cast<uint64_t>(i)));
  }
  std::vector<BlockView> data(blocks.begin(), blocks.end());
  std::vector<std::vector<uint8_t>> parity(
      static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
  std::vector<MutBlockView> pv(parity.begin(), parity.end());
  codec.encode(data, pv);
  for (auto& p : parity) blocks.push_back(std::move(p));
  return blocks;
}

// Gathers the units a plan fetches from the stripe's blocks.
std::vector<BlockView> gather_units(
    const RepairPlan& plan, const std::vector<std::vector<uint8_t>>& blocks) {
  const size_t sub = blocks.front().size() / static_cast<size_t>(plan.alpha);
  std::vector<BlockView> units;
  for (const RepairSource& src : plan.sources) {
    for (const int z : src.sub_blocks) {
      units.push_back(BlockView(blocks[static_cast<size_t>(src.id)])
                          .subspan(static_cast<size_t>(z) * sub, sub));
    }
  }
  return units;
}

std::vector<int> all_but(int n, int lost) {
  std::vector<int> ids;
  for (int i = 0; i < n; ++i) {
    if (i != lost) ids.push_back(i);
  }
  return ids;
}

TEST(ClayCode, ParametersAndShortening) {
  const ClayCode c86(8, 6);
  EXPECT_EQ(c86.q(), 2);
  EXPECT_EQ(c86.t(), 4);
  EXPECT_EQ(c86.alpha(), 16);
  EXPECT_EQ(c86.beta(), 8);

  const ClayCode c1410(14, 10);  // shortened from (16, 12)
  EXPECT_EQ(c1410.q(), 4);
  EXPECT_EQ(c1410.t(), 4);
  EXPECT_EQ(c1410.alpha(), 256);

  const ClayCode c129(12, 9);
  EXPECT_EQ(c129.alpha(), 81);

  EXPECT_THROW(ClayCode(5, 4), std::invalid_argument);   // m == 1
  EXPECT_THROW(ClayCode(20, 16), std::invalid_argument);  // alpha 1024
}

TEST(ClayCode, ReconstructAnyPattern) {
  for (const auto& [n, k] : {std::pair{6, 4}, {8, 6}, {12, 9}}) {
    const ClayCode codec(n, k);
    const size_t block = static_cast<size_t>(codec.alpha()) * 6;
    const auto blocks = make_stripe(codec, block, 77);
    Rng rng(static_cast<uint64_t>(n * 100 + k));

    for (int trial = 0; trial < 6; ++trial) {
      std::vector<int> ids(static_cast<size_t>(n));
      std::iota(ids.begin(), ids.end(), 0);
      for (size_t i = ids.size(); i > 1; --i) {
        std::swap(ids[i - 1], ids[rng.uniform(i)]);
      }
      const std::vector<int> lost(ids.begin(), ids.begin() + codec.m());
      std::vector<int> avail_ids(ids.begin() + codec.m(), ids.end());
      std::vector<BlockView> avail;
      for (const int id : avail_ids) {
        avail.emplace_back(blocks[static_cast<size_t>(id)]);
      }
      std::vector<std::vector<uint8_t>> rebuilt(
          lost.size(), std::vector<uint8_t>(block));
      std::vector<MutBlockView> out(rebuilt.begin(), rebuilt.end());
      ASSERT_TRUE(codec.reconstruct(avail_ids, avail, lost, out));
      for (size_t w = 0; w < lost.size(); ++w) {
        EXPECT_EQ(rebuilt[w], blocks[static_cast<size_t>(lost[w])])
            << "Clay(" << n << "," << k << ") lost id " << lost[w];
      }
    }
  }
}

TEST(ClayCode, RepairPlanEveryBlockByteIdentical) {
  for (const auto& [n, k] : {std::pair{8, 6}, {12, 9}, {14, 10}}) {
    const ClayCode codec(n, k);
    const size_t block = static_cast<size_t>(codec.alpha()) * 4;
    const auto blocks = make_stripe(codec, block, 123);

    for (int lost = 0; lost < n; ++lost) {
      RepairPlan plan;
      ASSERT_TRUE(codec.plan_repair(lost, all_but(n, lost), &plan));
      EXPECT_EQ(plan.lost_id, lost);
      EXPECT_EQ(plan.alpha, codec.alpha());
      EXPECT_EQ(static_cast<int>(plan.sources.size()), n - 1);
      // Optimal repair bandwidth: (n - 1) * alpha / q sub-blocks.
      EXPECT_EQ(plan.bytes_read(block),
                static_cast<Bytes>(n - 1) * block /
                    static_cast<Bytes>(codec.q()));

      const auto units = gather_units(plan, blocks);
      std::vector<uint8_t> rebuilt(block);
      ErasureCodec::apply_plan(plan, units, rebuilt);
      EXPECT_EQ(rebuilt, blocks[static_cast<size_t>(lost)])
          << "Clay(" << n << "," << k << ") lost id " << lost;
    }
  }
}

TEST(ClayCode, RepairMovesAtMost60PercentOfRs) {
  // The acceptance bar: Clay single-block repair <= 0.6x RS network bytes
  // at matched (n, k).
  for (const auto& [n, k] : {std::pair{8, 6}, {12, 9}, {14, 10}}) {
    const ClayCode codec(n, k);
    const Bytes block = static_cast<Bytes>(codec.alpha()) * 16;
    RepairPlan plan;
    ASSERT_TRUE(codec.plan_repair(0, all_but(n, 0), &plan));
    const double rs_bytes = static_cast<double>(block) * k;
    EXPECT_LE(static_cast<double>(plan.bytes_read(block)), 0.6 * rs_bytes)
        << "Clay(" << n << "," << k << ")";
  }
}

TEST(ClayCode, PlanNeedsEveryHelper) {
  const ClayCode codec(8, 6);
  std::vector<int> avail = all_but(8, 3);
  avail.erase(avail.begin());  // one helper down: no MSR plan
  RepairPlan plan;
  EXPECT_FALSE(codec.plan_repair(3, avail, &plan));
}

TEST(ClayCode, ChunkedEncodeMatchesFullEncode) {
  const ClayCode codec(8, 6);
  const size_t block = static_cast<size_t>(codec.alpha()) * 12;
  const size_t sub = block / static_cast<size_t>(codec.alpha());
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < codec.k(); ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(40 + i)));
  }
  std::vector<BlockView> dv(data.begin(), data.end());

  std::vector<std::vector<uint8_t>> full(
      static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
  std::vector<MutBlockView> fv(full.begin(), full.end());
  codec.encode(dv, fv);

  std::vector<std::vector<uint8_t>> chunked(
      static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
  std::vector<MutBlockView> cv(chunked.begin(), chunked.end());
  for (size_t offset = 0; offset < sub; offset += 5) {
    codec.encode_chunk(dv, cv, offset, std::min<size_t>(5, sub - offset));
  }
  EXPECT_EQ(full, chunked);
}

TEST(ClayCode, EncodeScheduleMatchesEncode) {
  const ClayCode codec(6, 4);
  Matrix sched;
  ASSERT_TRUE(codec.encode_schedule(&sched));
  ASSERT_EQ(sched.rows(), codec.m() * codec.alpha());
  ASSERT_EQ(sched.cols(), codec.k() * codec.alpha());

  const size_t block = static_cast<size_t>(codec.alpha()) * 3;
  const size_t sub = block / static_cast<size_t>(codec.alpha());
  const auto blocks = make_stripe(codec, block, 9);
  for (int j = 0; j < codec.m(); ++j) {
    for (int z = 0; z < codec.alpha(); ++z) {
      for (size_t b = 0; b < sub; ++b) {
        uint8_t sum = 0;
        for (int i = 0; i < codec.k(); ++i) {
          for (int y = 0; y < codec.alpha(); ++y) {
            const uint8_t c = sched.at(j * codec.alpha() + z,
                                       i * codec.alpha() + y);
            if (c != 0) {
              sum = gf::add(sum, gf::mul(c, blocks[static_cast<size_t>(i)]
                                                [static_cast<size_t>(y) * sub +
                                                 b]));
            }
          }
        }
        EXPECT_EQ(sum, blocks[static_cast<size_t>(codec.k() + j)]
                             [static_cast<size_t>(z) * sub + b]);
      }
    }
  }
}

TEST(HitchhikerCode, DataRepairMovesFewerBytesThanRs) {
  const HitchhikerCode codec(14, 10);
  const size_t block = 512;
  const auto blocks = make_stripe(codec, block, 321);

  for (int lost = 0; lost < codec.k(); ++lost) {
    RepairPlan plan;
    ASSERT_TRUE(codec.plan_repair(lost, all_but(14, lost), &plan));
    // (k - 1 + 2) b-halves plus |S_j| - 1 a-halves < k full blocks.
    EXPECT_LT(plan.bytes_read(block), static_cast<Bytes>(block) * 10);
    const auto units = gather_units(plan, blocks);
    std::vector<uint8_t> rebuilt(block);
    ErasureCodec::apply_plan(plan, units, rebuilt);
    EXPECT_EQ(rebuilt, blocks[static_cast<size_t>(lost)]) << "lost " << lost;
  }
}

TEST(HitchhikerCode, ParityRepairAndReconstruct) {
  const HitchhikerCode codec(8, 4);
  const size_t block = 256;
  const auto blocks = make_stripe(codec, block, 555);

  for (int lost = codec.k(); lost < codec.n(); ++lost) {
    RepairPlan plan;
    ASSERT_TRUE(codec.plan_repair(lost, all_but(8, lost), &plan));
    EXPECT_EQ(plan.bytes_read(block), static_cast<Bytes>(block) * 4);
    const auto units = gather_units(plan, blocks);
    std::vector<uint8_t> rebuilt(block);
    ErasureCodec::apply_plan(plan, units, rebuilt);
    EXPECT_EQ(rebuilt, blocks[static_cast<size_t>(lost)]) << "lost " << lost;
  }

  // Multi-failure: lose m mixed blocks, rebuild from the rest.
  const std::vector<int> lost = {1, 5, 2, 7};
  std::vector<int> avail_ids;
  std::vector<BlockView> avail;
  for (int id = 0; id < codec.n(); ++id) {
    if (std::find(lost.begin(), lost.end(), id) == lost.end()) {
      avail_ids.push_back(id);
      avail.emplace_back(blocks[static_cast<size_t>(id)]);
    }
  }
  std::vector<std::vector<uint8_t>> rebuilt(lost.size(),
                                            std::vector<uint8_t>(block));
  std::vector<MutBlockView> out(rebuilt.begin(), rebuilt.end());
  ASSERT_TRUE(codec.reconstruct(avail_ids, avail, lost, out));
  for (size_t w = 0; w < lost.size(); ++w) {
    EXPECT_EQ(rebuilt[w], blocks[static_cast<size_t>(lost[w])]);
  }
}

TEST(HitchhikerCode, ChunkedEncodeMatchesFullEncode) {
  const HitchhikerCode codec(9, 6);
  const size_t block = 250;  // even, not a power of two
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < codec.k(); ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(70 + i)));
  }
  std::vector<BlockView> dv(data.begin(), data.end());
  std::vector<std::vector<uint8_t>> full(
      static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
  std::vector<MutBlockView> fv(full.begin(), full.end());
  codec.encode(dv, fv);

  std::vector<std::vector<uint8_t>> chunked(
      static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
  std::vector<MutBlockView> cv(chunked.begin(), chunked.end());
  const size_t sub = block / 2;
  for (size_t offset = 0; offset < sub; offset += 17) {
    codec.encode_chunk(dv, cv, offset, std::min<size_t>(17, sub - offset));
  }
  EXPECT_EQ(full, chunked);
}

TEST(ScalarAdapters, RsCodecByteIdenticalToSeedRs) {
  const RSCode seed(14, 10);
  const RsCodec codec(14, 10);
  EXPECT_EQ(codec.alpha(), 1);

  const size_t block = 1024;
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 10; ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i)));
  }
  std::vector<BlockView> dv(data.begin(), data.end());
  std::vector<std::vector<uint8_t>> p_seed(4, std::vector<uint8_t>(block));
  std::vector<std::vector<uint8_t>> p_codec(4, std::vector<uint8_t>(block));
  std::vector<MutBlockView> sv(p_seed.begin(), p_seed.end());
  std::vector<MutBlockView> cv(p_codec.begin(), p_codec.end());
  seed.encode(dv, sv);
  codec.encode(dv, cv);
  EXPECT_EQ(p_seed, p_codec);

  // The repair plan is the classic k-block decode row.
  RepairPlan plan;
  ASSERT_TRUE(codec.plan_repair(3, all_but(14, 3), &plan));
  EXPECT_EQ(plan.alpha, 1);
  EXPECT_EQ(plan.total_units(), 10);
  EXPECT_EQ(plan.bytes_read(block), static_cast<Bytes>(block) * 10);
}

TEST(ScalarAdapters, LrcLocalRepairPlanReadsOneGroup) {
  const LrcCodec codec(10, 2, 2);  // n = 14, k = 10, two groups of 5
  const size_t block = 640;
  const auto blocks = make_stripe(codec, block, 999);

  RepairPlan plan;
  ASSERT_TRUE(codec.plan_repair(2, all_but(14, 2), &plan));
  EXPECT_EQ(plan.total_units(), 5);  // 4 group members + local parity
  EXPECT_EQ(plan.bytes_read(block), static_cast<Bytes>(block) * 5);
  const auto units = gather_units(plan, blocks);
  std::vector<uint8_t> rebuilt(block);
  ErasureCodec::apply_plan(plan, units, rebuilt);
  EXPECT_EQ(rebuilt, blocks[2]);

  // Global parity: generator-row plan over the k data blocks.
  ASSERT_TRUE(codec.plan_repair(13, all_but(14, 13), &plan));
  EXPECT_EQ(plan.total_units(), 10);
  const auto gunits = gather_units(plan, blocks);
  ErasureCodec::apply_plan(plan, gunits, rebuilt);
  EXPECT_EQ(rebuilt, blocks[13]);
}

TEST(RepairSourceRanges, CoalescesAdjacentSubBlocks) {
  const RepairSource src{0, {0, 1, 3, 6, 7}};
  const auto ranges = src.ranges(/*block_size=*/800, /*alpha=*/8);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].offset, 0);
  EXPECT_EQ(ranges[0].len, 200);
  EXPECT_EQ(ranges[1].offset, 300);
  EXPECT_EQ(ranges[1].len, 100);
  EXPECT_EQ(ranges[2].offset, 600);
  EXPECT_EQ(ranges[2].len, 200);
}

TEST(RsFailureReporting, SingularPlanNamesAvailableIds) {
  const RSCode code(6, 4);
  Matrix coeffs;
  std::string why;
  // A duplicated id makes the decode matrix singular; the diagnostic must
  // name the offending id set (satellite: callers used to log nothing).
  EXPECT_FALSE(code.plan_reconstruct({0, 0, 1, 2}, {3}, &coeffs, &why));
  EXPECT_NE(why.find("available_ids=[0,0,1,2]"), std::string::npos) << why;
  EXPECT_NE(why.find("RS(6,4"), std::string::npos) << why;
}

// Output buffers the data path allocates without zero-filling: every codec
// must write each output byte before it accumulates into it, so encode,
// chunked encode, reconstruct and plan execution into a buffer pre-filled
// with 0xA5 match the same calls into a zero-initialised one.
TEST(CodecOutputs, PrefilledBuffersMatchZeroInitialised) {
  struct Case {
    std::string name;
    std::shared_ptr<const ErasureCodec> codec;
  };
  const std::vector<Case> cases = {
      {"rs", make_codec(CodecFamily::kRS, 10, 6)},
      {"lrc", make_codec(CodecFamily::kLRC, 11, 8)},
      {"crs", std::make_shared<CrsCodec>(10, 6)},
      {"clay", make_codec(CodecFamily::kClay, 10, 6)},
      {"hitchhiker", make_codec(CodecFamily::kHitchhiker, 10, 6)},
  };
  const size_t block = 64 * 1024;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ErasureCodec& codec = *c.codec;
    const int n = codec.n(), k = codec.k();
    const size_t m = static_cast<size_t>(codec.m());
    const auto stripe = make_stripe(codec, block, 4242);
    const std::vector<BlockView> data(stripe.begin(), stripe.begin() + k);

    using Work = std::function<void(const std::vector<MutBlockView>&)>;
    // Runs `work` on `count` fresh outputs filled with `fill`.
    const auto outputs = [&](size_t count, uint8_t fill, const Work& work) {
      std::vector<std::vector<uint8_t>> out(count,
                                            std::vector<uint8_t>(block, fill));
      work(std::vector<MutBlockView>(out.begin(), out.end()));
      return out;
    };

    const Work encode = [&](const std::vector<MutBlockView>& parity) {
      codec.encode(data, parity);
    };
    EXPECT_EQ(outputs(m, 0xA5, encode), outputs(m, 0x00, encode)) << "encode";
    if (codec.family() != CodecFamily::kCRS) {  // CRS packets span the block
      const Work chunked = [&](const std::vector<MutBlockView>& parity) {
        const size_t sub = codec.sub_block_size(block);
        for (size_t off = 0; off < sub; off += 1009) {
          codec.encode_chunk(data, parity, off,
                             std::min<size_t>(1009, sub - off));
        }
      };
      EXPECT_EQ(outputs(m, 0xA5, chunked), outputs(m, 0x00, chunked))
          << "chunked encode";
    }

    // A data block and a parity block from the first k survivors.
    const std::vector<int> wanted = {0, n - 1};
    std::vector<int> avail_ids;
    std::vector<BlockView> avail;
    for (int id = 1; id < n - 1 && static_cast<int>(avail_ids.size()) < k;
         ++id) {
      avail_ids.push_back(id);
      avail.emplace_back(stripe[static_cast<size_t>(id)]);
    }
    const auto rebuilt = outputs(
        2, 0xA5, [&](const std::vector<MutBlockView>& out) {
          ASSERT_TRUE(codec.reconstruct(avail_ids, avail, wanted, out));
        });
    EXPECT_EQ(rebuilt[0], stripe[0]) << "reconstruct";
    EXPECT_EQ(rebuilt[1], stripe[static_cast<size_t>(n - 1)]) << "reconstruct";

    RepairPlan plan;
    if (codec.plan_repair(0, all_but(n, 0), &plan)) {
      const auto units = gather_units(plan, stripe);
      const auto repaired = outputs(
          1, 0xA5, [&](const std::vector<MutBlockView>& out) {
            ErasureCodec::apply_plan(plan, units, out[0]);
          });
      EXPECT_EQ(repaired[0], stripe[0]) << "plan";
    }
  }
}

TEST(CodecFactory, BuildsEachFamily) {
  const auto rs = make_codec(CodecFamily::kRS, 14, 10);
  EXPECT_EQ(rs->alpha(), 1);
  const auto lrc = make_codec(CodecFamily::kLRC, 14, 10);
  EXPECT_EQ(lrc->n(), 14);
  const auto clay = make_codec(CodecFamily::kClay, 14, 10);
  EXPECT_EQ(clay->alpha(), 256);
  const auto hh = make_codec(CodecFamily::kHitchhiker, 14, 10);
  EXPECT_EQ(hh->alpha(), 2);
  EXPECT_THROW(make_codec(CodecFamily::kCRS, 14, 10), std::invalid_argument);
  EXPECT_THROW(make_codec(CodecFamily::kLRC, 13, 11), std::invalid_argument);
}

// ------------------------------------------------------- ranged block reads

TEST(RangedReads, BlockBufferViewAliasesWithoutCopying) {
  const auto bytes = random_bytes(4096, 901);
  const auto buf = datapath::BlockBuffer::copy_of(bytes);
  const auto window = buf.view(1024, 512);
  ASSERT_EQ(window.size(), 512u);
  EXPECT_TRUE(std::equal(window.span().begin(), window.span().end(),
                         bytes.begin() + 1024));
  // The view shares the parent's allocation (aliasing shared_ptr): no copy.
  EXPECT_GE(buf.refs(), 2);
}

TEST(RangedReads, BlockStoreGetRangeServesSubRanges) {
  store::MemBlockStore store;
  const auto bytes = random_bytes(8192, 902);
  store.put(7, datapath::BlockBuffer::copy_of(bytes));
  const auto mid = store.get_range(7, 4096, 1024);
  ASSERT_TRUE(mid.has_value());
  EXPECT_TRUE(std::equal(mid->span().begin(), mid->span().end(),
                         bytes.begin() + 4096));
  EXPECT_FALSE(store.get_range(7, 8000, 1000).has_value());  // past the end
  EXPECT_FALSE(store.get_range(8, 0, 16).has_value());       // unknown block
}

// ----------------------------------------------- MiniCfs vector degraded read

cfs::CfsConfig vector_cfs_config(CodecFamily family) {
  cfs::CfsConfig cfg;
  cfg.racks = 15;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{14, 10};  // the paper's default geometry
  cfg.placement.replication = 3;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;  // divisible by Clay's alpha = 256
  cfg.seed = 11;
  cfg.codec_family = family;
  return cfg;
}

// Writes until one stripe seals and encodes it; returns cluster + originals.
std::unique_ptr<cfs::MiniCfs> sealed_encoded_cluster(
    const cfs::CfsConfig& cfg,
    std::map<BlockId, std::vector<uint8_t>>* originals, StripeId* stripe_out) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));
  Rng rng(7);
  while (cfs->sealed_stripes().empty()) {
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
    for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cfs->write_block(data);
    if (originals) (*originals)[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  if (stripe_out) *stripe_out = stripe;
  return cfs;
}

int64_t transport_bytes(cfs::MiniCfs& cfs) {
  return cfs.transport().cross_rack_bytes() +
         cfs.transport().intra_rack_bytes();
}

// Degraded reads through each vector family reconstruct byte-identical
// blocks, and the plan-driven families move fewer network bytes than the
// scalar RS whole-block fallback.
TEST(CfsVectorCodecs, DegradedReadByteIdenticalAndCheaperThanRs) {
  std::map<CodecFamily, int64_t> read_bytes;
  for (const CodecFamily family :
       {CodecFamily::kRS, CodecFamily::kClay, CodecFamily::kHitchhiker}) {
    const auto cfg = vector_cfs_config(family);
    std::map<BlockId, std::vector<uint8_t>> originals;
    StripeId stripe = kInvalidStripe;
    auto cfs = sealed_encoded_cluster(cfg, &originals, &stripe);
    const auto meta = cfs->stripe_meta(stripe);

    const BlockId victim = meta.data_blocks[1];
    const auto locs = cfs->block_locations(victim);
    ASSERT_FALSE(locs.empty());
    for (const NodeId holder : locs) cfs->kill_node(holder);

    NodeId reader = 0;
    while (!cfs->node_alive(reader)) ++reader;
    const int64_t before = transport_bytes(*cfs);
    const auto got = cfs->read_block(victim, reader);
    read_bytes[family] = transport_bytes(*cfs) - before;
    ASSERT_EQ(got, originals.at(victim)) << family_name(family);
    ASSERT_GT(read_bytes[family], 0) << family_name(family);
  }
  // RS fetches k full blocks; Clay (14,10) needs (n-1)/q = 3.25 blocks'
  // worth; Hitchhiker fetches 14 half-blocks (9 b-halves + 2 parity
  // b-halves + 3 group a-halves).
  const int64_t rs = read_bytes[CodecFamily::kRS];
  EXPECT_EQ(rs, 10 * 16_KB);
  EXPECT_LE(read_bytes[CodecFamily::kClay] * 10, rs * 6);  // <= 0.6x RS
  EXPECT_LT(read_bytes[CodecFamily::kHitchhiker], rs);
  EXPECT_EQ(read_bytes[CodecFamily::kClay], 13 * 16_KB / 4);
}

// planned_repair_bytes reports each family's plan cost; RepairManager
// charges it when replaying repair traffic.
TEST(CfsVectorCodecs, PlannedRepairBytesMatchesFamilyModel) {
  for (const CodecFamily family :
       {CodecFamily::kRS, CodecFamily::kClay, CodecFamily::kHitchhiker}) {
    const auto cfg = vector_cfs_config(family);
    std::map<BlockId, std::vector<uint8_t>> originals;
    StripeId stripe = kInvalidStripe;
    auto cfs = sealed_encoded_cluster(cfg, &originals, &stripe);
    const auto meta = cfs->stripe_meta(stripe);
    const Bytes planned = cfs->planned_repair_bytes(meta.data_blocks[0]);
    switch (family) {
      case CodecFamily::kRS:
        EXPECT_EQ(planned, 10 * 16_KB);  // k full blocks, the seed model
        break;
      case CodecFamily::kClay:
        EXPECT_EQ(planned, 13 * 16_KB / 4);  // (n-1) helpers x block/q
        break;
      case CodecFamily::kHitchhiker:
        EXPECT_LT(planned, 10 * 16_KB);
        break;
      default:
        break;
    }
    // Un-encoded blocks are re-replicated from a live copy: one block.
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size), 0x5a);
    const BlockId plain = cfs->write_block(data);
    EXPECT_EQ(cfs->planned_repair_bytes(plain), cfg.block_size);
  }
}

// Repairing a lost block through the vector codec restores byte-identical
// contents readable from the repair target.
TEST(CfsVectorCodecs, RepairBlockRestoresBytes) {
  const auto cfg = vector_cfs_config(CodecFamily::kClay);
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_encoded_cluster(cfg, &originals, &stripe);
  const auto meta = cfs->stripe_meta(stripe);
  const BlockId victim = meta.data_blocks[3];
  for (const NodeId holder : cfs->block_locations(victim)) {
    cfs->kill_node(holder);
  }
  const NodeId target =
      cfs->pick_repair_target({}, cfs->live_stripe_nodes(victim));
  cfs->repair_block(victim, target);
  NodeId reader = 0;
  while (!cfs->node_alive(reader)) ++reader;
  EXPECT_EQ(cfs->read_block(victim, reader), originals.at(victim));
}

// ---------------------------------------------------- ClusterSim repair drill

sim::SimConfig drill_sim_config(CodecFamily family) {
  sim::SimConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.block_size = 8_MB;
  cfg.encode_processes = 4;
  cfg.stripes_per_process = 5;
  cfg.write_rate = 0;
  cfg.background_rate = 0;
  cfg.repair_drill_blocks = 40;
  cfg.codec_family = family;
  cfg.seed = 41;
  return cfg;
}

TEST(SimRepairDrill, ClayMovesAtMost60PercentOfRsBytes) {
  const sim::SimResult rs =
      sim::ClusterSim(drill_sim_config(CodecFamily::kRS)).run();
  const sim::SimResult clay =
      sim::ClusterSim(drill_sim_config(CodecFamily::kClay)).run();
  ASSERT_EQ(rs.repairs_simulated, 40);
  ASSERT_EQ(clay.repairs_simulated, 40);
  // RS replays k full blocks per repair; Clay's plan ships
  // (n-1) * block / q = 3.5 blocks' worth.
  EXPECT_EQ(rs.repair_bytes, 40 * 6 * static_cast<int64_t>(8_MB));
  EXPECT_EQ(clay.repair_bytes, 40 * 7 * static_cast<int64_t>(8_MB) / 2);
  EXPECT_LE(clay.repair_bytes * 10, rs.repair_bytes * 6);
  EXPECT_GT(clay.repair_drill_seconds, 0);
}

TEST(SimRepairDrill, ZeroDrillBlocksReproducesPreCodecSim) {
  auto cfg = drill_sim_config(CodecFamily::kClay);
  cfg.repair_drill_blocks = 0;
  const sim::SimResult r = sim::ClusterSim(cfg).run();
  EXPECT_EQ(r.repairs_simulated, 0);
  EXPECT_EQ(r.repair_bytes, 0);
  EXPECT_EQ(r.repair_drill_seconds, 0);
}

// ---------------------------------------------------- GF kernel sweep fuzz
//
// Differential fixture: run the same seeded codec workload once under every
// compiled GF kernel (forced via gf::KernelOverride) and require the bytes
// to match the scalar kernel exactly.  The scalar field is the reference;
// any SIMD kernel drift in encode_chunk / apply_plan_chunk — including
// ragged final chunks and the Clay/Hitchhiker sub-block schedules — fails
// here byte-for-byte.
class KernelSweep : public ::testing::Test {
 protected:
  // Runs `work` under each kernel, comparing its byte output to scalar's.
  static void ExpectIdenticalOnEveryKernel(
      const std::function<std::vector<uint8_t>()>& work) {
    std::vector<uint8_t> want;
    {
      gf::KernelOverride scalar("scalar");
      want = work();
    }
    for (const gf::GfKernel* k : gf::compiled_kernels()) {
      gf::KernelOverride forced(k->name);
      const std::vector<uint8_t> got = work();
      ASSERT_EQ(got.size(), want.size()) << k->name;
      ASSERT_EQ(got, want) << "kernel " << k->name
                           << " diverges from scalar";
    }
  }

  // A ragged chunk schedule over [0, sub): prime-length steps so the final
  // chunk is partial and chunk edges land inside every vector width.
  static void ForEachRaggedChunk(
      size_t sub, const std::function<void(size_t, size_t)>& chunk) {
    constexpr size_t kStep = 1009;
    for (size_t off = 0; off < sub; off += kStep) {
      chunk(off, std::min(kStep, sub - off));
    }
  }
};

TEST_F(KernelSweep, EncodeChunkIdenticalAcrossKernelsAllFamilies) {
  struct Case {
    CodecFamily family;
    int n, k;
  };
  const Case cases[] = {
      {CodecFamily::kRS, 10, 6},
      {CodecFamily::kLRC, 11, 8},
      {CodecFamily::kClay, 10, 6},
      {CodecFamily::kHitchhiker, 10, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(family_name(c.family));
    const auto codec = make_codec(c.family, c.n, c.k);
    // Divisible by any alpha <= 256 and not a multiple of the ragged step.
    const size_t block = 64 * 1024;
    const size_t sub = codec->sub_block_size(block);
    std::vector<std::vector<uint8_t>> data;
    for (int i = 0; i < codec->k(); ++i) {
      data.push_back(random_bytes(block, 600 + static_cast<uint64_t>(i)));
    }
    const std::vector<BlockView> dv(data.begin(), data.end());
    ExpectIdenticalOnEveryKernel([&] {
      std::vector<std::vector<uint8_t>> parity(
          static_cast<size_t>(codec->m()), std::vector<uint8_t>(block));
      const std::vector<MutBlockView> pv(parity.begin(), parity.end());
      ForEachRaggedChunk(sub, [&](size_t off, size_t len) {
        codec->encode_chunk(dv, pv, off, len);
      });
      std::vector<uint8_t> all;
      for (const auto& p : parity) all.insert(all.end(), p.begin(), p.end());
      return all;
    });
  }
}

TEST_F(KernelSweep, RandomCoefficientPlansIdenticalAcrossKernels) {
  Rng rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(trial);
    const int alpha = 1 << rng.uniform(4);  // 1, 2, 4, 8
    const int nunits = 1 + rng.uniform(12);
    const size_t block = 8 * 1024;  // divisible by every alpha drawn above
    const size_t sub = block / static_cast<size_t>(alpha);
    RepairPlan plan;
    plan.lost_id = 0;
    plan.alpha = alpha;
    plan.coeffs = Matrix(alpha, nunits);
    for (int r = 0; r < alpha; ++r) {
      for (int u = 0; u < nunits; ++u) {
        // Sparse rows with the special values over-represented.
        const int draw = rng.uniform(8);
        plan.coeffs.at(r, u) = draw < 2   ? uint8_t{0}
                               : draw < 3 ? uint8_t{1}
                                          : static_cast<uint8_t>(
                                                rng.uniform(256));
      }
    }
    std::vector<std::vector<uint8_t>> unit_store;
    for (int u = 0; u < nunits; ++u) {
      unit_store.push_back(
          random_bytes(sub, 900 + static_cast<uint64_t>(trial * 16 + u)));
    }
    const std::vector<BlockView> units(unit_store.begin(), unit_store.end());
    ExpectIdenticalOnEveryKernel([&] {
      std::vector<uint8_t> out(block, 0xEE);
      ForEachRaggedChunk(sub, [&](size_t off, size_t len) {
        ErasureCodec::apply_plan_chunk(plan, units, out, off, len);
      });
      return out;
    });
  }
}

TEST_F(KernelSweep, ClayAndHitchhikerRepairPlansIdenticalAcrossKernels) {
  struct Case {
    CodecFamily family;
    int n, k;
  };
  const Case cases[] = {
      {CodecFamily::kClay, 10, 6},
      {CodecFamily::kClay, 12, 8},
      {CodecFamily::kHitchhiker, 10, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(family_name(c.family));
    const auto codec = make_codec(c.family, c.n, c.k);
    const size_t block = 64 * 1024;
    const auto blocks = make_stripe(*codec, block, 1234);
    for (const int lost : {0, c.k - 1, c.n - 1}) {
      RepairPlan plan;
      ASSERT_TRUE(codec->plan_repair(lost, all_but(c.n, lost), &plan));
      const auto units = gather_units(plan, blocks);
      const size_t sub = block / static_cast<size_t>(plan.alpha);
      ExpectIdenticalOnEveryKernel([&] {
        std::vector<uint8_t> out(block, 0x00);
        ForEachRaggedChunk(sub, [&](size_t off, size_t len) {
          ErasureCodec::apply_plan_chunk(plan, units, out, off, len);
        });
        EXPECT_EQ(out, blocks[static_cast<size_t>(lost)])
            << "repair must also be correct, not merely consistent";
        return out;
      });
    }
  }
}

}  // namespace
}  // namespace ear::erasure
