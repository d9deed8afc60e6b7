// Read-path tests: the reader-side BlockCache (LRU semantics, coherence
// with delete/encode/repair/revive, the set_transport fill fence), the
// degraded-read fan-out (reconstruction must be byte-identical in every
// interleaving of codec, failures, chunking and cache state) and the helper
// chain whole-block degraded reads run on (hop order, bytes, timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cfs/minicfs.h"
#include "common/rng.h"
#include "datapath/block_cache.h"
#include "datapath/pipeline.h"
#include "mapred/read_job.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace ear {
namespace {

using datapath::BlockBuffer;
using datapath::BlockCache;
using datapath::StagedPipeline;

BlockBuffer filled(size_t size, uint8_t value) {
  return BlockBuffer::copy_of(std::vector<uint8_t>(size, value));
}

// ---------------------------------------------------------------- BlockCache

TEST(BlockCache, HitReturnsSharedBytesAndCounts) {
  BlockCache cache(1024);
  cache.insert(/*reader=*/1, /*block=*/7, filled(100, 0xaa));
  const auto hit = cache.lookup(1, 7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ(hit->span()[0], 0xaa);
  EXPECT_GE(hit->refs(), 2);  // shares the cached allocation, no copy
  EXPECT_FALSE(cache.lookup(2, 7).has_value());  // other reader: miss
  EXPECT_FALSE(cache.lookup(1, 8).has_value());  // other block: miss
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(BlockCache, EvictsLeastRecentlyUsedUntilFit) {
  BlockCache cache(300);
  cache.insert(1, 1, filled(100, 1));
  cache.insert(1, 2, filled(100, 2));
  cache.insert(1, 3, filled(100, 3));
  EXPECT_EQ(cache.bytes_used(), 300);
  // Touch block 1 so block 2 is now the LRU tail.
  EXPECT_TRUE(cache.lookup(1, 1).has_value());
  cache.insert(1, 4, filled(100, 4));
  EXPECT_EQ(cache.bytes_used(), 300);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.lookup(1, 2).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(1, 1).has_value());
  EXPECT_TRUE(cache.lookup(1, 3).has_value());
  EXPECT_TRUE(cache.lookup(1, 4).has_value());
}

TEST(BlockCache, OversizedBufferIsNotCached) {
  BlockCache cache(100);
  cache.insert(1, 1, filled(101, 9));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0);
}

TEST(BlockCache, ReinsertRefreshesRecency) {
  BlockCache cache(200);
  cache.insert(1, 1, filled(100, 1));
  cache.insert(1, 2, filled(100, 2));
  cache.insert(1, 1, filled(100, 11));  // refresh: 2 becomes the tail
  cache.insert(1, 3, filled(100, 3));
  EXPECT_FALSE(cache.lookup(1, 2).has_value());
  const auto one = cache.lookup(1, 1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->span()[0], 11);  // newest bytes won
}

TEST(BlockCache, InvalidateBlockDropsEveryReader) {
  BlockCache cache(1024);
  cache.insert(1, 7, filled(100, 1));
  cache.insert(2, 7, filled(100, 2));
  cache.insert(1, 8, filled(100, 3));
  cache.invalidate_block(7);
  EXPECT_FALSE(cache.lookup(1, 7).has_value());
  EXPECT_FALSE(cache.lookup(2, 7).has_value());
  EXPECT_TRUE(cache.lookup(1, 8).has_value());
  EXPECT_EQ(cache.bytes_used(), 100);
}

TEST(BlockCache, ZeroCapacityDisablesEverything) {
  BlockCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(1, 1, filled(10, 1));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.lookup(1, 1).has_value());
}

// --------------------------------------------------------------- run_fanout

TEST(StagedPipelineFanout, EveryLaneFetchesEveryChunkBeforeCompute) {
  const int chunks = 8, lanes = 3;
  std::mutex mu;
  std::vector<std::vector<int>> per_lane(lanes);
  std::vector<int> computed;
  StagedPipeline::run_fanout(
      chunks, lanes,
      [&](int lane, int c) {
        std::lock_guard<std::mutex> lock(mu);
        per_lane[static_cast<size_t>(lane)].push_back(c);
      },
      [&](int c) {
        std::lock_guard<std::mutex> lock(mu);
        // compute(c) requires chunk c from EVERY lane.
        for (const auto& fetched : per_lane) {
          EXPECT_GE(static_cast<int>(fetched.size()), c + 1);
        }
        computed.push_back(c);
      });
  ASSERT_EQ(computed.size(), static_cast<size_t>(chunks));
  for (const auto& fetched : per_lane) {
    ASSERT_EQ(fetched.size(), static_cast<size_t>(chunks));
    for (int c = 0; c < chunks; ++c) {
      EXPECT_EQ(fetched[static_cast<size_t>(c)], c);  // in-order per lane
    }
  }
}

TEST(StagedPipelineFanout, SingleChunkStillRunsEveryLane) {
  // Regression: chunks == 1 must not collapse to lane 0 only — each lane
  // covers a disjoint share of the sources.
  std::mutex mu;
  std::vector<int> lanes_run;
  int computes = 0;
  StagedPipeline::run_fanout(
      /*chunks=*/1, /*lanes=*/4,
      [&](int lane, int c) {
        EXPECT_EQ(c, 0);
        std::lock_guard<std::mutex> lock(mu);
        lanes_run.push_back(lane);
      },
      [&](int) { ++computes; });
  EXPECT_EQ(lanes_run.size(), 4u);
  EXPECT_EQ(computes, 1);
}

TEST(StagedPipelineFanout, LaneExceptionPropagatesAndDrains) {
  std::atomic<int> fetches{0};
  EXPECT_THROW(StagedPipeline::run_fanout(
                   8, 3,
                   [&](int lane, int c) {
                     fetches.fetch_add(1);
                     if (lane == 1 && c == 2) {
                       throw std::runtime_error("lane died");
                     }
                   },
                   [&](int) {}),
               std::runtime_error);
  EXPECT_GE(fetches.load(), 3);
}

// --------------------------------------------------- MiniCfs + cache wiring

cfs::CfsConfig readpath_config() {
  cfs::CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;
  cfg.seed = 11;
  cfg.cache_bytes = 64_MB;
  return cfg;
}

// Writes until one stripe seals; returns the cluster and the originals.
std::unique_ptr<cfs::MiniCfs> sealed_cluster(
    const cfs::CfsConfig& cfg, Bytes preferred_chunk,
    std::map<BlockId, std::vector<uint8_t>>* originals,
    StripeId* stripe_out) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo, preferred_chunk));
  Rng rng(7);
  while (cfs->sealed_stripes().empty()) {
    std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
    for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cfs->write_block(data);
    if (originals) (*originals)[id] = std::move(data);
  }
  if (stripe_out) *stripe_out = cfs->sealed_stripes()[0];
  return cfs;
}

int64_t transport_bytes(cfs::MiniCfs& cfs) {
  return cfs.transport().cross_rack_bytes() +
         cfs.transport().intra_rack_bytes();
}

TEST(ReadPathCache, HitCostsZeroTransportBytesAndZeroCopies) {
  const auto cfg = readpath_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  auto cfs = sealed_cluster(cfg, 0, &originals, nullptr);
  const BlockId block = originals.begin()->first;

  // A reader holding no replica: the first read pays a transfer.
  NodeId reader = 0;
  const auto locs = cfs->block_locations(block);
  while (std::find(locs.begin(), locs.end(), reader) != locs.end()) ++reader;

  const int64_t before = transport_bytes(*cfs);
  EXPECT_EQ(cfs->read_block(block, reader), originals.at(block));
  EXPECT_EQ(transport_bytes(*cfs), before + cfg.block_size);

  const BlockCache* cache = cfs->block_cache();
  ASSERT_NE(cache, nullptr);
  const int64_t hits_before = cache->hits();
  EXPECT_EQ(cfs->read_block(block, reader), originals.at(block));
  EXPECT_EQ(transport_bytes(*cfs), before + cfg.block_size);  // no new bytes
  EXPECT_EQ(cache->hits(), hits_before + 1);

  // A different reader has its own entry: it pays its own first transfer.
  NodeId other = reader + 1;
  const auto locs2 = cfs->block_locations(block);
  while (std::find(locs2.begin(), locs2.end(), other) != locs2.end()) ++other;
  EXPECT_EQ(cfs->read_block(block, other), originals.at(block));
  EXPECT_EQ(transport_bytes(*cfs), before + 2 * cfg.block_size);
}

TEST(ReadPathCache, ZeroCacheBytesReproducesPreCachePath) {
  auto cfg = readpath_config();
  cfg.cache_bytes = 0;
  std::map<BlockId, std::vector<uint8_t>> originals;
  auto cfs = sealed_cluster(cfg, 0, &originals, nullptr);
  EXPECT_EQ(cfs->block_cache(), nullptr);
  const BlockId block = originals.begin()->first;
  const int64_t before = transport_bytes(*cfs);
  EXPECT_EQ(cfs->read_block(block, 0), originals.at(block));
  EXPECT_EQ(cfs->read_block(block, 0), originals.at(block));
  // Every read pays (unless the reader holds a replica) — no caching.
  const auto locs = cfs->block_locations(block);
  const bool local = std::find(locs.begin(), locs.end(), 0) != locs.end();
  EXPECT_EQ(transport_bytes(*cfs),
            before + (local ? 0 : 2 * cfg.block_size));
}

TEST(ReadPathCache, EncodeDeletionsInvalidateCachedReplicas) {
  const auto cfg = readpath_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, 0, &originals, &stripe);

  // Warm the cache for every data block from one remote reader.
  const NodeId reader = cfs->topology().node_count() - 1;
  for (const auto& [block, bytes] : originals) {
    EXPECT_EQ(cfs->read_block(block, reader), bytes);
  }
  const BlockCache* cache = cfs->block_cache();
  ASSERT_NE(cache, nullptr);
  const size_t warm_entries = cache->entries();
  EXPECT_GT(warm_entries, 0u);

  // Encoding deletes redundant replicas; every deleted block's cached copy
  // must be dropped (visibility rule), then re-reads still match.
  cfs->encode_stripe(stripe);
  EXPECT_LT(cache->entries(), warm_entries);
  for (const auto& [block, bytes] : originals) {
    EXPECT_EQ(cfs->read_block(block, reader), bytes);
  }
}

TEST(ReadPathCache, RepairAndReviveInvalidate) {
  const auto cfg = readpath_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, 0, &originals, &stripe);
  cfs->encode_stripe(stripe);

  const cfs::StripeMeta meta = cfs->stripe_meta(stripe);
  const BlockId victim = meta.data_blocks[0];
  const NodeId holder = cfs->block_locations(victim)[0];
  const NodeId reader = (holder + 1) % cfs->topology().node_count();

  EXPECT_EQ(cfs->read_block(victim, reader), originals.at(victim));
  cfs->kill_node(holder);

  // Repair rewrites the block: cached copies drop, the repaired block reads
  // back correct from everyone.
  const NodeId target = (holder + 2) % cfs->topology().node_count();
  cfs->repair_block(victim, target);
  EXPECT_EQ(cfs->read_block(victim, reader), originals.at(victim));

  // Revive flushes entries for blocks the returning node stores.
  const BlockCache* cache = cfs->block_cache();
  ASSERT_NE(cache, nullptr);
  cfs->revive_node(holder);
  EXPECT_EQ(cfs->read_block(victim, reader), originals.at(victim));
}

TEST(ReadPathCache, ReviveAllInvalidatesLikeReviveNode) {
  const auto cfg = readpath_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  auto cfs = sealed_cluster(cfg, 0, &originals, nullptr);
  const BlockId block = originals.begin()->first;
  const auto locs = cfs->block_locations(block);
  NodeId reader = 0;
  while (std::find(locs.begin(), locs.end(), reader) != locs.end()) ++reader;

  EXPECT_EQ(cfs->read_block(block, reader), originals.at(block));
  const BlockCache* cache = cfs->block_cache();
  ASSERT_NE(cache, nullptr);
  ASSERT_GT(cache->entries(), 0u);

  // Every block lives on some node and revive_all revives every node, so
  // no cached entry survives it.
  cfs->kill_node(locs[0]);
  cfs->revive_all();
  EXPECT_EQ(cache->entries(), 0u);
  EXPECT_EQ(cfs->read_block(block, reader), originals.at(block));
}

// ------------------------------------------- degraded-read fan-out property

// Property: for seeded random single-node failures, a degraded read is
// byte-identical to the original data — for every codec family, chunk
// size, cache hot or cold, first and repeated reads.  The failed node
// always holds one of the stripe's data blocks, so every case rebuilds at
// least one.  RS plans ship whole blocks and run the helper chain; Clay
// and Hitchhiker plans ship sub-block ranges and run one fan-out lane per
// source.
TEST(DegradedFanout, ByteIdenticalAcrossFailuresLanesAndCacheStates) {
  for (const auto family :
       {erasure::CodecFamily::kRS, erasure::CodecFamily::kClay,
        erasure::CodecFamily::kHitchhiker}) {
    for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
      // One-shot, unaligned, and smaller than a Clay sub-block (256 B).
      for (const Bytes chunk : {Bytes{0}, 6_KB, Bytes{100}}) {
        SCOPED_TRACE(std::string(erasure::family_name(family)) + " seed " +
                     std::to_string(seed) + " chunk " +
                     std::to_string(chunk));
        auto cfg = readpath_config();
        cfg.seed = seed;
        cfg.codec_family = family;
        // m = 4: with m = 2 a Hitchhiker data repair reads k blocks'
        // worth, a whole-block plan that would take the chain.
        if (family != erasure::CodecFamily::kRS) {
          cfg.placement.code = CodeParams{10, 6};
        }
        // Alternate cache on/off across the sweep.
        cfg.cache_bytes = (seed % 2 == 0) ? 64_MB : 0;
        std::map<BlockId, std::vector<uint8_t>> originals;
        StripeId stripe = kInvalidStripe;
        auto cfs = sealed_cluster(cfg, chunk, &originals, &stripe);
        cfs->encode_stripe(stripe);

        Rng rng(seed * 977);
        const std::vector<BlockId>& data =
            cfs->stripe_meta(stripe).data_blocks;
        const BlockId lost = data[static_cast<size_t>(
            rng.uniform(static_cast<uint64_t>(data.size())))];
        cfs->kill_node(cfs->block_locations(lost).at(0));
        const Bytes whole =
            static_cast<Bytes>(cfg.placement.code.k) * cfg.block_size;
        if (family == erasure::CodecFamily::kRS) {
          EXPECT_EQ(cfs->planned_repair_bytes(lost), whole);
        } else {
          EXPECT_LT(cfs->planned_repair_bytes(lost), whole)
              << "expected a sub-block plan";
        }

        for (const auto& [block, bytes] : originals) {
          const NodeId reader = static_cast<NodeId>(rng.uniform(
              static_cast<uint64_t>(cfs->topology().node_count())));
          const auto got = cfs->read_block(block, reader);
          ASSERT_EQ(got, bytes) << "block " << block;
          // Second read (cache hit when enabled) must be identical too.
          ASSERT_EQ(cfs->read_block(block, reader), bytes);
        }
      }
    }
  }
}

// --------------------------------------------------- degraded-read helper chain

// Records every transfer in arrival order; byte accounting as
// InstantTransport.  A non-zero `delay` makes every transfer between two
// nodes sleep that long, so the wire paces reads.
class RecordingTransport final : public cfs::Transport {
 public:
  struct Transfer {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Bytes bytes = 0;
  };

  RecordingTransport(const Topology& topo, Bytes preferred_chunk,
                     std::chrono::microseconds delay = {})
      : inner_(topo, preferred_chunk), delay_(delay) {}

  void transfer(NodeId src, NodeId dst, Bytes size) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      log_.push_back({src, dst, size});
    }
    if (src != dst) std::this_thread::sleep_for(delay_);
    inner_.transfer(src, dst, size);
  }
  Bytes preferred_chunk() const override { return inner_.preferred_chunk(); }
  int64_t cross_rack_bytes() const override {
    return inner_.cross_rack_bytes();
  }
  int64_t intra_rack_bytes() const override {
    return inner_.intra_rack_bytes();
  }

  std::vector<Transfer> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(log_, {});
  }

 private:
  cfs::InstantTransport inner_;
  std::chrono::microseconds delay_;
  std::mutex mu_;
  std::vector<Transfer> log_;
};

// One (src, dst) link of a transfer log with everything it carried.
struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bytes bytes = 0;
  int transfers = 0;
};

// Collapses a transfer log into its distinct links in order of first use.
// A chain hop moves its first chunk only after its predecessor delivered
// that chunk, so first use follows the chain even when hops overlap.
std::vector<Link> links_of(
    const std::vector<RecordingTransport::Transfer>& log) {
  std::vector<Link> links;
  for (const auto& t : log) {
    auto it = std::find_if(links.begin(), links.end(), [&t](const Link& l) {
      return l.src == t.src && l.dst == t.dst;
    });
    if (it == links.end()) {
      links.push_back({t.src, t.dst, 0, 0});
      it = links.end() - 1;
    }
    it->bytes += t.bytes;
    ++it->transfers;
  }
  return links;
}

// Kills the holder of every data block of an encoded stripe in turn and
// reads it from several readers: every degraded read must send exactly one
// block down each hop of a chain that visits each helper once, keeps each
// rack's helpers together, puts the reader's rack last and ends at the
// reader — chunked or one-shot.  RS reads follow the codec's plan.  The
// fallback input is Clay with a parity holder dead too: no plan exists
// for two lost blocks, so the read decodes k whole blocks, and those ride
// the same chain.
TEST(DegradedChain, RsReadSendsOneBlockPerHopDownAChainToTheReader) {
  bool saw_rack_pair = false;
  bool saw_reader_rack_helper = false;
  bool saw_reader_helper = false;
  for (const bool fallback : {false, true}) {
    for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
      // Clay(8,6) sub-blocks are 1 KiB: 100 B chunks pipeline the fallback.
      for (const Bytes chunk : {Bytes{0}, 6_KB, Bytes{100}}) {
        auto cfg = readpath_config();
        cfg.seed = seed;
        cfg.cache_bytes = 0;
        cfg.placement.c = 2;  // up to two stripe blocks per rack
        if (fallback) cfg.codec_family = erasure::CodecFamily::kClay;
        std::map<BlockId, std::vector<uint8_t>> originals;
        StripeId stripe = kInvalidStripe;
        auto cfs = sealed_cluster(cfg, chunk, &originals, &stripe);
        cfs->encode_stripe(stripe);
        const Topology& topo = cfs->topology();
        auto recorder = std::make_unique<RecordingTransport>(topo, chunk);
        RecordingTransport* log = recorder.get();
        cfs->set_transport(std::move(recorder));

        const cfs::StripeMeta meta = cfs->stripe_meta(stripe);
        std::vector<BlockId> stripe_blocks = meta.data_blocks;
        stripe_blocks.insert(stripe_blocks.end(), meta.parity_blocks.begin(),
                             meta.parity_blocks.end());
        const int k = cfg.placement.code.k;
        const int chunks = datapath::ChunkPlan{
            cfs->codec().sub_block_size(cfg.block_size), chunk}.count();
        const int node_count = topo.node_count();
        for (int pos = 0; pos < k; ++pos) {
          const BlockId victim = meta.data_blocks[static_cast<size_t>(pos)];
          const NodeId holder = cfs->block_locations(victim).at(0);
          // Nodes serving the stripe's other blocks: the possible helpers.
          std::set<NodeId> holders;
          for (const BlockId b : stripe_blocks) {
            if (b == victim) continue;
            for (const NodeId n : cfs->block_locations(b)) holders.insert(n);
          }
          const NodeId other_holder = cfs->block_locations(
              meta.data_blocks[static_cast<size_t>((pos + 1) % k)]).at(0);
          std::vector<NodeId> dead{holder};
          if (fallback) {
            dead.push_back(cfs->block_locations(meta.parity_blocks[0]).at(0));
            ASSERT_NE(dead[1], holder);
          }
          for (const NodeId n : dead) cfs->kill_node(n);
          EXPECT_EQ(cfs->planned_repair_bytes(victim), k * cfg.block_size);
          for (const NodeId reader : {(holder + 1) % node_count,
                                      (holder + node_count / 2) % node_count,
                                      other_holder}) {
            if (!cfs->node_alive(reader)) continue;
            SCOPED_TRACE(std::string(fallback ? "fallback" : "plan") +
                         " seed " + std::to_string(seed) + " chunk " +
                         std::to_string(chunk) + " pos " + std::to_string(pos) +
                         " reader " + std::to_string(reader));
            log->take();
            ASSERT_EQ(cfs->read_block(victim, reader), originals.at(victim));
            const std::vector<Link> links = links_of(log->take());
            ASSERT_EQ(static_cast<int>(links.size()), k);
            std::vector<NodeId> helpers;
            for (size_t i = 0; i < links.size(); ++i) {
              EXPECT_EQ(links[i].bytes, cfg.block_size) << "hop " << i;
              EXPECT_EQ(links[i].transfers, chunks) << "hop " << i;
              if (i + 1 < links.size()) {
                EXPECT_EQ(links[i].dst, links[i + 1].src) << "hop " << i;
              }
              EXPECT_TRUE(holders.count(links[i].src)) << "hop " << i;
              EXPECT_TRUE(cfs->node_alive(links[i].src)) << "hop " << i;
              helpers.push_back(links[i].src);
            }
            EXPECT_EQ(links.back().dst, reader);
            EXPECT_EQ(std::set<NodeId>(helpers.begin(), helpers.end()).size(),
                      helpers.size())
                << "a helper was visited twice";

            const RackId home = topo.rack_of(reader);
            std::set<RackId> left;  // racks the chain has moved past
            std::map<RackId, int> per_rack;
            bool in_home = false;
            for (size_t i = 0; i < helpers.size(); ++i) {
              const RackId r = topo.rack_of(helpers[i]);
              ++per_rack[r];
              if (i > 0 && r != topo.rack_of(helpers[i - 1])) {
                EXPECT_FALSE(left.count(r))
                    << "rack " << r << " helpers are not next to each other";
                left.insert(topo.rack_of(helpers[i - 1]));
              }
              if (r == home) in_home = true;
              EXPECT_TRUE(r == home || !in_home)
                  << "a remote helper follows the reader's rack";
              if (helpers[i] == reader) {
                EXPECT_EQ(i + 1, helpers.size()) << "the reader is not last";
                saw_reader_helper = true;
              }
            }
            for (const auto& [rack, count] : per_rack) {
              if (count >= 2) saw_rack_pair = true;
              if (rack == home) saw_reader_rack_helper = true;
            }
          }
          for (const NodeId n : dead) cfs->revive_node(n);
        }
      }
    }
  }
  // The sweep covered the orderings it checks.
  EXPECT_TRUE(saw_rack_pair);
  EXPECT_TRUE(saw_reader_rack_helper);
  EXPECT_TRUE(saw_reader_helper);
}

// Reads that split their helper chain so far (cfs.degraded_read.split_chains).
int64_t split_reads() {
  return obs::Registry::instance()
      .counter("cfs.degraded_read.split_chains")
      .value();
}

void enable_metrics() {
  obs::Config ocfg;
  ocfg.metrics = true;
  obs::init(ocfg);
}

// A node holding no copy of any block of `stripe`: its reads pay a wire hop
// from every helper.
NodeId stripe_free_node(cfs::MiniCfs& cfs, StripeId stripe) {
  const cfs::StripeMeta meta = cfs.stripe_meta(stripe);
  std::set<NodeId> holders;
  for (const auto* blocks : {&meta.data_blocks, &meta.parity_blocks}) {
    for (const BlockId b : *blocks) {
      for (const NodeId n : cfs.block_locations(b)) holders.insert(n);
    }
  }
  NodeId node = 0;
  while (holders.count(node)) ++node;
  return node;
}

// RS(6,4), 256 KiB blocks in two 128 KiB chunks, and a transport whose every
// hop sleeps 8 ms, longer than a chunk's decode even under a sanitizer: once
// a read has measured both, each read splits its four-helper chain in two,
// max(2 x 2, 2 + 2 - 1) = 4 chunk-times against one chain's 4 + 2 - 1 = 5.
// Exactly two hops end at the reader, every helper sends its block once,
// each segment keeps chain_order's rack order, and the bytes are those
// written.
TEST(DegradedChain, WireBoundReadSplitsIntoParallelChains) {
  enable_metrics();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto cfg = readpath_config();
    cfg.seed = seed;
    cfg.cache_bytes = 0;
    cfg.placement.code = CodeParams{6, 4};
    cfg.placement.c = 2;  // up to two stripe blocks per rack
    cfg.block_size = 256_KB;
    const Bytes chunk = 128_KB;
    std::map<BlockId, std::vector<uint8_t>> originals;
    StripeId stripe = kInvalidStripe;
    auto cfs = sealed_cluster(cfg, chunk, &originals, &stripe);
    cfs->encode_stripe(stripe);
    const Topology& topo = cfs->topology();
    auto recorder = std::make_unique<RecordingTransport>(
        topo, chunk, std::chrono::milliseconds(8));
    RecordingTransport* log = recorder.get();
    cfs->set_transport(std::move(recorder));

    const cfs::StripeMeta meta = cfs->stripe_meta(stripe);
    const int k = cfg.placement.code.k;
    const NodeId reader = stripe_free_node(*cfs, stripe);
    ASSERT_LT(reader, topo.node_count());
    const BlockId victim = meta.data_blocks[0];
    cfs->kill_node(cfs->block_locations(victim).at(0));

    // The first read finds no estimate yet and runs one chain; it measures
    // the hops and the decode.
    const int64_t before = split_reads();
    ASSERT_EQ(cfs->read_block(victim, reader), originals.at(victim));
    EXPECT_EQ(split_reads(), before);
    for (int read = 0; read < 2; ++read) {
      log->take();
      ASSERT_EQ(cfs->read_block(victim, reader), originals.at(victim));
      EXPECT_EQ(split_reads(), before + read + 1);
      const std::vector<Link> links = links_of(log->take());
      ASSERT_EQ(static_cast<int>(links.size()), k);
      std::map<NodeId, NodeId> next;  // helper -> the node it sent to
      for (const Link& link : links) {
        EXPECT_EQ(link.bytes, cfg.block_size) << "helper " << link.src;
        EXPECT_EQ(link.transfers, 2) << "helper " << link.src;
        EXPECT_TRUE(next.emplace(link.src, link.dst).second)
            << "helper " << link.src << " sent twice";
      }
      std::set<NodeId> fed;  // helpers some other helper sent to
      int into_reader = 0;
      for (const auto& [src, dst] : next) {
        if (dst == reader) {
          ++into_reader;
        } else {
          ASSERT_TRUE(next.count(dst)) << dst << " is not a helper";
          fed.insert(dst);
        }
      }
      EXPECT_EQ(into_reader, 2);
      // Walk each segment from its head: racks stay contiguous and the
      // reader's rack comes last, as in the single chain.
      const RackId home = topo.rack_of(reader);
      int walked = 0;
      for (const auto& [head, unused] : next) {
        if (fed.count(head)) continue;
        std::set<RackId> left;
        bool in_home = false;
        for (NodeId n = head, prev = kInvalidNode; n != reader;
             prev = n, n = next.at(n)) {
          ++walked;
          const RackId r = topo.rack_of(n);
          if (prev != kInvalidNode && r != topo.rack_of(prev)) {
            EXPECT_FALSE(left.count(r)) << "rack " << r << " split up";
            left.insert(topo.rack_of(prev));
          }
          in_home = in_home || r == home;
          EXPECT_TRUE(r == home || !in_home) << "remote helper after home";
        }
      }
      EXPECT_EQ(walked, k) << "segments do not cover every helper once";
    }
  }
  EXPECT_GE(obs::Registry::instance()
                .gauge("cfs.degraded_read.max_chains")
                .value(),
            2);
}

// Clay and Hitchhiker helpers ship ranged shares of their blocks, so their
// degraded reads still fan in to the reader and move exactly the plan's
// bytes.
TEST(DegradedChain, SubBlockPlansKeepTheStar) {
  for (const auto family :
       {erasure::CodecFamily::kClay, erasure::CodecFamily::kHitchhiker}) {
    for (const Bytes chunk : {Bytes{0}, Bytes{100}}) {
      SCOPED_TRACE(std::string(erasure::family_name(family)) + " chunk " +
                   std::to_string(chunk));
      auto cfg = readpath_config();
      cfg.cache_bytes = 0;
      cfg.codec_family = family;
      // m = 4: with m = 2 a Hitchhiker data repair reads k blocks' worth.
      cfg.placement.code = CodeParams{10, 6};
      std::map<BlockId, std::vector<uint8_t>> originals;
      StripeId stripe = kInvalidStripe;
      auto cfs = sealed_cluster(cfg, chunk, &originals, &stripe);
      cfs->encode_stripe(stripe);
      const Topology& topo = cfs->topology();
      auto recorder = std::make_unique<RecordingTransport>(topo, chunk);
      RecordingTransport* log = recorder.get();
      cfs->set_transport(std::move(recorder));

      const BlockId victim = cfs->stripe_meta(stripe).data_blocks[0];
      const NodeId holder = cfs->block_locations(victim).at(0);
      cfs->kill_node(holder);
      const Bytes planned = cfs->planned_repair_bytes(victim);
      EXPECT_LT(planned, cfg.placement.code.k * cfg.block_size)
          << "expected a sub-block plan";
      const NodeId reader = (holder + 1) % topo.node_count();
      log->take();
      ASSERT_EQ(cfs->read_block(victim, reader), originals.at(victim));
      Bytes total = 0;
      for (const Link& link : links_of(log->take())) {
        EXPECT_EQ(link.dst, reader) << "helper " << link.src
                                    << " did not send to the reader";
        total += link.bytes;
      }
      EXPECT_EQ(total, planned);
    }
  }
}

// RS(10,8), 1 MiB blocks, 100 MB/s links, 64 KiB chunks: the star pushes
// 8 MiB through the reader's down-link (84 ms); the chain moves 16 chunks
// through 8 hops in about (8 + 16 - 1) chunk-times, so a degraded read must
// take under half the star's time.  The fastest of three reads counts, so a
// busy host cannot fail it.  Kept out of the TSan selection: a timing bound
// there would measure the sanitizer.
TEST(ChainReadTiming, RsDegradedReadTakesUnderHalfTheStar) {
  cfs::CfsConfig cfg;
  cfg.racks = 12;
  cfg.nodes_per_rack = 1;
  cfg.placement.code = CodeParams{10, 8};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 1_MB;
  cfg.seed = 3;
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, 0, &originals, &stripe);
  cfs->encode_stripe(stripe);
  const Topology& topo = cfs->topology();

  cfs::ThrottleConfig throttle;
  throttle.node_bw = 100e6;
  throttle.rack_uplink_bw = 100e6;
  throttle.chunk_size = 64_KB;
  throttle.pipeline_chunk = 64_KB;
  cfs->set_transport(std::make_unique<cfs::ThrottledTransport>(topo, throttle));

  const BlockId victim = cfs->stripe_meta(stripe).data_blocks[0];
  const NodeId reader = stripe_free_node(*cfs, stripe);
  ASSERT_LT(reader, topo.node_count());
  cfs->kill_node(cfs->block_locations(victim).at(0));

  double best_s = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = cfs->read_block(victim, reader);
    best_s = std::min(best_s, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    ASSERT_EQ(got, originals.at(victim));
  }
  const double star_s = static_cast<double>(cfg.placement.code.k) *
                        static_cast<double>(cfg.block_size) /
                        throttle.node_bw;
  EXPECT_LT(best_s, star_s / 2) << "star " << star_s * 1e3 << " ms";
}

// The same lone chain against its wire time: 8 hops and 16 chunks of
// 64 KiB at 100 MB/s take (8 + 16 - 1) chunk-times, 15.07 ms, when every
// hop starts as soon as its chunk has landed one hop up and its links are
// free.  A hop that waited for its pool thread to wake before reserving
// its links ran the read 11% over; the fastest of three reads must land
// within 5%.  Out of TSan like its siblings.
TEST(ChainReadTiming, LoneChainRunsAtWireTime) {
  cfs::CfsConfig cfg;
  cfg.racks = 12;
  cfg.nodes_per_rack = 1;
  cfg.placement.code = CodeParams{10, 8};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 1_MB;
  cfg.seed = 3;
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, 0, &originals, &stripe);
  cfs->encode_stripe(stripe);
  const Topology& topo = cfs->topology();

  cfs::ThrottleConfig throttle;
  throttle.node_bw = 100e6;
  throttle.rack_uplink_bw = 100e6;
  throttle.chunk_size = 64_KB;
  throttle.pipeline_chunk = 64_KB;
  cfs->set_transport(std::make_unique<cfs::ThrottledTransport>(topo, throttle));

  const BlockId victim = cfs->stripe_meta(stripe).data_blocks[0];
  const NodeId reader = stripe_free_node(*cfs, stripe);
  ASSERT_LT(reader, topo.node_count());
  cfs->kill_node(cfs->block_locations(victim).at(0));

  double best_s = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = cfs->read_block(victim, reader);
    best_s = std::min(best_s, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    ASSERT_EQ(got, originals.at(victim));
  }
  const int hops = cfg.placement.code.k;
  const int chunks = static_cast<int>(cfg.block_size / throttle.pipeline_chunk);
  const double wire_s = (hops + chunks - 1) *
                        static_cast<double>(throttle.pipeline_chunk) /
                        throttle.node_bw;
  EXPECT_LT(best_s, 1.05 * wire_s) << "wire " << wire_s * 1e3 << " ms";
}

// RS(6,4), 256 KiB blocks in two 128 KiB chunks, senders' rack up-links at
// 10 MB/s while node links and rack down-links run at 40 MB/s (congestion on
// the up-links, receiver ingress clear).  One chain needs (k + S - 1) = 5
// chunk-times of the up-links (66 ms); two chains of two hops converge at
// the reader in about 3, so once the first read has measured the wire, the
// fastest of three reads must beat 0.9x the one-chain bound.  Out of TSan
// like its sibling.
TEST(ChainReadTiming, TwoChainsBeatOneWhenChunksAreFew) {
  enable_metrics();
  cfs::CfsConfig cfg;
  cfg.racks = 8;
  cfg.nodes_per_rack = 1;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 256_KB;
  cfg.seed = 3;
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, 0, &originals, &stripe);
  cfs->encode_stripe(stripe);
  const Topology& topo = cfs->topology();

  cfs::ThrottleConfig throttle;
  throttle.node_bw = 40e6;
  throttle.rack_uplink_bw = 10e6;
  throttle.rack_downlink_bw = 40e6;
  throttle.chunk_size = 128_KB;
  throttle.pipeline_chunk = 128_KB;
  cfs->set_transport(std::make_unique<cfs::ThrottledTransport>(topo, throttle));

  const NodeId reader = stripe_free_node(*cfs, stripe);
  ASSERT_LT(reader, topo.node_count());
  const BlockId victim = cfs->stripe_meta(stripe).data_blocks[0];
  cfs->kill_node(cfs->block_locations(victim).at(0));

  ASSERT_EQ(cfs->read_block(victim, reader), originals.at(victim));
  const int64_t before = split_reads();
  double best_s = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = cfs->read_block(victim, reader);
    best_s = std::min(best_s, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    ASSERT_EQ(got, originals.at(victim));
  }
  EXPECT_EQ(split_reads(), before + 3);
  const int k = cfg.placement.code.k, chunks = 2;
  const double one_chain_s = (k + chunks - 1) *
                             static_cast<double>(throttle.pipeline_chunk) /
                             throttle.rack_uplink_bw;
  EXPECT_LT(best_s, 0.9 * one_chain_s)
      << "one chain " << one_chain_s * 1e3 << " ms";
}

// ------------------------------------------------ set_transport fill fence

// Transport whose transfers block until released (same pattern as
// datapath_test): holds a read in flight deterministically.
class GateTransport final : public cfs::Transport {
 public:
  void transfer(NodeId, NodeId, Bytes) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  int64_t cross_rack_bytes() const override { return 0; }
  int64_t intra_rack_bytes() const override { return 0; }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TEST(SetTransport, InFlightGuardFencesCacheFills) {
  const auto cfg = readpath_config();
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  std::map<BlockId, std::vector<uint8_t>> originals;
  auto cfs = sealed_cluster(cfg, 0, &originals, nullptr);
  const BlockId block = originals.begin()->first;
  NodeId reader = 0;
  const auto locs = cfs->block_locations(block);
  while (std::find(locs.begin(), locs.end(), reader) != locs.end()) ++reader;

  auto gate = std::make_unique<GateTransport>();
  GateTransport* gate_ptr = gate.get();
  cfs->set_transport(std::move(gate));

  // A read is now parked inside the transport, about to fill the cache: the
  // swap must refuse until the read (and its fill) completes.
  std::thread reading([&] { cfs->read_block(block, reader); });
  gate_ptr->wait_entered();
  EXPECT_THROW(
      cfs->set_transport(std::make_unique<cfs::InstantTransport>(topo)),
      std::logic_error);
  gate_ptr->open();
  reading.join();

  // Quiesced: swap succeeds, the filled entry survives it, and a hit moves
  // zero bytes through the NEW transport.
  cfs->set_transport(std::make_unique<cfs::InstantTransport>(topo));
  EXPECT_EQ(cfs->read_block(block, reader), originals.at(block));
  EXPECT_EQ(transport_bytes(*cfs), 0);
}

// Wire-bound transport for the estimator race: every transfer between two
// nodes sleeps 8 ms (slower than a 128 KiB decode even under a sanitizer),
// and while held every transfer parks until released.
class PacedTransport final : public cfs::Transport {
 public:
  explicit PacedTransport(Bytes preferred_chunk) : chunk_(preferred_chunk) {}

  void transfer(NodeId src, NodeId dst, Bytes) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    }
    if (src != dst) std::this_thread::sleep_for(std::chrono::milliseconds(8));
  }
  Bytes preferred_chunk() const override { return chunk_; }
  int64_t cross_rack_bytes() const override { return 0; }
  int64_t intra_rack_bytes() const override { return 0; }

  void hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
    entered_ = 0;
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }

 private:
  const Bytes chunk_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool held_ = false;
};

// Degraded readers on four threads measure a wire-bound transport and split
// their chains.  A swap attempted while they are in flight throws and keeps
// the estimate, so the next read still splits; the swap that succeeds
// resets it, so reads over the instant transport (decode-bound) run one
// chain from the first read on, and every read returns the written bytes.
TEST(SetTransport, SwapResetsTheChainSplitEstimateWhileReadersRace) {
  enable_metrics();
  auto cfg = readpath_config();
  cfg.cache_bytes = 0;
  cfg.placement.code = CodeParams{6, 4};
  cfg.block_size = 256_KB;
  const Bytes chunk = 128_KB;
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, chunk, &originals, &stripe);
  cfs->encode_stripe(stripe);
  const Topology& topo = cfs->topology();
  auto paced = std::make_unique<PacedTransport>(chunk);
  PacedTransport* pace = paced.get();
  cfs->set_transport(std::move(paced));

  const BlockId victim = cfs->stripe_meta(stripe).data_blocks[0];
  const NodeId holder = cfs->block_locations(victim).at(0);
  cfs->kill_node(holder);
  std::atomic<int> wrong{0};
  const auto read_on_threads = [&](int reads_each) {
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t, reads_each] {
        const NodeId reader = (holder + 1 + t) % topo.node_count();
        for (int i = 0; i < reads_each; ++i) {
          if (cfs->read_block(victim, reader) != originals.at(victim)) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    return readers;
  };
  const auto join = [](std::vector<std::thread> threads) {
    for (auto& t : threads) t.join();
  };

  const int64_t start = split_reads();
  join(read_on_threads(3));
  EXPECT_GT(split_reads(), start) << "wire-bound reads never split";

  // Readers in flight: the swap refuses and leaves the estimate alone.
  pace->hold();
  auto racing = read_on_threads(2);
  pace->wait_entered();
  EXPECT_THROW(
      cfs->set_transport(std::make_unique<cfs::InstantTransport>(topo, chunk)),
      std::logic_error);
  pace->release();
  join(std::move(racing));
  const int64_t kept = split_reads();
  ASSERT_EQ(cfs->read_block(victim, (holder + 1) % topo.node_count()),
            originals.at(victim));
  EXPECT_EQ(split_reads(), kept + 1) << "a refused swap reset the estimate";

  // Quiesced: the swap succeeds and forgets the old transport's rates.
  cfs->set_transport(std::make_unique<cfs::InstantTransport>(topo, chunk));
  const int64_t swapped = split_reads();
  join(read_on_threads(3));
  EXPECT_EQ(split_reads(), swapped) << "decode-bound reads split";
  EXPECT_EQ(wrong.load(), 0);
}

// ----------------------------------------------------------- TestbedReadJob

TEST(TestbedReadJob, ReaderPinningIsStableAcrossPasses) {
  const auto cfg = readpath_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  auto cfs = sealed_cluster(cfg, 0, &originals, nullptr);

  mapred::ReadJobConfig job_cfg;
  job_cfg.map_slots = 4;
  job_cfg.locality = mapred::ReadLocality::kRandomRemote;
  job_cfg.seed = 5;
  mapred::TestbedReadJob job(*cfs, job_cfg);

  std::vector<BlockId> blocks;
  for (const auto& [id, bytes] : originals) blocks.push_back(id);
  std::map<BlockId, NodeId> first;
  for (const BlockId b : blocks) first[b] = job.reader_for(b);
  const auto r1 = job.run(blocks);
  const auto r2 = job.run(blocks);
  EXPECT_EQ(r1.blocks_read, static_cast<int64_t>(blocks.size()));
  EXPECT_EQ(r2.blocks_read, static_cast<int64_t>(blocks.size()));
  EXPECT_EQ(r1.failed, 0);
  for (const BlockId b : blocks) EXPECT_EQ(job.reader_for(b), first.at(b));

  // Pass 2 runs entirely out of the warmed cache.
  const BlockCache* cache = cfs->block_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->hits(), static_cast<int64_t>(blocks.size()));
}

TEST(TestbedReadJob, DataLocalPinsToReplicaHolders) {
  const auto cfg = readpath_config();
  std::map<BlockId, std::vector<uint8_t>> originals;
  auto cfs = sealed_cluster(cfg, 0, &originals, nullptr);

  mapred::ReadJobConfig job_cfg;
  job_cfg.locality = mapred::ReadLocality::kDataLocal;
  mapred::TestbedReadJob job(*cfs, job_cfg);
  std::vector<BlockId> blocks;
  for (const auto& [id, bytes] : originals) blocks.push_back(id);
  const auto report = job.run(blocks);
  EXPECT_EQ(report.data_local_reads, static_cast<int64_t>(blocks.size()));
  EXPECT_EQ(report.remote_reads, 0);
  EXPECT_EQ(report.latencies_s.size(), blocks.size());
}

// -------------------------------------------------------- concurrency (TSan)

// Readers hammer the cache while repairs and kill/revive rewrite blocks
// under it — every successful read must still return the original bytes.
TEST(ReadPathConcurrency, ReadsRacingInvalidationsStayCorrect) {
  auto cfg = readpath_config();
  cfg.block_size = 4_KB;
  cfg.cache_bytes = 1_MB;  // small: eviction races too
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
  auto cfs = sealed_cluster(cfg, 2_KB, &originals, &stripe);
  cfs->encode_stripe(stripe);

  std::vector<BlockId> blocks;
  for (const auto& [id, bytes] : originals) blocks.push_back(id);
  const int node_count = cfs->topology().node_count();

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      const BlockId b = blocks[rng.index(blocks.size())];
      const auto locs = cfs->block_locations(b);
      if (locs.empty()) continue;
      const NodeId holder = locs[0];
      cfs->kill_node(holder);
      const NodeId target =
          static_cast<NodeId>((holder + 1 + rng.uniform(
                                   static_cast<uint64_t>(node_count - 1))) %
                              node_count);
      try {
        cfs->repair_block(b, target);
      } catch (const std::runtime_error&) {
        // stripe momentarily unrecoverable under the race — benign
      }
      cfs->revive_node(holder);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(1000 + t));
      for (int i = 0; i < 120; ++i) {
        const BlockId b = blocks[rng.index(blocks.size())];
        const NodeId reader = static_cast<NodeId>(
            rng.uniform(static_cast<uint64_t>(node_count)));
        try {
          const auto got = cfs->read_block(b, reader);
          EXPECT_EQ(got, originals.at(b)) << "block " << b;
        } catch (const std::runtime_error&) {
          // all copies momentarily dead — benign
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  chaos.join();
}

}  // namespace
}  // namespace ear
