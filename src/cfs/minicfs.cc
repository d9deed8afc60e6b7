#include "cfs/minicfs.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "datapath/pipeline.h"
#include "datapath/worker_pool.h"
#include "ecdag/dag.h"
#include "ecdag/executor.h"
#include "obs/trace.h"
#include "placement/replica_layout.h"
#include "qos/qos.h"
#include "store/mem_store.h"
#include "store/mmap_store.h"

namespace ear::cfs {

namespace {

// A copy a read picked is gone: its node died after the liveness check, or
// its store no longer holds the block (`store_miss`).  A std::runtime_error,
// so callers that treat a store miss as a failed operation still catch it.
class SourceLost : public std::runtime_error {
 public:
  SourceLost(const std::string& what, bool store_miss)
      : std::runtime_error(what), store_miss_(store_miss) {}
  bool store_miss() const { return store_miss_; }

 private:
  bool store_miss_;
};

// Chain order for a pipelined whole-block reconstruction (the helper nodes,
// one per plan source): helpers in remote racks first, each rack's helpers
// next to each other so every rack link is crossed once, then the reader's
// rack, with a helper on the reader itself last because its hop is free.
// Racks and the helpers within a rack keep their order in `helpers`.
std::vector<NodeId> chain_order(const Topology& topo,
                                const std::vector<NodeId>& helpers,
                                NodeId reader) {
  const RackId home = topo.rack_of(reader);
  std::vector<RackId> racks;
  for (const NodeId n : helpers) {
    const RackId r = topo.rack_of(n);
    if (r != home && std::find(racks.begin(), racks.end(), r) == racks.end()) {
      racks.push_back(r);
    }
  }
  racks.push_back(home);
  std::vector<NodeId> chain;
  chain.reserve(helpers.size());
  for (const RackId r : racks) {
    for (const NodeId n : helpers) {
      if (n != reader && topo.rack_of(n) == r) chain.push_back(n);
    }
  }
  for (const NodeId n : helpers) {
    if (n == reader) chain.push_back(n);
  }
  return chain;
}

// How many parallel chains a wire-bound whole-block read of `chunks` chunks
// through `hops` helpers should converge at the reader: p chains cost
// about max(p * chunks, ceil(hops / p) + chunks - 1) chunk-times (the
// reader's down-link carries one block per chain; each chain fills its own
// pipeline).  The cheapest p wins, ties going to fewer chains; p = 1 is the
// single chain, p = hops the star.
int parallel_chains(int hops, int chunks) {
  int best = 1;
  int best_cost = hops + chunks - 1;
  for (int p = 2; p <= hops; ++p) {
    const int cost = std::max(p * chunks, (hops + p - 1) / p + chunks - 1);
    if (cost < best_cost) {
      best = p;
      best_cost = cost;
    }
  }
  return best;
}

// Cuts `chain` (chain_order's output) into `p` contiguous segments of at
// most ceil(size / p) helpers each and returns their lengths ({size} for
// p = 1).  Each cut
// falls on the latest rack boundary that cap allows, so a rack's helpers
// stay in one segment and its link is crossed once; where no boundary
// fits, the segment takes the cap.
std::vector<int> split_chain(const Topology& topo,
                             const std::vector<NodeId>& chain, int p) {
  const int hops = static_cast<int>(chain.size());
  const int cap = (hops + p - 1) / p;
  const auto rack_at = [&](int i) {
    return topo.rack_of(chain[static_cast<size_t>(i)]);
  };
  std::vector<int> lengths;
  int begin = 0;
  for (int left = p; left > 1; --left) {
    // Lengths that leave every later segment between 1 and cap helpers.
    const int rest = hops - begin;
    const int lo = std::max(1, rest - (left - 1) * cap);
    int len = std::min(cap, rest - (left - 1));
    for (int l = len; l >= lo; --l) {
      if (rack_at(begin + l - 1) != rack_at(begin + l)) {
        len = l;
        break;
      }
    }
    lengths.push_back(len);
    begin += len;
  }
  lengths.push_back(hops - begin);
  return lengths;
}

}  // namespace

void MiniCfs::CostEstimate::add(double seconds, size_t bytes) {
  if (bytes == 0) return;
  const double sample = seconds / static_cast<double>(bytes);
  double least = per_byte_.load(std::memory_order_relaxed);
  while ((least < 0 || sample < least) &&
         !per_byte_.compare_exchange_weak(least, sample,
                                          std::memory_order_relaxed)) {
  }
}

MiniCfs::MiniCfs(const CfsConfig& config, std::unique_ptr<Transport> transport)
    : config_(config),
      topo_(config.racks, config.nodes_per_rack),
      transport_(std::move(transport)),
      policy_(config.use_ear
                  ? make_encoding_aware_replication(topo_, config.placement,
                                                    config.seed)
                  : make_random_replication(topo_, config.placement,
                                            config.seed)),
      cache_(config.cache_bytes > 0
                 ? std::make_unique<datapath::BlockCache>(config.cache_bytes)
                 : nullptr),
      codec_(erasure::make_codec(config.codec_family, config.placement.code.n,
                                 config.placement.code.k,
                                 config.construction)),
      ns_(config.namespace_shards),
      node_alive_(static_cast<size_t>(topo_.node_count())),
      rng_(config.seed ^ 0xdeadbeefULL),
      ctr_blocks_written_(
          &obs::Registry::instance().counter("cfs.blocks_written")),
      ctr_stripes_encoded_(
          &obs::Registry::instance().counter("cfs.stripes_encoded")),
      ctr_degraded_reads_(
          &obs::Registry::instance().counter("cfs.degraded_reads")),
      ctr_degraded_read_bytes_(
          &obs::Registry::instance().counter("cfs.degraded_read_bytes")),
      ctr_repairs_(&obs::Registry::instance().counter("cfs.blocks_repaired")),
      ctr_store_misses_(
          &obs::Registry::instance().counter("cfs.read.store_misses")),
      ctr_split_chains_(&obs::Registry::instance().counter(
          "cfs.degraded_read.split_chains")),
      gauge_chains_(
          &obs::Registry::instance().gauge("cfs.degraded_read.max_chains")),
      hist_encode_s_(&obs::Registry::instance().histogram(
          "cfs.encode_stripe_seconds",
          {0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30, 60})) {
  if (config_.block_size % static_cast<Bytes>(codec_->alpha()) != 0) {
    throw std::invalid_argument(
        std::string("block_size must be divisible by the codec's "
                    "sub-packetization: ") +
        codec_->name() + " needs alpha=" + std::to_string(codec_->alpha()));
  }
  std::fill(node_alive_.begin(), node_alive_.end(), true);
  datanodes_.reserve(static_cast<size_t>(topo_.node_count()));
  for (int i = 0; i < topo_.node_count(); ++i) {
    datanodes_.push_back(make_store(i));
  }
}

MiniCfs::~MiniCfs() = default;

// ----------------------------------------------------------------- stores

std::unique_ptr<store::BlockStore> MiniCfs::make_store(NodeId node) const {
  switch (config_.store_backend) {
    case store::StoreBackend::kMem:
      return std::make_unique<store::MemBlockStore>();
    case store::StoreBackend::kMmap: {
      if (config_.store_dir.empty()) {
        throw std::invalid_argument(
            "CfsConfig::store_dir is required for the mmap store backend");
      }
      char sub[16];
      std::snprintf(sub, sizeof(sub), "node-%04d", node);
      store::MmapStoreOptions options;
      options.segment_bytes = config_.store_segment_bytes;
      return std::make_unique<store::MmapBlockStore>(
          config_.store_dir + "/" + sub, options);
    }
  }
  throw std::invalid_argument("unknown store backend");
}

void MiniCfs::set_transport(std::unique_ptr<Transport> transport) {
  std::lock_guard<std::mutex> lock(transport_mu_);
  if (transfers_in_flight_.load(std::memory_order_relaxed) != 0) {
    throw std::logic_error(
        "set_transport while data movement is in flight; quiesce workers "
        "first (see minicfs.h)");
  }
  transport_ = std::move(transport);
  // The old link rates say nothing about the new transport's.
  hop_wire_.reset();
  decode_.reset();
}

void MiniCfs::store(NodeId node, BlockId block, datapath::BlockBuffer bytes) {
  datanodes_[static_cast<size_t>(node)]->put(block, std::move(bytes));
}

datapath::BlockBuffer MiniCfs::fetch(NodeId node, BlockId block) const {
  const store::BlockStore& dn = *datanodes_[static_cast<size_t>(node)];
  auto bytes = dn.get(block);
  if (!bytes) {
    // Name everything a post-mortem needs: which replica map entry was
    // stale, which node's store, and which backend was serving it.
    throw SourceLost(
        "fetch: block " + std::to_string(block) + " not on node " +
            std::to_string(node) + " (" + dn.name() + " store holding " +
            std::to_string(dn.block_count()) + " blocks)",
        /*store_miss=*/true);
  }
  return *std::move(bytes);  // shared reference, no byte copy
}

datapath::BlockBuffer MiniCfs::fetch_range(NodeId node, BlockId block,
                                           size_t offset, size_t len) const {
  const store::BlockStore& dn = *datanodes_[static_cast<size_t>(node)];
  auto bytes = dn.get_range(block, offset, len);
  if (!bytes) {
    throw SourceLost(
        "fetch_range: block " + std::to_string(block) + " [" +
            std::to_string(offset) + ", +" + std::to_string(len) +
            ") not on node " + std::to_string(node) + " (" + dn.name() +
            " store holding " + std::to_string(dn.block_count()) + " blocks)",
        /*store_miss=*/true);
  }
  return *std::move(bytes);  // aliases the stored allocation, no byte copy
}

void MiniCfs::erase(NodeId node, BlockId block) {
  store::BlockStore& dn = *datanodes_[static_cast<size_t>(node)];
  if (!dn.erase(block)) {
    throw std::runtime_error(
        "erase: block " + std::to_string(block) + " not on node " +
        std::to_string(node) + " (" + dn.name() + " store holding " +
        std::to_string(dn.block_count()) + " blocks)");
  }
  // Replica deleted (encode step (iii) or a future GC): readers must not
  // keep serving it once the last copy is gone, so drop cached copies now.
  cache_invalidate(block);
}

// -------------------------------------------------------------- block cache

void MiniCfs::cache_fill(NodeId reader, BlockId block,
                         const datapath::BlockBuffer& bytes) {
  if (!cache_) return;
  // Fills are data movement under the set_transport contract: the read
  // that produced `bytes` must still hold its TransferScope, so a
  // transport swap can never interleave with a fill (see minicfs.h).
  if (transfers_in_flight_.load(std::memory_order_relaxed) == 0) {
    throw std::logic_error(
        "cache fill outside a TransferScope; fills must be fenced by the "
        "set_transport in-flight guard (see minicfs.h)");
  }
  cache_->insert(reader, block, bytes);
}

void MiniCfs::cache_invalidate(BlockId block) {
  if (cache_) cache_->invalidate_block(block);
}

// ------------------------------------------------------------ write path

BlockId MiniCfs::write_block(std::span<const uint8_t> data,
                             std::optional<NodeId> writer) {
  if (static_cast<Bytes>(data.size()) != config_.block_size) {
    throw std::invalid_argument("write_block: data must be one block");
  }
  obs::Span span("cfs.write_block", "cfs");
  span.arg("bytes", config_.block_size);
  qos::OpScope op(qos::TrafficClass::kForegroundWrite);
  TransferScope in_flight(*this);

  BlockPlacement placement;
  int position = 0;
  {
    // The id draw stays inside policy_mu_ so the id order matches the
    // stripe-assembly order for a given client schedule (the determinism
    // contract: ids are dense and placement is a pure function of them).
    std::lock_guard<std::mutex> lock(policy_mu_);
    const BlockId id = next_block_id_.fetch_add(1, std::memory_order_relaxed);
    placement = policy_->place_block(id, writer);
    position =
        static_cast<int>(policy_->stripe(placement.stripe).blocks.size()) - 1;
  }

  // Replication pipeline: hop h streams the block from replica h to h+1.
  // Hops overlap (HDFS streams 64 KB packets down the chain), so they run
  // concurrently here, as shared-pool tasks charging the writer's flow.
  const auto& replicas = placement.replicas;
  datapath::TaskGroup hops(datapath::WorkerPool::shared());
  for (size_t h = 0; h + 1 < replicas.size(); ++h) {
    hops.submit([this, &replicas, h] {
      transport_->transfer(replicas[h], replicas[h + 1], config_.block_size);
    });
  }
  hops.wait();

  // One physical copy off the caller's buffer; every replica shares it.
  const datapath::BlockBuffer bytes = datapath::BlockBuffer::copy_of(data);
  for (const NodeId n : replicas) {
    store(n, placement.block, bytes);
  }
  ns_.commit_new_block(placement.block,
                       std::vector<NodeId>(replicas.begin(), replicas.end()),
                       placement.stripe, position);
  ctr_blocks_written_->add();
  return placement.block;
}

// ------------------------------------------------------------- read path

NodeId MiniCfs::pick_source(const std::vector<NodeId>& locations, NodeId dst,
                            bool count_cross_rack_download) {
  // Local copy first.
  for (const NodeId n : locations) {
    if (n == dst && node_alive_[static_cast<size_t>(n)]) return n;
  }
  // Same-rack copy next.
  std::vector<NodeId> same_rack, remote;
  for (const NodeId n : locations) {
    if (!node_alive_[static_cast<size_t>(n)]) continue;
    (topo_.same_rack(n, dst) ? same_rack : remote).push_back(n);
  }
  const auto pick = [this](const std::vector<NodeId>& candidates) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    return candidates[rng_.index(candidates.size())];
  };
  if (!same_rack.empty()) return pick(same_rack);
  if (!remote.empty()) {
    if (count_cross_rack_download) ++encode_cross_rack_downloads_;
    return pick(remote);
  }
  return kInvalidNode;
}

datapath::BlockBuffer MiniCfs::read_block(BlockId block, NodeId reader) {
  // Default class for an unwrapped caller; a workload's QosScope — or the
  // kRepair scope of an enclosing repair_block — wins (see qos/qos.h).
  qos::OpScope op(qos::TrafficClass::kForegroundRead);
  TransferScope in_flight(*this);
  // Reader-side cache first: a hit is served from the reader's own memory —
  // zero copies, zero transport bytes, no source involved at all.
  if (cache_) {
    if (auto cached = cache_->lookup(reader, block)) {
      return *std::move(cached);
    }
  }
  auto locations = ns_.find_locations(block);
  if (!locations) {
    throw std::runtime_error("unknown block " + std::to_string(block));
  }
  // A conversion may erase the copy picked here between the lookup and the
  // fetch.  It commits the encoded layout first, so on a store miss the
  // locations are re-read and the next live copy tried; the buffer is taken
  // before the wire is charged, so a miss moves no bytes.
  std::vector<NodeId> missed;
  while (true) {
    const NodeId src = pick_source(*locations, reader, /*count=*/false);
    if (src == kInvalidNode) break;
    if (auto bytes = datanodes_[static_cast<size_t>(src)]->get(block)) {
      transport_->transfer(src, reader, config_.block_size);
      cache_fill(reader, block, *bytes);
      return *std::move(bytes);
    }
    ctr_store_misses_->add();
    missed.push_back(src);
    locations = ns_.find_locations(block);
    if (!locations) break;
    std::erase_if(*locations, [&missed](NodeId n) {
      return std::find(missed.begin(), missed.end(), n) != missed.end();
    });
  }
  datapath::BlockBuffer rebuilt = degraded_read(block, reader);
  cache_fill(reader, block, rebuilt);
  notify_rebuilt(block, reader, rebuilt);
  return rebuilt;
}

void MiniCfs::set_rebuild_listener(RebuildListener listener) {
  std::unique_lock<std::mutex> lock(listener_mu_);
  listener_ = listener ? std::make_shared<const RebuildListener>(
                             std::move(listener))
                       : nullptr;
  listener_cv_.wait(lock, [this] { return listener_calls_ == 0; });
}

void MiniCfs::notify_rebuilt(BlockId block, NodeId holder,
                             const datapath::BlockBuffer& bytes) {
  // A repair reads through read_block too; its rebuild is already headed
  // for a target and must not be adopted a second time.
  if (qos::current_context().cls == qos::TrafficClass::kRepair) return;
  std::shared_ptr<const RebuildListener> listener;
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    if (!listener_) return;
    listener = listener_;
    ++listener_calls_;
  }
  // Counted down even if the listener throws, or clearing would hang.
  struct CallDone {
    MiniCfs* cfs;
    ~CallDone() {
      std::lock_guard<std::mutex> lock(cfs->listener_mu_);
      if (--cfs->listener_calls_ == 0) cfs->listener_cv_.notify_all();
    }
  } done{this};
  (*listener)(block, holder, bytes);
}

datapath::BlockBuffer MiniCfs::degraded_read(BlockId block, NodeId reader) {
  qos::OpScope op(qos::TrafficClass::kForegroundRead);
  obs::Span span("cfs.degraded_read", "cfs");
  span.arg("block", block);
  ctr_degraded_reads_->add();
  // A helper picked from the live set can die, or lose its copy, before its
  // bytes are fetched (repair and revival race reads); the read then starts
  // over from a fresh liveness snapshot, as read_block does on a store
  // miss.  Nothing has been written to the reader by then.
  constexpr int kAttempts = 4;
  for (int attempt = 1;; ++attempt) {
    try {
      return degraded_read_once(block, reader);
    } catch (const SourceLost& lost) {
      if (lost.store_miss()) ctr_store_misses_->add();
      if (attempt == kAttempts) throw;
    }
  }
}

datapath::BlockBuffer MiniCfs::degraded_read_once(BlockId block,
                                                  NodeId reader) {
  // Reconstruct from any k live blocks of the stripe.
  const auto stripe_pos = ns_.find_block_stripe(block);
  if (!stripe_pos) {
    throw std::runtime_error("block lost and not in any stripe");
  }
  const StripeId stripe = stripe_pos->first;
  const int wanted_pos = stripe_pos->second;
  const auto meta = ns_.find_stripe(stripe);
  if (!meta || !meta->encoded) {
    throw std::runtime_error("block lost before its stripe was encoded");
  }

  // Live positions first, sources later: the codec's plan decides which
  // positions actually serve the read (scalar codes pick the first k,
  // LRC a local group, Clay every helper), and pick_source draws from the
  // shared RNG, so it must only run for positions the plan names — in plan
  // order — to keep the scalar path's draw sequence identical to the
  // pre-codec one.
  const auto [live_ids, live_blocks] = live_positions(*meta, wanted_pos);
  if (static_cast<int>(live_ids.size()) < codec_->k()) {
    throw std::runtime_error("stripe unrecoverable: fewer than k live blocks");
  }

  // The node serving stripe block `b`: SourceLost when every copy died
  // since the liveness snapshot above.
  const auto source_of = [this, reader](BlockId b) {
    const auto locs = ns_.find_locations(b);
    const NodeId s =
        locs ? pick_source(*locs, reader, /*count=*/false) : kInvalidNode;
    if (s == kInvalidNode) {
      throw SourceLost("degraded read: every copy of block " +
                           std::to_string(b) + " died mid-read",
                       /*store_miss=*/false);
    }
    return s;
  };

  const Bytes sub = codec_->sub_block_size(config_.block_size);
  const Bytes alpha = codec_->alpha();
  // Chunk c covers bytes [offset, offset + len) of every sub-block, so a
  // whole block ships len x alpha bytes per chunk.
  const datapath::ChunkPlan chunks{sub, transport_->preferred_chunk()};
  // Every path below writes each output byte before reading it.
  auto out = datapath::MutableBlockBuffer::uninitialized(
      static_cast<size_t>(config_.block_size));

  // Repair pipelining, for every read whose sources each ship their whole
  // block: the helpers form chains ending at the reader, and each hop
  // forwards the running partial sum of chunk c as soon as its predecessor
  // has delivered it.  Every link carries one block, and the reader's
  // down-link one per chain instead of k.  The math runs at the reader (the
  // ecdag convention: the transport charges each hop's bytes, the result is
  // byte-identical), and the wire bytes are one block per source.
  //
  // One chain costs its pipeline fill, about (hops + chunks - 1)
  // chunk-times.  When the wire paces the read (a hop's chunk takes longer
  // than its decode, by the running estimates) and blocks have few chunks,
  // the chain is cut at rack boundaries into parallel chains that converge
  // at the reader (parallel_chains has the cost model).  A decode-bound
  // read keeps one chain: extra chains would only add hand-offs.
  const auto chain_to_reader = [&](const std::vector<NodeId>& helpers,
                                   const std::function<void(int)>& compute) {
    const std::vector<NodeId> chain = chain_order(topo_, helpers, reader);
    const int hops = static_cast<int>(chain.size());
    const double wire = hop_wire_.per_byte();
    const double decode = decode_.per_byte();
    const bool wire_bound = decode >= 0 && wire > decode;
    const int p = wire_bound ? parallel_chains(hops, chunks.count()) : 1;
    const std::vector<int> segments = split_chain(topo_, chain, p);
    if (p > 1) ctr_split_chains_->add();
    gauge_chains_->set_max(static_cast<double>(p));
    // to[h]: where hop h sends; each segment's last hop reaches the reader.
    std::vector<NodeId> to(chain.begin() + 1, chain.end());
    to.push_back(reader);
    int end = 0;
    for (const int len : segments) {
      end += len;
      to[static_cast<size_t>(end - 1)] = reader;
    }
    datapath::StagedPipeline::run_chain(
        chunks.count(), segments,
        /*hop=*/
        [&](int h, int c) {
          const NodeId from = chain[static_cast<size_t>(h)];
          const NodeId next = to[static_cast<size_t>(h)];
          const auto t0 = std::chrono::steady_clock::now();
          transport_->transfer(from, next,
                               static_cast<Bytes>(chunks.len(c)) * alpha);
          // A helper on the reader moves nothing: not a wire sample.
          if (from != next) {
            hop_wire_.add(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count(),
                          chunks.len(c));
          }
        },
        compute);
  };

  erasure::RepairPlan plan;
  if (codec_->plan_repair(wanted_pos, live_ids, &plan)) {
    // Plan-driven repair: fetch only the sub-block ranges the plan names
    // (whole blocks at alpha == 1) and run the coefficient schedule.  The
    // transport is charged exactly the plan's bytes — the vector-codec
    // repair saving is physical, not an accounting fiction.
    std::vector<NodeId> sources;          // per plan source
    std::vector<datapath::BlockBuffer> unit_bufs;
    std::vector<erasure::BlockView> units;       // plan unit order
    for (const erasure::RepairSource& src : plan.sources) {
      const auto it = std::find(live_ids.begin(), live_ids.end(), src.id);
      const BlockId b =
          live_blocks[static_cast<size_t>(it - live_ids.begin())];
      const NodeId s = source_of(b);
      sources.push_back(s);
      for (const int z : src.sub_blocks) {
        unit_bufs.push_back(fetch_range(
            s, b, static_cast<size_t>(z) * static_cast<size_t>(sub),
            static_cast<size_t>(sub)));
        units.emplace_back(unit_bufs.back().span());
      }
    }
    ctr_degraded_read_bytes_->add(
        static_cast<int64_t>(plan.bytes_read(config_.block_size)));

    // One fused apply_plan_chunk per chunk at the reader.
    const auto compute = [&](int c) {
      const auto t0 = std::chrono::steady_clock::now();
      erasure::ErasureCodec::apply_plan_chunk(plan, units, out.span(),
                                              chunks.offset(c), chunks.len(c));
      decode_.add(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count(),
                  chunks.len(c));
    };
    const bool whole_blocks = std::all_of(
        plan.sources.begin(), plan.sources.end(),
        [&plan](const erasure::RepairSource& src) {
          return static_cast<int>(src.sub_blocks.size()) == plan.alpha;
        });
    if (whole_blocks) {  // RS, LRC groups and globals
      chain_to_reader(sources, compute);
      return std::move(out).seal();
    }

    // Sub-block plans (Clay, Hitchhiker) fan in instead: a chain hop would
    // carry the whole rebuilt block, more than each helper's ranged share.
    // One fetch lane per source, chunked over the sub-block window so the
    // incremental schedule overlaps the transfers; each source ships
    // len x (its fetched sub-blocks) per chunk.
    datapath::StagedPipeline::run_fanout(
        chunks.count(), static_cast<int>(plan.sources.size()),
        /*fetch=*/
        [&](int s, int c) {
          const auto& src = plan.sources[static_cast<size_t>(s)];
          transport_->transfer(
              sources[static_cast<size_t>(s)], reader,
              static_cast<Bytes>(chunks.len(c)) *
                  static_cast<Bytes>(src.sub_blocks.size()));
        },
        compute);
    return std::move(out).seal();
  }

  // No schedule-driven plan for this pattern (e.g. an LRC group helper is
  // down, or two Clay blocks are): the first k live blocks ride the helper
  // chain whole, and the reader decodes once the last chunk has landed.
  // Every buffer is taken before the wire, so a store miss moves no bytes.
  const int k = codec_->k();
  const std::vector<int> chosen_ids(live_ids.begin(), live_ids.begin() + k);
  std::vector<NodeId> helpers;
  std::vector<datapath::BlockBuffer> bufs;
  std::vector<erasure::BlockView> views;
  for (int i = 0; i < k; ++i) {
    const BlockId b = live_blocks[static_cast<size_t>(i)];
    helpers.push_back(source_of(b));
    bufs.push_back(fetch(helpers.back(), b));
    views.emplace_back(bufs.back().span());
  }
  ctr_degraded_read_bytes_->add(static_cast<int64_t>(k) * config_.block_size);
  chain_to_reader(helpers, [&](int c) {
    if (c + 1 < chunks.count()) return;
    std::string why;
    if (!codec_->reconstruct(chosen_ids, views, {wanted_pos}, {out.span()},
                             &why)) {
      throw std::runtime_error("degraded read decode failed: " + why);
    }
  });
  return std::move(out).seal();
}

// -------------------------------------------------------------- encoding

std::vector<StripeId> MiniCfs::sealed_stripes() const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  return policy_->sealed_stripes();
}

void MiniCfs::encode_stripe(StripeId stripe,
                            std::optional<NodeId> encoder_override) {
  obs::Span stripe_span("cfs.encode_stripe", "cfs");
  stripe_span.arg("stripe", stripe);
  qos::OpScope op(qos::TrafficClass::kBackgroundEncode);
  const int64_t encode_begin_us = obs::now_us();
  TransferScope in_flight(*this);
  const std::optional<StripeMeta> row = ns_.find_stripe(stripe);
  if (row && row->encoded) {
    throw std::runtime_error("stripe already encoded");
  }
  EncodePlan plan;
  std::vector<BlockId> data_blocks;
  std::vector<std::vector<NodeId>> replica_sets;
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    const StripeInfo& info = policy_->stripe(stripe);
    if (!info.sealed(config_.placement.code.k)) {
      throw std::runtime_error("stripe not sealed");
    }
    plan = policy_->plan_encoding(stripe);
    data_blocks = info.blocks;
    replica_sets = info.replicas;
  }
  if (encoder_override) plan.encoder = *encoder_override;

  const int k = codec_->k();
  // A stripe seals when its k blocks are placed, not when their writes
  // commit.  Refuse until every data block's write has committed, so every
  // replica the plan fetches or erases is stored; nothing is mutated yet
  // and the caller (RaidNode) retries the stripe later.
  for (int i = 0; i < k; ++i) {
    const auto slot = static_cast<size_t>(i);
    if (!row || row->data_blocks.size() <= slot ||
        row->data_blocks[slot] != data_blocks[slot]) {
      throw std::runtime_error(
          "encode_stripe: stripe " + std::to_string(stripe) + " block " +
          std::to_string(data_blocks[slot]) + " has not committed");
    }
  }
  const int m = codec_->m();
  const int alpha = codec_->alpha();
  const Bytes sub = codec_->sub_block_size(config_.block_size);

  // Resolve one live source per data block and take zero-copy references
  // to the stored bytes before moving anything, so a dead stripe fails
  // fast with no metadata mutated.
  std::vector<NodeId> sources(static_cast<size_t>(k));
  std::vector<datapath::BlockBuffer> data_bufs;
  data_bufs.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const NodeId src = pick_source(replica_sets[static_cast<size_t>(i)],
                                   plan.encoder, /*count=*/true);
    if (src == kInvalidNode) {
      throw std::runtime_error("no live replica for encoding download");
    }
    sources[static_cast<size_t>(i)] = src;
    data_bufs.push_back(fetch(src, data_blocks[static_cast<size_t>(i)]));
  }

  std::vector<erasure::BlockView> data_views;
  data_views.reserve(data_bufs.size());
  for (const auto& b : data_bufs) data_views.emplace_back(b.span());
  std::vector<datapath::MutableBlockBuffer> parity_bufs;
  std::vector<erasure::MutBlockView> parity_views;
  parity_bufs.reserve(static_cast<size_t>(m));
  parity_views.reserve(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    // encode_chunk and the ecdag executor write every parity byte.
    parity_bufs.push_back(datapath::MutableBlockBuffer::uninitialized(
        static_cast<size_t>(config_.block_size)));
    parity_views.emplace_back(parity_bufs.back().span());
  }

  erasure::Matrix sched;
  if (config_.ecdag_enable && codec_->encode_schedule(&sched)) {
    // Distributed encode (src/ecdag/): the codec's (m*alpha) x (k*alpha)
    // sub-block generator lowered into a rack-aware partial-sum tree rooted
    // at the encoder.  Each remote rack with more terms than outputs
    // XOR-combines its coeff x unit products locally and ships one chunk
    // per output across the core switch; the result is byte-identical
    // (GF(2^8) addition is XOR, associative).  At alpha == 1 the schedule
    // is exactly the generator's parity rows — the pre-codec DAG.
    std::vector<erasure::BlockView> data_units;
    std::vector<NodeId> unit_nodes;
    for (int i = 0; i < k; ++i) {
      for (int z = 0; z < alpha; ++z) {
        data_units.push_back(data_views[static_cast<size_t>(i)].subspan(
            static_cast<size_t>(z) * static_cast<size_t>(sub),
            static_cast<size_t>(sub)));
        unit_nodes.push_back(sources[static_cast<size_t>(i)]);
      }
    }
    std::vector<erasure::MutBlockView> parity_units;
    std::vector<NodeId> out_nodes;
    for (int j = 0; j < m; ++j) {
      for (int z = 0; z < alpha; ++z) {
        parity_units.push_back(parity_views[static_cast<size_t>(j)].subspan(
            static_cast<size_t>(z) * static_cast<size_t>(sub),
            static_cast<size_t>(sub)));
        out_nodes.push_back(plan.parity[static_cast<size_t>(j)]);
      }
    }
    const ecdag::EcDag dag = ecdag::build_aggregation_dag(
        sched, unit_nodes, out_nodes, plan.encoder, topo_);
    ecdag::ExecOptions opts;
    opts.unit_size = sub;
    opts.preferred_chunk = transport_->preferred_chunk();
    ecdag::execute(
        dag, topo_, data_units, parity_units,
        [this](NodeId src, NodeId dst, Bytes len) {
          transport_->transfer(src, dst, len);
        },
        [this](NodeId node, Bytes len) { transport_->local_read(node, len); },
        opts);
  } else {
    // Staged pipeline: fetch chunk c of every data block to the encoder,
    // encode it into the parity windows, and push the finished parity chunks
    // out — all three stages overlap across chunks, so the upload rides the
    // encoder's up-link while later fetches still occupy its down-link
    // (RapidRAID-style encode ≈ k block-times instead of k + m).  The chunk
    // window is sub-block relative: chunk c covers bytes [offset, offset+len)
    // of every sub-block, so each block ships len * alpha bytes per chunk
    // (at alpha == 1 this is the pre-codec whole-block chunking, exactly).
    const datapath::ChunkPlan chunks{sub, transport_->preferred_chunk()};
    datapath::StagedPipeline::run_fanout(
        chunks.count(), /*lanes=*/1,
        /*fetch=*/
        [&](int, int c) {
          const Bytes len =
              static_cast<Bytes>(chunks.len(c)) * static_cast<Bytes>(alpha);
          for (int i = 0; i < k; ++i) {
            const NodeId src = sources[static_cast<size_t>(i)];
            if (src != plan.encoder) {
              transport_->transfer(src, plan.encoder, len);
            } else {
              transport_->local_read(src, len);
            }
          }
        },
        /*compute=*/
        [&](int c) {
          codec_->encode_chunk(data_views, parity_views, chunks.offset(c),
                               chunks.len(c));
        },
        /*upload=*/
        [&](int c) {
          const Bytes len =
              static_cast<Bytes>(chunks.len(c)) * static_cast<Bytes>(alpha);
          for (int j = 0; j < m; ++j) {
            const NodeId dst = plan.parity[static_cast<size_t>(j)];
            if (dst != plan.encoder) {
              transport_->transfer(plan.encoder, dst, len);
            }
          }
        });
  }

  std::vector<BlockId> parity_ids(static_cast<size_t>(m));
  const BlockId parity_base =
      next_block_id_.fetch_add(m, std::memory_order_relaxed);
  for (int j = 0; j < m; ++j) {
    parity_ids[static_cast<size_t>(j)] = parity_base + j;
  }
  for (int j = 0; j < m; ++j) {
    store(plan.parity[static_cast<size_t>(j)],
          parity_ids[static_cast<size_t>(j)],
          std::move(parity_bufs[static_cast<size_t>(j)]).seal());
  }

  // Step (iii): register the encoded layout, then delete the redundant
  // replicas (HDFS invalidates after the commit).  In this order a reader
  // that looked up the old locations can only miss a copy no longer
  // listed, and its retry finds the kept one (read_block).
  ns_.commit_encoded_stripe(stripe, data_blocks, plan.kept, plan.deletions,
                            parity_ids, plan.parity);
  for (const auto& [block_idx, node] : plan.deletions) {
    erase(node, data_blocks[static_cast<size_t>(block_idx)]);
  }
  ctr_stripes_encoded_->add();
  hist_encode_s_->record(
      static_cast<double>(obs::now_us() - encode_begin_us) / 1e6);
}

bool MiniCfs::is_encoded(StripeId stripe) const {
  return ns_.stripe_encoded(stripe);
}

StripeMeta MiniCfs::stripe_meta(StripeId stripe) const {
  auto meta = ns_.find_stripe(stripe);
  if (!meta) {
    throw std::runtime_error("unknown stripe");
  }
  return *std::move(meta);
}

// ------------------------------------------------------- failure / repair

void MiniCfs::kill_node(NodeId node) {
  node_alive_[static_cast<size_t>(node)] = false;
}

void MiniCfs::kill_rack(RackId rack) {
  for (const NodeId n : topo_.nodes_in_rack(rack)) kill_node(n);
}

void MiniCfs::revive_node(NodeId node) {
  node_alive_[static_cast<size_t>(node)] = true;
  // A revived store changes which locations are servable; cached entries
  // for its blocks predate that and must be re-validated on next read.
  if (cache_) {
    for (const BlockId b : datanodes_[static_cast<size_t>(node)]->block_ids()) {
      cache_->invalidate_block(b);
    }
  }
}

MiniCfs::RestartReport MiniCfs::restart_node(NodeId node) {
  RestartReport report;
  // 1. Reopen the store from its backing medium.  The old instance is
  // destroyed first; outstanding BlockBuffer views (readers, the cache)
  // stay valid because buffers own their allocation / mapping.  For the
  // mmap backend this replays the crash-consistent directory (truncating
  // any torn tail); for the mem backend the node comes back empty.
  // The node stays down until its block report has pruned what it lost, so
  // no read picks a copy the new store does not hold.
  node_alive_[static_cast<size_t>(node)] = false;
  datanodes_[static_cast<size_t>(node)].reset();
  datanodes_[static_cast<size_t>(node)] = make_store(node);
  const store::BlockStore& dn = *datanodes_[static_cast<size_t>(node)];

  std::vector<BlockId> surviving = dn.block_ids();
  report.blocks_recovered = static_cast<int64_t>(surviving.size());
  const std::set<BlockId> surviving_set(surviving.begin(), surviving.end());

  // 2. Block report: reconcile the namespace with what actually survived.
  // One snapshot, then per-block point updates (same discipline as
  // RepairManager's scans).
  const NamespaceSnapshot snap = namespace_snapshot();
  for (const auto& [block, status] : snap.blocks) {
    const bool listed = std::find(status.locations.begin(),
                                  status.locations.end(),
                                  node) != status.locations.end();
    const bool held = surviving_set.count(block) > 0;
    if (listed && !held) {
      // Lost in the crash (or never committed): prune so reads stop
      // retrying this node and a RepairManager scan sees the gap.
      ns_.update_locations(block, [node](std::vector<NodeId>& locs) {
        locs.erase(std::remove(locs.begin(), locs.end(), node), locs.end());
      });
      ++report.locations_pruned;
    } else if (!listed && held) {
      // Survived on disk but the NameNode moved on (e.g. the block was
      // repaired elsewhere while the node was down): re-register the copy —
      // this is what turns a full re-replication into a delta repair.
      ns_.update_locations(block, [node](std::vector<NodeId>& locs) {
        if (std::find(locs.begin(), locs.end(), node) == locs.end()) {
          locs.push_back(node);
        }
      });
      ++report.blocks_reregistered;
    }
    if (listed || held) cache_invalidate(block);
  }

  // 3. Blocks on disk the namespace has forgotten entirely (deleted while
  // the node was down) are garbage — discard them from the store.
  for (const BlockId block : surviving) {
    if (snap.blocks.count(block) == 0) {
      datanodes_[static_cast<size_t>(node)]->erase(block);
      --report.blocks_recovered;
      ++report.stale_blocks_discarded;
      cache_invalidate(block);
    }
  }

  // 4. Serve again: every location the namespace lists is now held.
  node_alive_[static_cast<size_t>(node)] = true;
  return report;
}

void MiniCfs::revive_rack(RackId rack) {
  for (const NodeId n : topo_.nodes_in_rack(rack)) revive_node(n);
}

void MiniCfs::revive_all() {
  for (NodeId n = 0; n < topo_.node_count(); ++n) revive_node(n);
}

bool MiniCfs::node_alive(NodeId node) const {
  return node_alive_[static_cast<size_t>(node)];
}

void MiniCfs::repair_block(BlockId block, NodeId target) {
  // The inner read_block inherits this class: repair traffic is kRepair
  // end-to-end even though it rides the read path.
  qos::OpScope op(qos::TrafficClass::kRepair);
  obs::Span span("cfs.repair_block", "cfs");
  span.arg("block", block);
  span.arg("target", target);
  ctr_repairs_->add();
  // The cached copy the read fills is dropped again by register_copy.
  register_copy(block, target, read_block(block, target));
}

bool MiniCfs::adopt_block(BlockId block, NodeId holder, NodeId target,
                          datapath::BlockBuffer bytes) {
  qos::OpScope op(qos::TrafficClass::kRepair);
  obs::Span span("cfs.adopt_block", "cfs");
  span.arg("block", block);
  span.arg("target", target);
  TransferScope in_flight(*this);
  // Re-checked here, before any byte moves: a repair or a revival may have
  // restored a copy since the rebuild.
  const auto locs = ns_.find_locations(block);
  if (!locs || std::any_of(locs->begin(), locs->end(), [this](NodeId n) {
        return node_alive_[static_cast<size_t>(n)].load();
      })) {
    return false;
  }
  if (!node_alive_[static_cast<size_t>(holder)] ||
      !node_alive_[static_cast<size_t>(target)]) {
    throw std::runtime_error("adopt_block: block " + std::to_string(block) +
                             " holder " + std::to_string(holder) +
                             " or target " + std::to_string(target) +
                             " is down");
  }
  if (holder != target) {
    transport_->transfer(holder, target, config_.block_size);
  }
  register_copy(block, target, std::move(bytes));
  return true;
}

void MiniCfs::register_copy(BlockId block, NodeId node,
                            datapath::BlockBuffer bytes) {
  store(node, block, std::move(bytes));
  cache_invalidate(block);
  ns_.update_locations(block, [this, node](std::vector<NodeId>& locs) {
    std::erase_if(locs, [this](NodeId n) {
      return !node_alive_[static_cast<size_t>(n)];
    });
    if (std::find(locs.begin(), locs.end(), node) == locs.end()) {
      locs.push_back(node);
    }
  });
}

MiniCfs::LivePositions MiniCfs::live_positions(const StripeMeta& meta,
                                               int skip) const {
  std::vector<BlockId> stripe_blocks = meta.data_blocks;  // stripe order
  stripe_blocks.insert(stripe_blocks.end(), meta.parity_blocks.begin(),
                       meta.parity_blocks.end());
  LivePositions live;
  for (int pos = 0; pos < static_cast<int>(stripe_blocks.size()); ++pos) {
    if (pos == skip) continue;
    const BlockId b = stripe_blocks[static_cast<size_t>(pos)];
    const auto locs = ns_.find_locations(b);
    if (!locs) continue;
    if (std::any_of(locs->begin(), locs->end(), [this](NodeId n) {
          return node_alive_[static_cast<size_t>(n)].load();
        })) {
      live.ids.push_back(pos);
      live.blocks.push_back(b);
    }
  }
  return live;
}

Bytes MiniCfs::planned_repair_bytes(BlockId block) const {
  const auto stripe_pos = ns_.find_block_stripe(block);
  if (!stripe_pos || !ns_.stripe_encoded(stripe_pos->first)) {
    return config_.block_size;  // replicated: one copy moves
  }
  const auto meta = ns_.find_stripe(stripe_pos->first);
  if (!meta) return config_.block_size;
  erasure::RepairPlan plan;
  if (codec_->plan_repair(stripe_pos->second,
                          live_positions(*meta, stripe_pos->second).ids,
                          &plan)) {
    return plan.bytes_read(config_.block_size);
  }
  // Whole-stripe decode fallback: k full blocks.
  return config_.block_size * static_cast<Bytes>(codec_->k());
}

// ----------------------------------------------------------- introspection

std::vector<NodeId> MiniCfs::block_locations(BlockId block) const {
  auto locs = ns_.find_locations(block);
  return locs ? *std::move(locs) : std::vector<NodeId>{};
}

int64_t MiniCfs::blocks_stored_on(NodeId node) const {
  return static_cast<int64_t>(
      datanodes_[static_cast<size_t>(node)]->block_count());
}

}  // namespace ear::cfs
