// Extension bench: the fast read path — reader-side block cache and
// pipelined degraded reads.
//
// Phase 1 (hot reads): a map-only read job scans every data block from
// fixed random remote readers, `passes` times over.  With the cache the
// first pass fills it and later passes are served reader-locally (zero
// copies, zero transport bytes); with --cache-bytes 0 every pass pays the
// full emulated transfer.  Reported: aggregate hot-read throughput, which
// the cache should improve by roughly the pass count.
//
// Phase 2 (degraded reads): stripes are encoded, one DataNode is killed,
// rack up-links run oversubscribed (--oversub, the classic cross-rack
// bottleneck; the paper's testbed contends on exactly this link) and
// interference traffic is injected on every surviving rack up-link (the
// paper's Iperf-style congestion).  One mode per degraded-read data path:
//   - Clay (sub-block plans): one fan-out lane per source, so the
//     helpers' ranged shares arrive in parallel at the reader's down-link.
//   - RS (whole-block plans) at the testbed's chunking: the helper chain
//     streams a partial sum from helper to helper and into the reader, so
//     every link carries one block: about (k + S - 1) chunk-times for S
//     chunks per block.  Every chain hop crosses a congested up-link, so
//     the chain is fastest with --oversub 1 --inject-bytes 0.
//   - RS with blocks in two chunks: the same reads once pipeline fill
//     dominates.  A wire-bound read then splits the chain into p parallel
//     chains converging at the reader, about max(p S, k/p + S - 1)
//     chunk-times.  MiniCfs picks p from its measured hop and decode
//     times, so each mode's first read, which has no measurement yet,
//     runs one chain.  At the defaults (S = 16) the RS chain keeps one
//     chain and this mode runs two; under --smoke (S = 4) both split.
// Every mode reads the same data blocks; the bench exits non-zero if two
// rebuild one differently.  Reported per mode: chunks per block, the most
// chains a read ran, how many reads split, mean/max degraded-read
// completion.
//
//   ./bench_ext_readpath                     # both phases, defaults
//   ./bench_ext_readpath --smoke             # tiny run for sanitizer CI
//   ./bench_ext_readpath --cache-bytes 0     # phase 1 baseline only
//   ./bench_ext_readpath --oversub 1 --inject-bytes 0   # idle links
//   ./bench_ext_readpath --csv-out readpath.csv --metrics-out m.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "bench/testbed_util.h"
#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/csv.h"
#include "common/flags.h"
#include "datapath/pipeline.h"
#include "mapred/read_job.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace {

using namespace ear;
using Clock = std::chrono::steady_clock;

struct HotResult {
  Bytes cache_bytes = 0;
  int passes = 0;
  int64_t blocks = 0;
  double secs = 0;
  double mbps = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t transport_bytes = 0;
};

// P passes of the same read job over every data block, fixed random remote
// readers (the job pins each block's reader across passes).
HotResult run_hot(const ear::bench::TestbedParams& params, Bytes cache_bytes,
                  int passes, int map_slots) {
  ear::bench::TestbedParams p = params;
  p.cache_bytes = cache_bytes;
  auto testbed = ear::bench::make_loaded_testbed(p, /*use_ear=*/true);
  cfs::MiniCfs& cfs = *testbed.cfs;
  const std::vector<BlockId> blocks = cfs.all_blocks();

  mapred::ReadJobConfig job_cfg;
  job_cfg.map_slots = map_slots;
  job_cfg.locality = mapred::ReadLocality::kRandomRemote;
  job_cfg.seed = params.seed;  // same reader pinning in every trial
  mapred::TestbedReadJob job(cfs, job_cfg);

  HotResult r;
  r.cache_bytes = cache_bytes;
  r.passes = passes;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    const auto report = job.run(blocks);
    r.blocks += report.blocks_read;
  }
  r.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  r.mbps = r.secs > 0 ? static_cast<double>(r.blocks) *
                            static_cast<double>(params.block_size) / 1e6 /
                            r.secs
                      : 0;
  if (const datapath::BlockCache* cache = cfs.block_cache()) {
    r.cache_hits = cache->hits();
    r.cache_misses = cache->misses();
  }
  r.transport_bytes =
      cfs.transport().cross_rack_bytes() + cfs.transport().intra_rack_bytes();
  return r;
}

// One phase-2 data path, chosen by the codec family's plan shape and the
// number of chunks per block.
struct DegradedMode {
  const char* label;
  const char* csv;
  erasure::CodecFamily family;
  int chunks;  // chunks per block; 0 = the testbed's transport chunk
};

struct DegradedResult {
  const DegradedMode* mode = nullptr;
  int64_t reads = 0;
  int chunks = 0;
  int max_chains = 0;       // most parallel chains one read ran (0: none)
  int64_t split_reads = 0;  // reads that ran more than one chain
  double mean_s = 0;
  double max_s = 0;
};

// Encodes the stripes (on the instant transport — conversion happened long
// before the measured window), kills one DataNode, injects interference on
// every surviving rack up-link, then times each degraded read and checks
// its bytes against the other modes' reads of the same block.
DegradedResult run_degraded(
    const ear::bench::TestbedParams& params, const DegradedMode& mode,
    int max_reads, Bytes inject_bytes, double oversub,
    std::map<BlockId, datapath::BlockBuffer>* rebuilt) {
  ear::bench::TestbedParams p = params;
  p.cache_bytes = 0;  // isolate the data-path effect
  p.codec_family = mode.family;
  if (mode.chunks > 0) {
    p.throttle.chunk_size = p.block_size / mode.chunks;
    p.throttle.pipeline_chunk = p.throttle.chunk_size;
  }
  // Congested egress: rack up-links carry 1/oversub of a node link (the
  // interference direction), while rack ingress stays at full speed — so
  // the reader's down-link, not the sources, should be the bottleneck.
  if (oversub > 1) {
    p.throttle.rack_downlink_bw = p.throttle.rack_uplink_bw;
    p.throttle.rack_uplink_bw = p.throttle.node_bw / oversub;
  }
  auto testbed = ear::bench::make_loaded_testbed(p, /*use_ear=*/true);
  cfs::MiniCfs& cfs = *testbed.cfs;
  const Topology& topo = cfs.topology();

  cfs.set_transport(std::make_unique<cfs::InstantTransport>(topo));
  cfs::RaidNode raid(cfs, /*map_slots=*/4);
  raid.encode_stripes(testbed.stripes);
  cfs.set_transport(
      std::make_unique<cfs::ThrottledTransport>(topo, p.throttle));

  const NodeId victim = 0;
  cfs.kill_node(victim);

  // Degraded blocks: data blocks whose only copy died with the victim.
  // Data block ids follow the write order, so every mode reads the same
  // blocks (parity ids depend on which map task committed first).
  std::vector<BlockId> degraded;
  for (const StripeId s : testbed.stripes) {
    for (const BlockId b : cfs.stripe_meta(s).data_blocks) {
      bool live = false;
      for (const NodeId n : cfs.block_locations(b)) {
        if (cfs.node_alive(n)) live = true;
      }
      if (!live && static_cast<int>(degraded.size()) < max_reads) {
        degraded.push_back(b);
      }
    }
  }

  // The reader sits in the last rack; interference rides every other
  // surviving rack's up-link toward the victim's (otherwise idle) down-link.
  const NodeId reader = topo.node_count() - 1;
  for (RackId r = 0; r < topo.rack_count(); ++r) {
    const NodeId src = topo.nodes_in_rack(r).front();
    if (src == victim || topo.same_rack(src, reader)) continue;
    cfs.transport().inject(src, victim, inject_bytes);
  }

  DegradedResult res;
  res.mode = &mode;
  res.chunks = datapath::ChunkPlan{cfs.codec().sub_block_size(p.block_size),
                                   cfs.transport().preferred_chunk()}
                   .count();
  auto& registry = obs::Registry::instance();
  obs::Gauge& chains = registry.gauge("cfs.degraded_read.max_chains");
  const obs::Counter& splits =
      registry.counter("cfs.degraded_read.split_chains");
  chains.reset();
  const int64_t splits_before = splits.value();
  double total = 0;
  for (const BlockId b : degraded) {
    const auto t0 = Clock::now();
    const auto bytes = cfs.read_block(b, reader);
    const double took = std::chrono::duration<double>(Clock::now() - t0).count();
    if (bytes.size() != static_cast<size_t>(p.block_size)) {
      std::fprintf(stderr, "degraded read returned short block\n");
      std::exit(1);
    }
    const auto [it, first] = rebuilt->emplace(b, bytes);
    if (!first && !(it->second == bytes)) {
      std::fprintf(stderr, "%s rebuilt block %lld differently\n",
                   mode.label, static_cast<long long>(b));
      std::exit(1);
    }
    total += took;
    res.max_s = std::max(res.max_s, took);
    ++res.reads;
  }
  res.mean_s = res.reads > 0 ? total / static_cast<double>(res.reads) : 0;
  res.max_chains = static_cast<int>(chains.value());
  res.split_reads = splits.value() - splits_before;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.get_bool("smoke");
  const ear::bench::ObsOutputs obs = ear::bench::obs_from_flags(flags);

  ear::bench::TestbedParams params = ear::bench::TestbedParams::from_flags(flags);
  if (smoke) {
    params.stripes = 2;
    params.block_size = std::min<Bytes>(params.block_size, 256_KB);
    params.throttle.chunk_size = 64_KB;
  }
  const int passes = static_cast<int>(flags.get_int("passes", smoke ? 2 : 4));
  const int map_slots =
      static_cast<int>(flags.get_int("map-slots", smoke ? 4 : 12));
  const Bytes cache_bytes = static_cast<Bytes>(
      flags.get_int("cache-bytes", smoke ? 64_MB : 256_MB));
  const int degraded_reads =
      static_cast<int>(flags.get_int("degraded-reads", smoke ? 2 : 6));
  const Bytes inject_bytes = static_cast<Bytes>(
      flags.get_int("inject-bytes", smoke ? 512_KB : 5_MB));
  const double oversub = flags.get_double("oversub", 4.0);
  const std::string csv_path = flags.get_string("csv-out");

  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty() && !csv.ok()) {
    std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
    return 1;
  }
  if (!csv_path.empty()) {
    csv.row("phase,mode,blocks,secs,mbps,mean_s,max_s,hits,misses\n");
  }

  ear::bench::header("ext-readpath",
                     "reader-side block cache + degraded-read fan-out and chain");

  // ---- phase 1: hot reads ------------------------------------------------
  ear::bench::note("hot reads: fixed random remote readers, " +
                   std::to_string(passes) + " passes over every block");
  const HotResult cold = run_hot(params, 0, passes, map_slots);
  const HotResult warm = run_hot(params, cache_bytes, passes, map_slots);
  ear::bench::row("%-22s %8s %10s %12s %12s %10s %10s", "mode", "blocks",
                  "secs", "agg MB/s", "net MB", "hits", "misses");
  for (const HotResult& r : {cold, warm}) {
    ear::bench::row("%-22s %8lld %10.2f %12.1f %12.1f %10lld %10lld",
                    r.cache_bytes > 0 ? "cache" : "no-cache (baseline)",
                    static_cast<long long>(r.blocks), r.secs, r.mbps,
                    static_cast<double>(r.transport_bytes) / 1e6,
                    static_cast<long long>(r.cache_hits),
                    static_cast<long long>(r.cache_misses));
    if (!csv_path.empty()) {
      csv.row("hot,%s,%lld,%.4f,%.1f,,,%lld,%lld\n",
              r.cache_bytes > 0 ? "cache" : "nocache",
              static_cast<long long>(r.blocks), r.secs, r.mbps,
              static_cast<long long>(r.cache_hits),
              static_cast<long long>(r.cache_misses));
    }
  }
  const double speedup = cold.mbps > 0 ? warm.mbps / cold.mbps : 0;
  ear::bench::note("hot-read speedup with cache: " +
                   std::to_string(speedup) + "x (expected ~pass count)");

  // ---- phase 2: degraded reads -------------------------------------------
  // The chain counts come from the metrics registry, so collect metrics
  // (tracing stays as the flags set it).
  obs::Config metrics_on = obs::config();
  metrics_on.metrics = true;
  obs::init(metrics_on);
  ear::bench::note("degraded reads: node 0 dead, rack up-links " +
                   std::to_string(oversub) + "x oversubscribed, " +
                   std::to_string(inject_bytes) +
                   " interference bytes on every surviving rack up-link");
  static const DegradedMode kModes[] = {
      {"fan-out (Clay)", "fanout", erasure::CodecFamily::kClay, 0},
      {"chain (RS)", "chain", erasure::CodecFamily::kRS, 0},
      {"split (RS, 2 chunks)", "split", erasure::CodecFamily::kRS, 2},
  };
  std::map<BlockId, datapath::BlockBuffer> rebuilt;
  std::vector<DegradedResult> results;
  for (const DegradedMode& mode : kModes) {
    results.push_back(run_degraded(params, mode, degraded_reads, inject_bytes,
                                   oversub, &rebuilt));
  }
  ear::bench::row("%-22s %8s %8s %8s %8s %12s %12s", "mode", "reads",
                  "chunks", "chains", "split", "mean s", "max s");
  for (const DegradedResult& r : results) {
    ear::bench::row("%-22s %8lld %8d %8d %8lld %12.3f %12.3f", r.mode->label,
                    static_cast<long long>(r.reads), r.chunks, r.max_chains,
                    static_cast<long long>(r.split_reads), r.mean_s,
                    r.max_s);
    if (!csv_path.empty()) {
      csv.row("degraded,%s,%lld,,,%.4f,%.4f,,\n", r.mode->csv,
              static_cast<long long>(r.reads), r.mean_s, r.max_s);
    }
  }
  if (!csv_path.empty() && !csv.close()) {
    std::perror("csv close");
    return 1;
  }
  return ear::bench::obs_export(obs);
}
