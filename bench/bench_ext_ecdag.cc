// Extension bench: distributed encode DAGs (src/ecdag/).
//
// The legacy conversion funnels all k data blocks through the encoder node,
// so its rack down-link carries ~k blocks per stripe across the core switch
// no matter how good placement is.  With --ecdag the encode runs as a
// rack-aware partial-sum tree: each remote rack XOR-combines its coeff x
// block terms locally and ships one combined chunk per parity across the
// core.  (Repairs and degraded reads take the helper chain whatever the
// flag, which already keeps one block per link.)
//
// Sections:
//   A. encode core-switch bytes per stripe, legacy vs ecdag, with parity
//      byte-identity verified block for block (the bench exits 1 on any
//      mismatch — aggregation must not change a single byte);
//   B. wall-clock conversion throughput under a 4x oversubscribed core
//      (rack up-links at node_bw * nodes_per_rack / oversub), legacy vs
//      ecdag on the throttled transport;
//   C. the discrete-event simulator's encode cross-bytes for the same
//      topologies, cross-checking the testbed ratios at cluster scale.
//
// Scattered (RR) layouts with several blocks per rack are where aggregation
// pays; EAR's core-rack layouts already localize the download, so the rows
// marked "ear" double as a no-regression check (the DAG must degenerate to
// the legacy transfer pattern, not make things worse).
//
//   ./bench_ext_ecdag                  # full sweep
//   ./bench_ext_ecdag --smoke          # tiny run for sanitizer CI
//   ./bench_ext_ecdag --csv-out x.csv  # machine-readable rows
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/testbed_util.h"
#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/csv.h"
#include "common/flags.h"
#include "sim/cluster.h"

namespace {

using namespace ear;
using Clock = std::chrono::steady_clock;

struct Config {
  const char* name;
  int racks;
  int nodes_per_rack;
  int n;
  int k;
  bool use_ear;
};

// Favorable (many blocks per rack, few parities), marginal, the paper's
// 12-rack testbed (1 block per rack: no aggregation possible), and an EAR
// no-regression row.
const Config kConfigs[] = {
    {"rr-16+1-r4", 4, 5, 17, 16, false},
    {"rr-12+2-r4", 4, 4, 14, 12, false},
    {"rr-8+2-r12", 12, 1, 10, 8, false},
    {"ear-8+2-r12", 12, 1, 10, 8, true},  // EAR needs racks * c >= n
};

ear::bench::TestbedParams params_for(const Config& cfg,
                                     const ear::bench::TestbedParams& base,
                                     bool ecdag) {
  ear::bench::TestbedParams p = base;
  p.racks = cfg.racks;
  p.nodes_per_rack = cfg.nodes_per_rack;
  p.n = cfg.n;
  p.k = cfg.k;
  p.ecdag = ecdag;
  p.distinct_payloads = true;  // parity identity must not hide behind XOR
  return p;
}

struct EncodeRun {
  int64_t cross_per_stripe = 0;
  int64_t intra_per_stripe = 0;
  std::unique_ptr<cfs::MiniCfs> cfs;
  std::vector<StripeId> stripes;
};

// Encodes every stripe on an instant (but chunked) transport and returns
// the per-stripe core-switch byte count plus the cluster for inspection.
EncodeRun run_encode(const ear::bench::TestbedParams& p, bool use_ear) {
  auto testbed = ear::bench::make_loaded_testbed(p, use_ear);
  cfs::MiniCfs& cfs = *testbed.cfs;
  cfs.set_transport(std::make_unique<cfs::InstantTransport>(
      cfs.topology(), /*preferred_chunk=*/64_KB));
  for (const StripeId s : testbed.stripes) cfs.encode_stripe(s);
  EncodeRun r;
  const auto stripes = static_cast<int64_t>(testbed.stripes.size());
  r.cross_per_stripe = cfs.transport().cross_rack_bytes() / stripes;
  r.intra_per_stripe = cfs.transport().intra_rack_bytes() / stripes;
  r.cfs = std::move(testbed.cfs);
  r.stripes = std::move(testbed.stripes);
  return r;
}

// Byte-compares every parity block of the two clusters.  They were fed
// identical writes with the same seed, so stripe layouts and parity ids
// match; only the data path differed.
bool parity_identical(cfs::MiniCfs& a, cfs::MiniCfs& b,
                      const std::vector<StripeId>& stripes) {
  for (const StripeId s : stripes) {
    const auto ma = a.stripe_meta(s);
    const auto mb = b.stripe_meta(s);
    if (ma.parity_blocks != mb.parity_blocks) return false;
    for (const BlockId p : ma.parity_blocks) {
      const NodeId holder = a.block_locations(p)[0];
      if (a.read_block(p, holder) != b.read_block(p, holder)) return false;
    }
  }
  return true;
}

// Wall-clock conversion under an oversubscribed core: rack up-links carry
// nodes_per_rack / oversub node-links' worth of bandwidth, so raw k-block
// fan-ins contend exactly where the DAG sheds traffic.
double run_throughput(const ear::bench::TestbedParams& base, const Config& cfg,
                      bool ecdag, double oversub, int map_slots) {
  ear::bench::TestbedParams p = params_for(cfg, base, ecdag);
  p.throttle.rack_uplink_bw =
      p.throttle.node_bw * cfg.nodes_per_rack / oversub;
  auto testbed = ear::bench::make_loaded_testbed(p, cfg.use_ear);
  cfs::MiniCfs& cfs = *testbed.cfs;
  cfs::RaidNode raid(cfs, map_slots);
  const auto t0 = Clock::now();
  raid.encode_stripes(testbed.stripes);
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const double encoded_mb = static_cast<double>(testbed.stripes.size()) *
                            static_cast<double>(p.k) *
                            static_cast<double>(p.block_size) / 1e6;
  return secs > 0 ? encoded_mb / secs : 0;
}

int64_t run_sim_cross(const Config& cfg, Bytes block, int stripes_per_proc,
                      bool ecdag) {
  sim::SimConfig sc;
  sc.racks = cfg.racks;
  sc.nodes_per_rack = std::max(cfg.nodes_per_rack, 2);
  sc.placement.code = CodeParams{cfg.n, cfg.k};
  sc.placement.replication = 2;
  sc.placement.c = 1;
  sc.use_ear = cfg.use_ear;
  sc.block_size = block;
  sc.write_rate = 0;
  sc.background_rate = 0;
  sc.encode_start = 0.0;
  sc.encode_processes = 2;
  sc.stripes_per_process = stripes_per_proc;
  sc.ecdag_enable = ecdag;
  sc.seed = 9;
  sim::ClusterSim sim(sc);
  return sim.run().cross_rack_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.get_bool("smoke");
  ear::bench::TestbedParams base = ear::bench::TestbedParams::from_flags(flags);
  if (smoke) {
    base.stripes = 2;
    base.block_size = std::min<Bytes>(base.block_size, 128_KB);
    base.throttle.chunk_size = 32_KB;
  }
  const double oversub = flags.get_double("oversub", 4.0);
  const int map_slots = static_cast<int>(flags.get_int("map-slots", 4));
  const std::string csv_path = flags.get_string("csv-out");

  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty() && !csv.ok()) {
    std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
    return 1;
  }
  csv.row("section,config,racks,nodes_per_rack,n,k,placement,"
          "legacy,ecdag,unit\n");

  ear::bench::header(
      "EXT-ECDAG", "distributed encode DAGs vs single-node fan-in");

  // ---- A: encode core-switch bytes + parity byte-identity ----------------
  ear::bench::row("%-14s %22s %22s %8s", "A: encode", "legacy cross/stripe",
                  "ecdag cross/stripe", "ratio");
  for (const Config& cfg : kConfigs) {
    EncodeRun legacy = run_encode(params_for(cfg, base, false), cfg.use_ear);
    EncodeRun dist = run_encode(params_for(cfg, base, true), cfg.use_ear);
    if (!parity_identical(*legacy.cfs, *dist.cfs, legacy.stripes)) {
      std::fprintf(stderr, "FATAL: %s parity bytes differ with --ecdag\n",
                   cfg.name);
      return 1;
    }
    const double ratio =
        dist.cross_per_stripe > 0
            ? static_cast<double>(legacy.cross_per_stripe) /
                  static_cast<double>(dist.cross_per_stripe)
            : 0;
    ear::bench::row("%-14s %19.2f MB %19.2f MB %7.2fx", cfg.name,
                    static_cast<double>(legacy.cross_per_stripe) / 1e6,
                    static_cast<double>(dist.cross_per_stripe) / 1e6, ratio);
    csv.row("encode,%s,%d,%d,%d,%d,%s,%lld,%lld,cross_bytes_per_stripe\n",
            cfg.name, cfg.racks, cfg.nodes_per_rack, cfg.n, cfg.k,
            cfg.use_ear ? "ear" : "rr",
            static_cast<long long>(legacy.cross_per_stripe),
            static_cast<long long>(dist.cross_per_stripe));

  }
  ear::bench::note(
      "parity byte-identity verified block-for-block on every config");

  // ---- B: conversion throughput under an oversubscribed core ------------
  ear::bench::row("%-14s %16s %16s %8s",
                  "B: throughput", "legacy MB/s", "ecdag MB/s", "gain");
  for (const Config& cfg : kConfigs) {
    if (smoke && !(cfg.racks == 4 && cfg.k == 12 && !cfg.use_ear)) continue;
    const double legacy =
        run_throughput(base, cfg, false, oversub, map_slots);
    const double dist = run_throughput(base, cfg, true, oversub, map_slots);
    ear::bench::row("%-14s %16.1f %16.1f %7.2fx", cfg.name, legacy, dist,
                    legacy > 0 ? dist / legacy : 0);
    csv.row("throughput,%s,%d,%d,%d,%d,%s,%.2f,%.2f,mb_per_s\n", cfg.name,
            cfg.racks, cfg.nodes_per_rack, cfg.n, cfg.k,
            cfg.use_ear ? "ear" : "rr", legacy, dist);
  }
  ear::bench::note("core oversubscription " + std::to_string(oversub) +
                   "x: rack up-links at node_bw * nodes_per_rack / oversub");

  // ---- C: simulator cross-check ------------------------------------------
  const Bytes sim_block = smoke ? Bytes{1_MB} : Bytes{16_MB};
  const int sim_stripes = smoke ? 2 : 10;
  ear::bench::row("%-14s %22s %22s %8s", "C: simulator", "legacy cross MB",
                  "ecdag cross MB", "ratio");
  for (const Config& cfg : kConfigs) {
    if (cfg.use_ear) continue;  // sim row set mirrors the RR testbed rows
    const int64_t off = run_sim_cross(cfg, sim_block, sim_stripes, false);
    const int64_t on = run_sim_cross(cfg, sim_block, sim_stripes, true);
    ear::bench::row("%-14s %19.1f MB %19.1f MB %7.2fx", cfg.name,
                    static_cast<double>(off) / 1e6,
                    static_cast<double>(on) / 1e6,
                    on > 0 ? static_cast<double>(off) / static_cast<double>(on)
                           : 0);
    csv.row("sim,%s,%d,%d,%d,%d,rr,%lld,%lld,cross_bytes_total\n", cfg.name,
            cfg.racks, cfg.nodes_per_rack, cfg.n, cfg.k,
            static_cast<long long>(off), static_cast<long long>(on));
  }
  ear::bench::note(
      "expectation: >= 2x fewer core-link bytes on scattered multi-node "
      "racks; parity byte-identical; 1-node racks and EAR layouts unchanged");

  if (!csv_path.empty() && !csv.close()) {
    std::perror("csv close");
    return 1;
  }
  return 0;
}
