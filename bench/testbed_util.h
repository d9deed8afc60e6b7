// Shared setup for the MiniCfs testbed benches (Experiments A.1, A.2, B.1).
//
// The paper's testbed: 13 machines = 1 master + 12 single-DataNode racks,
// 1 Gb/s Ethernet, 64 MB blocks, 2-way replication, (k+2, k) codes,
// 96 stripes.  The scaled default here keeps the topology and replication
// but shrinks blocks/stripes and emulates ~100 MB/s links so each run takes
// seconds; --paper-scale restores the full sizes.
#pragma once

#include <memory>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/flags.h"
#include "common/rng.h"
#include "placement/replica_layout.h"

namespace ear::bench {

struct TestbedParams {
  int racks = 12;
  int nodes_per_rack = 1;
  int n = 10;
  int k = 8;
  int replication = 2;
  int stripes = 24;
  Bytes block_size = 1_MB;
  // Reader-side block cache budget (0 = disabled, the pre-cache read path).
  Bytes cache_bytes = 0;
  // Distributed encode DAGs (CfsConfig::ecdag_enable).
  bool ecdag = false;
  // Stripe codec family (CfsConfig::codec_family).
  erasure::CodecFamily codec_family = erasure::CodecFamily::kRS;
  // Give every block distinct random bytes instead of one shared payload —
  // required when a bench asserts parity byte-identity across data paths
  // (identical payloads make XOR cancellations mask coefficient bugs).
  bool distinct_payloads = false;
  cfs::ThrottleConfig throttle{};
  uint64_t seed = 1;

  static TestbedParams from_flags(const FlagParser& flags) {
    TestbedParams p;
    p.racks = static_cast<int>(flags.get_int("racks", 12));
    p.k = static_cast<int>(flags.get_int("k", 8));
    p.n = static_cast<int>(flags.get_int("n", p.k + 2));
    p.stripes = static_cast<int>(flags.get_int("stripes", 24));
    p.block_size = flags.get_bool("paper-scale")
                       ? 64_MB
                       : static_cast<Bytes>(flags.get_int(
                             "block-bytes", 1_MB));
    if (flags.get_bool("paper-scale")) p.stripes = 96;
    // Default emulated speeds are deliberately slow (1 Gb/s : SATA disk
    // ratio preserved at ~1:1.3) so that data movement dominates the real
    // Reed-Solomon compute even on a single-core host.
    p.throttle.node_bw = flags.get_double("node-bw", 10e6);
    p.throttle.rack_uplink_bw =
        flags.get_double("rack-bw", p.throttle.node_bw);
    p.throttle.disk_bw = flags.get_double("disk-bw", 13e6);
    p.throttle.chunk_size = reservation_chunk(p.block_size);
    p.cache_bytes = static_cast<Bytes>(flags.get_int("cache-bytes", 0));
    p.ecdag = flags.get_bool("ecdag");
    p.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
    return p;
  }
};

// Builds a MiniCfs, pre-loads `stripes` sealed stripes instantly (the data
// was written long before the measured window), then switches to the
// throttled transport.  Returns the CFS and the stripe list.
struct LoadedTestbed {
  std::unique_ptr<cfs::MiniCfs> cfs;
  std::vector<StripeId> stripes;
};

inline LoadedTestbed make_loaded_testbed(const TestbedParams& params,
                                         bool use_ear) {
  cfs::CfsConfig cfg;
  cfg.racks = params.racks;
  cfg.nodes_per_rack = params.nodes_per_rack;
  cfg.placement.code = CodeParams{params.n, params.k};
  cfg.placement.replication = params.replication;
  cfg.placement.c = 1;
  cfg.use_ear = use_ear;
  cfg.block_size = params.block_size;
  cfg.cache_bytes = params.cache_bytes;
  cfg.ecdag_enable = params.ecdag;
  cfg.codec_family = params.codec_family;
  cfg.seed = params.seed;

  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  auto cfs = std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));

  Rng rng(params.seed ^ 0xabcdULL);
  std::vector<uint8_t> payload(static_cast<size_t>(params.block_size));
  for (auto& b : payload) b = static_cast<uint8_t>(rng.uniform(256));
  // Writers rotate round-robin over the nodes, like a uniformly-loaded
  // ingest tier; this also balances EAR's core racks.
  NodeId writer = static_cast<NodeId>(rng.uniform(
      static_cast<uint64_t>(topo.node_count())));
  while (static_cast<int>(cfs->sealed_stripes().size()) < params.stripes) {
    if (params.distinct_payloads) {
      for (auto& b : payload) b = static_cast<uint8_t>(rng.uniform(256));
    }
    cfs->write_block(payload, writer);
    writer = (writer + 1) % topo.node_count();
  }
  auto stripes = cfs->sealed_stripes();
  stripes.resize(static_cast<size_t>(params.stripes));

  cfs->set_transport(
      std::make_unique<cfs::ThrottledTransport>(topo, params.throttle));
  return LoadedTestbed{std::move(cfs), std::move(stripes)};
}

}  // namespace ear::bench
