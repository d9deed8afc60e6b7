// Workload `floor`: the software floor.  The network is free
// (InstantTransport), so GF arithmetic, the codec, the staged data path, the
// cfs write/encode/commit paths, the namespace and repair scheduling do all
// the work.
//
// Closed loop, four clients.  Each round builds a fresh 20x4 cluster
// (RS(14,10), 3-way replication, 1 MiB blocks, EAR, cache off) and runs four
// phases: ingest (write_block), conversion (RaidNode, 4 map slots), kill one
// rack and re-read its lost blocks (every read is a full reconstruction),
// and restore (RepairManager live, 4 workers) until every block is back at
// its redundancy target.
#include <atomic>
#include <thread>
#include <vector>

#include "cfs/raidnode.h"
#include "obs/obs.h"
#include "round.h"
#include "workloads.h"

namespace earbench {

namespace {

using ear::cfs::MiniCfs;
using ear::qos::QosScope;
using ear::qos::TrafficClass;

struct FloorParams {
  ClusterSpec spec{20, 4, 14, 10, 3, 1_MB, 0};
  int stripes = 24;
  int clients = 4;
  int map_slots = 4;
  int repair_workers = 4;
  int reads_per_round = 240;
  Bytes chunk = 256_KB;  // ThrottleConfig's default pipeline_chunk
  int pool = 16;
};

// Runs `fn(client)` on `clients` threads and joins them.
template <typename Fn>
void run_clients(int clients, Fn fn) {
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (auto& t : threads) t.join();
}

int tenant_of(int client) { return client % 2 + 1; }

void run_round(const FloorParams& p, const RunOptions& opts, int round,
               Collector& col) {
  const uint64_t rseed = derive_seed(opts.seed, static_cast<uint64_t>(round));
  const bool traced = begin_round_tracing(opts, round);
  const ClusterSpec& spec = p.spec;

  // ---- set-up: inputs and a fresh cluster --------------------------------
  const auto setup_t0 = Clock::now();
  Payloads payloads(spec.block_size, p.pool, derive_seed(rseed, 1));
  const ear::Topology topo(spec.racks, spec.nodes_per_rack);
  MiniCfs cfs(make_config(spec, derive_seed(rseed, 2)),
              std::make_unique<MeteredTransport>(
                  topo,
                  std::make_unique<ear::cfs::InstantTransport>(topo, p.chunk),
                  col.meter));
  col.setup_s.push_back(seconds_since(setup_t0));

  // ---- ingest ------------------------------------------------------------
  const int64_t blocks = static_cast<int64_t>(p.stripes) * spec.k;
  std::atomic<int64_t> next{0};
  const auto ingest_t0 = Clock::now();
  run_clients(p.clients, [&](int c) {
    std::vector<uint8_t> buf(static_cast<size_t>(spec.block_size));
    std::vector<double> lat;
    QosScope scope(TrafficClass::kForegroundWrite, tenant_of(c));
    for (int64_t i; (i = next.fetch_add(1)) < blocks;) {
      const auto seq = static_cast<uint64_t>(i);
      payloads.fill(seq, buf);
      col.ops.attempt(OpKind::kWrite);
      const auto t0 = Clock::now();
      try {
        const BlockId b = cfs.write_block(buf, writer_for(topo, spec.k, seq));
        col.ops.served(OpKind::kWrite, Clock::now() - t0);
        lat.push_back(seconds_since(t0) * 1e3);
        payloads.record(b, seq);
      } catch (const std::exception&) {
        col.ops.fail(OpKind::kWrite);
      }
    }
    col.write_ms.add_all(lat);
  });
  const double ingest_s = seconds_since(ingest_t0);
  col.write_mbps.push_back(static_cast<double>(blocks * spec.block_size) /
                           1e6 / ingest_s);
  timed_snapshot(cfs, col);

  // ---- conversion ----------------------------------------------------------
  const std::vector<ear::StripeId> sealed = cfs.sealed_stripes();
  ear::cfs::RaidNode raid(cfs, p.map_slots);
  const ClassTally& enc = col.meter.of(TrafficClass::kBackgroundEncode);
  const int64_t cross0 = enc.cross_rack_bytes.load();
  const ear::cfs::EncodeReport rep = raid.encode_stripes(sealed);
  const auto converted = static_cast<int64_t>(sealed.size() - rep.failed.size());
  const double converted_bytes =
      static_cast<double>(converted * spec.k * spec.block_size);
  const double mbps = converted_bytes / 1e6 / rep.duration_s;
  col.convert_mbps.push_back(mbps);
  (traced ? col.convert_mbps_traced : col.convert_mbps_untraced).push_back(mbps);
  col.ops.attempt(OpKind::kEncodeStripe, static_cast<int64_t>(sealed.size()));
  col.ops.fail(OpKind::kEncodeStripe, static_cast<int64_t>(rep.failed.size()));
  col.stripes_converted += converted;
  col.failed_stripes += static_cast<int64_t>(rep.failed.size());
  col.encode_cross_rack_downloads += rep.cross_rack_downloads;
  col.stripe_completion_s.add_all(rep.completion_times);
  col.cross_ratio.push_back(
      static_cast<double>(enc.cross_rack_bytes.load() - cross0) /
      converted_bytes);
  const int64_t stored = stored_bytes(cfs);
  col.stored_ratio.push_back(static_cast<double>(stored) /
                             static_cast<double>(blocks * spec.block_size));
  col.store_blocks = stored / spec.block_size;
  col.store_bytes = stored;

  // ---- rack failure and degraded re-reads ---------------------------------
  const ear::cfs::NamespaceSnapshot snap = timed_snapshot(cfs, col);
  const auto rack = static_cast<ear::RackId>(typical_failure_domain(
      cfs, snap, /*by_rack=*/true, derive_seed(rseed, 3)));
  std::vector<BlockId> lost;
  for (const auto& [block, status] : snap.blocks) {
    if (!payloads.known(block)) continue;  // user data blocks only
    if (std::all_of(status.locations.begin(), status.locations.end(),
                    [&](NodeId n) { return topo.rack_of(n) == rack; })) {
      lost.push_back(block);
    }
  }
  cfs.kill_rack(rack);
  std::vector<NodeId> live;
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (cfs.node_alive(n)) live.push_back(n);
  }
  next = 0;
  run_clients(p.clients, [&](int c) {
    ear::Rng rng(derive_seed(rseed, 100 + static_cast<uint64_t>(c)));
    const int tenant = tenant_of(c);
    QosScope scope(TrafficClass::kForegroundRead, tenant);
    std::vector<double> lat;
    for (int64_t j; !lost.empty() && (j = next.fetch_add(1)) < p.reads_per_round;) {
      const BlockId b = lost[static_cast<size_t>(j) % lost.size()];
      const NodeId reader = live[rng.index(live.size())];
      col.ops.attempt(OpKind::kDegradedRead);
      const auto t0 = Clock::now();
      try {
        const auto bytes = cfs.read_block(b, reader);
        col.ops.served(OpKind::kDegradedRead, Clock::now() - t0);
        lat.push_back(seconds_since(t0) * 1e3);
        payloads.verify(b, bytes.span());
      } catch (const std::exception&) {
        col.ops.fail(OpKind::kDegradedRead);
      }
    }
    col.degraded_ms.add_all(lat);
    col.read_ms.add_all(lat);
    if (tenant == 1) col.hi_read_ms.add_all(lat);
  });

  // ---- restore ---------------------------------------------------------------
  RepairTimer timer;
  ear::failure::RepairConfig rcfg;
  rcfg.workers = p.repair_workers;
  rcfg.on_task = timer.hook();
  ear::failure::RepairManager repair(cfs, rcfg);
  const auto restore_t0 = Clock::now();
  repair.start();
  repair.schedule_rack(rack);
  const int64_t below = restore_until_clean(cfs, repair, spec.replication);
  col.restore_s.push_back(seconds_since(restore_t0));
  timer.close(col);
  repair.stop();
  timed_snapshot(cfs, col);
  harvest_repair(repair, below, col);

  verify_stored(cfs, payloads);
  col.mismatches += payloads.mismatches();
}

}  // namespace

Shape run_floor(const RunOptions& opts, Collector& col) {
  FloorParams p;
  if (opts.smoke) {
    p.stripes = 6;
    p.reads_per_round = 40;
  }
  const auto run_start = Clock::now();
  while (more_rounds(opts, col.rounds, run_start)) {
    run_round(p, opts, col.rounds, col);
    ++col.rounds;
  }
  return Shape{p.spec.n, p.spec.k, p.spec.block_size, p.chunk};
}

}  // namespace earbench
