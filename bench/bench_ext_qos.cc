// Extension experiment: cluster-wide QoS — weighted fair-share link
// scheduling with multi-tenant traffic classes (qos/scheduler.h).
//
// Part 1 — weighted-share convergence.  Two tenants with 3:1 weights
// saturate the same receiver link through a raw ThrottledTransport; their
// delivered goodput must converge to the configured ratio (acceptance:
// within +/-10%).
//
// Part 2 — multi-tenant mix, FIFO vs QoS.  Hot-Zipf readers (two tenants),
// a Poisson writer, a live node failure with budgeted repair, and a
// background conversion job (RaidNode encode) all run concurrently; per
// (tenant, class) latency tables (p50/p99/p999) and goodput are reported for
// both disciplines.  The paper-style claim: foreground read p99 under QoS is
// >= 2x lower than FIFO while repair finishes in comparable time (the repair
// budget — the RepairManager's old private token bucket — is enforced as the
// kRepair class rate in the QoS run).
//
// Part 3 — byte identity.  A deterministic single-threaded
// encode / kill / repair / read sequence is executed twice, QoS off and on,
// and every payload (stored blocks including parity, plus every read result)
// is CRC-checked: scheduling may change *when* bytes move, never *which*
// bytes (DESIGN.md invariant 11).
//
// Exit code: 1 when the digests differ, when any part-2 mix read fails, or
// (full-size run only) when part 1's share misses its band.
//
//   ./bench_ext_qos                     # full run
//   ./bench_ext_qos --smoke            # CI-sized (ASan job)
//   ./bench_ext_qos --csv-out qos.csv  # machine-readable latency tables
//   ./bench_ext_qos --metrics-out m.json  # qos.class.* counters, gauges
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "bench/testbed_util.h"
#include "cfs/raidnode.h"
#include "cfs/workload.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/stats.h"
#include "failure/repair.h"
#include "qos/qos.h"

namespace {

using namespace ear;
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// ---- Part 1 ---------------------------------------------------------------

struct ShareOutcome {
  double mbps[2] = {0, 0};  // tenant 1, tenant 2
  double ratio = 0;
};

ShareOutcome run_weighted_share(double window_s) {
  // Three racks, one node each: tenants 1 and 2 push from nodes 0 and 1
  // into node 2, so the receiver-side links are the shared bottleneck.
  const Topology topo(3, 1);
  cfs::ThrottleConfig tcfg;
  tcfg.node_bw = 20e6;
  tcfg.rack_uplink_bw = 20e6;
  tcfg.chunk_size = 64_KB;
  tcfg.qos.enable = true;
  tcfg.qos.tenant_weight[1] = 3.0;
  tcfg.qos.tenant_weight[2] = 1.0;
  cfs::ThrottledTransport transport(topo, tcfg);

  // Several synchronous pushers per tenant keep each flow backlogged at the
  // receiver — WFQ differentiates flows only while both have queued work (a
  // single closed-loop pusher degenerates to alternation, i.e. 1:1).
  constexpr int kPushersPerTenant = 4;
  std::atomic<bool> running{true};
  std::atomic<int64_t> bytes[2] = {0, 0};
  std::vector<std::thread> pushers;
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < kPushersPerTenant; ++i) {
      pushers.emplace_back([&, t] {
        qos::QosScope scope(qos::TrafficClass::kForegroundRead, t + 1);
        const Bytes burst = 64_KB;
        int64_t moved = 0;
        while (running.load(std::memory_order_relaxed)) {
          transport.transfer(static_cast<NodeId>(t), 2, burst);
          moved += burst;
        }
        bytes[t].fetch_add(moved, std::memory_order_relaxed);
      });
    }
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  running.store(false);
  for (auto& p : pushers) p.join();

  ShareOutcome out;
  const int64_t b0 = bytes[0].load();
  const int64_t b1 = bytes[1].load();
  out.mbps[0] = static_cast<double>(b0) / 1e6 / window_s;
  out.mbps[1] = static_cast<double>(b1) / 1e6 / window_s;
  out.ratio = b1 > 0 ? static_cast<double>(b0) / static_cast<double>(b1) : 0.0;
  return out;
}

// ---- Part 2 ---------------------------------------------------------------

struct MixParams {
  int stripes = 96;
  int pre_encoded = 16;    // stripes converted before the window (mixed ns)
  int encode_slots = 10;   // conversion parallelism (keeps links contended)
  double window_floor_s = 3.0;
  double write_rate = 3.0;
  int readers_per_tenant = 3;
  BytesPerSec repair_budget = 6e6;
};

struct MixOutcome {
  LatencyPercentiles read_pct[2];  // per tenant, seconds (loaded phase only)
  double read_mbps[2] = {0, 0};    // goodput over the loaded phase
  LatencyPercentiles write_pct;
  double encode_s = 0;
  double repair_s = 0;
  int64_t repair_bytes = 0;
  double loaded_s = 0;  // background work (encode + repair) still active
  double window_s = 0;
  int read_failures = 0;
};

// Zipf(alpha = 1) sampler over `n` items via the precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double acc = 0;
    for (size_t i = 1; i <= n; ++i) {
      acc += 1.0 / static_cast<double>(i);
      cdf_.push_back(acc);
    }
    total_ = acc;
  }
  size_t next() {
    const double u = rng_.uniform_double() * total_;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<size_t>(it - cdf_.begin());
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
  double total_ = 0;
};

MixOutcome run_mix(bool qos_on, const MixParams& mp) {
  bench::TestbedParams p;
  // Oversubscribed ToR links (2 nodes behind a rack link of node speed):
  // the shared rack up/down links are where FIFO queues actually build
  // under load and where fair queuing has bandwidth to re-divide.
  p.racks = 6;
  p.nodes_per_rack = 2;
  p.k = 4;
  p.n = 6;
  p.replication = 2;
  p.stripes = mp.stripes;
  p.block_size = 256_KB;
  p.throttle.node_bw = 8e6;
  p.throttle.rack_uplink_bw = 8e6;
  p.throttle.chunk_size = 128_KB;
  p.throttle.qos.enable = qos_on;
  p.throttle.qos.tenant_weight[1] = 3.0;
  p.throttle.qos.tenant_weight[2] = 1.0;
  p.throttle.qos.class_rate[static_cast<int>(qos::TrafficClass::kRepair)] =
      mp.repair_budget;
  // Aggressive-recovery posture: repair gets twice the background weight so
  // its fair share reaches the byte budget even under foreground pressure —
  // that is what keeps QoS repair completion comparable to FIFO's.
  p.throttle.qos.class_weight[static_cast<int>(qos::TrafficClass::kRepair)] =
      2.0;
  p.seed = 11;

  auto testbed = bench::make_loaded_testbed(p, /*use_ear=*/true);
  cfs::MiniCfs& cfs = *testbed.cfs;

  // Background conversion starts from a mixed namespace: the first
  // `pre_encoded` stripes were converted before the measured window.
  {
    auto instant =
        std::make_unique<cfs::InstantTransport>(cfs.topology());
    auto throttled = std::make_unique<cfs::ThrottledTransport>(
        cfs.topology(), p.throttle);
    cfs.set_transport(std::move(instant));
    for (int i = 0; i < mp.pre_encoded; ++i) {
      cfs.encode_stripe(testbed.stripes[static_cast<size_t>(i)]);
    }
    cfs.set_transport(std::move(throttled));
  }

  const std::vector<BlockId> blocks = cfs.all_blocks();

  MixOutcome out;
  const auto t0 = SteadyClock::now();
  std::atomic<bool> running{true};
  // Tail percentiles are the under-load comparison (the acceptance claim is
  // "p99 under repair + encode load"), so readers record samples only while
  // the background work is still active; the post-load floor keeps threads
  // alive for teardown symmetry but adds no samples.
  std::atomic<bool> loaded{true};

  // Foreground readers: hot-Zipf popularity, one flow per tenant.
  std::vector<double> read_lat[2];
  std::atomic<int64_t> read_bytes[2] = {0, 0};
  std::atomic<int> read_failures{0};
  std::mutex lat_mu;
  std::vector<std::thread> readers;
  for (int tenant = 1; tenant <= 2; ++tenant) {
    for (int r = 0; r < mp.readers_per_tenant; ++r) {
      readers.emplace_back([&, tenant, r] {
        qos::QosScope scope(qos::TrafficClass::kForegroundRead, tenant);
        ZipfSampler zipf(blocks.size(),
                         0xbeefULL + static_cast<uint64_t>(tenant * 8 + r));
        Rng node_rng(0xfeedULL + static_cast<uint64_t>(tenant * 8 + r));
        std::vector<double> local;
        int64_t local_bytes = 0;
        while (running.load(std::memory_order_relaxed)) {
          const BlockId b = blocks[zipf.next()];
          const NodeId reader = static_cast<NodeId>(node_rng.uniform(
              static_cast<uint64_t>(cfs.topology().node_count())));
          const bool counted = loaded.load(std::memory_order_relaxed);
          const auto s = SteadyClock::now();
          try {
            const auto sz =
                static_cast<int64_t>(cfs.read_block(b, reader).size());
            if (counted) {
              local_bytes += sz;
              local.push_back(seconds_since(s));
            }
          } catch (const std::runtime_error&) {
            read_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        read_bytes[tenant - 1].fetch_add(local_bytes,
                                         std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(lat_mu);
        auto& sink = read_lat[tenant - 1];
        sink.insert(sink.end(), local.begin(), local.end());
      });
    }
  }

  // Foreground writer: tenant 2's ingest stream.
  cfs::WriteWorkload writes(cfs, mp.write_rate, /*seed=*/21);
  writes.set_qos({qos::TrafficClass::kForegroundWrite, 2});
  writes.start();

  // Live repair: a node dies as the window opens; the budgeted repair
  // service races the foreground traffic.  Under QoS the budget is the
  // kRepair class rate; under FIFO it is the manager's own token bucket
  // (same bytes/s either way).
  failure::RepairConfig rcfg;
  rcfg.workers = 1;
  rcfg.repair_bandwidth = mp.repair_budget;
  failure::RepairManager repair(cfs, rcfg);
  const NodeId victim = 3;
  cfs.kill_node(victim);
  const auto repair_t0 = SteadyClock::now();
  repair.start();
  repair.schedule_node(victim);

  // Background conversion: the system tenant encodes the remaining stripes.
  // Several map slots keep the links genuinely contended — that contention
  // is what FIFO turns into foreground tail latency and QoS does not.
  cfs::RaidNode raid(cfs, mp.encode_slots);
  std::vector<StripeId> to_encode(
      testbed.stripes.begin() + mp.pre_encoded, testbed.stripes.end());
  cfs::EncodeReport encode_report;
  std::thread encoder([&] {
    encode_report = raid.encode_stripes(to_encode);
  });

  encoder.join();
  out.encode_s = encode_report.duration_s;
  repair.wait_idle();
  out.repair_s = seconds_since(repair_t0);
  loaded.store(false);
  out.loaded_s = seconds_since(t0);
  // Keep the mix contended for the window floor even if the background work
  // finished early (smoke runs), so tail percentiles have samples.
  while (seconds_since(t0) < mp.window_floor_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  running.store(false);
  for (auto& r : readers) r.join();
  writes.stop();
  repair.stop();

  out.window_s = seconds_since(t0);
  for (int t = 0; t < 2; ++t) {
    out.read_pct[t] = LatencyPercentiles::from(std::move(read_lat[t]));
    out.read_mbps[t] =
        static_cast<double>(read_bytes[t].load()) / 1e6 / out.loaded_s;
  }
  std::vector<double> wlat;
  for (const auto& [issue, resp] : writes.samples()) wlat.push_back(resp);
  out.write_pct = LatencyPercentiles::from(std::move(wlat));
  out.repair_bytes = repair.report().bytes_moved;
  out.read_failures = read_failures.load();
  return out;
}

// ---- Part 3 ---------------------------------------------------------------

// Runs the deterministic conversion/failure/read sequence and digests every
// payload the cluster ends up holding or serving.  Single-threaded, fixed
// seed: with QoS off and on the sequence consumes the MiniCfs RNG
// identically, so any digest difference is a real payload divergence.
uint32_t run_byte_identity(bool qos_on) {
  bench::TestbedParams p;
  p.racks = 8;
  p.nodes_per_rack = 1;
  p.k = 4;
  p.n = 6;
  p.replication = 2;
  p.stripes = 4;
  p.block_size = 64_KB;
  p.distinct_payloads = true;  // XOR cancellations must not mask anything
  p.throttle.node_bw = 50e6;
  p.throttle.rack_uplink_bw = 50e6;
  p.throttle.chunk_size = 16_KB;
  p.throttle.qos.enable = qos_on;
  p.throttle.qos.tenant_weight[1] = 3.0;
  p.seed = 5;

  auto testbed = bench::make_loaded_testbed(p, /*use_ear=*/true);
  cfs::MiniCfs& cfs = *testbed.cfs;

  for (const StripeId s : testbed.stripes) cfs.encode_stripe(s);
  cfs.kill_node(2);
  failure::RepairManager repair(cfs, failure::RepairConfig{});
  repair.schedule_scan();
  repair.drain();

  uint32_t digest = 0;
  // Every read payload (replica reads and degraded reads alike)...
  qos::QosScope scope(qos::TrafficClass::kForegroundRead, 1);
  for (const BlockId b : cfs.all_blocks()) {
    const auto buf = cfs.read_block(b, /*reader=*/1);
    digest = crc32(buf.span(), digest);
  }
  // ...and every stored block, parity included (export copies metadata
  // only; no transport involved).
  const cfs::ClusterImage image = cfs.export_image();
  for (const auto& node : image.node_blocks) {
    for (const auto& [block, buf] : node) {
      digest = crc32(buf.span(), digest);
    }
  }
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const bench::ObsOutputs obs_out = bench::obs_from_flags(flags);
  // The qos.class.* instruments are part of this bench's report: collect
  // them even when no --metrics-out was requested (trace setting is kept).
  {
    obs::Config ocfg = obs::config();
    ocfg.metrics = true;
    obs::init(ocfg);
  }
  const bool smoke = flags.get_bool("smoke");
  const std::string csv_path = flags.get_string("csv-out");

  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty() && !csv.ok()) {
    std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
    return 1;
  }
  if (!csv_path.empty()) {
    csv.row(
        "part,mode,flow,count,mean_s,p50_s,p90_s,p99_s,p999_s,goodput_mbps\n");
  }

  // ---- Part 1: weighted shares -------------------------------------------
  bench::header("Extension: QoS weighted shares",
                "two tenants, 3:1 weights, one saturated receiver link");
  const double share_window = flags.get_double("share-window", smoke ? 1.0 : 3.0);
  const ShareOutcome share = run_weighted_share(share_window);
  const bool share_ok = share.ratio > 3.0 * 0.9 && share.ratio < 3.0 * 1.1;
  bench::row("  tenant 1 (w=3)  %7.2f MB/s", share.mbps[0]);
  bench::row("  tenant 2 (w=1)  %7.2f MB/s", share.mbps[1]);
  bench::row("  ratio           %7.2f (target 3.00 +/-10%%) %s", share.ratio,
             share_ok ? "(PASS)" : "(FAIL)");
  if (!csv_path.empty()) {
    csv.row("share,qos,tenant1,0,0,0,0,0,0,%.3f\n", share.mbps[0]);
    csv.row("share,qos,tenant2,0,0,0,0,0,0,%.3f\n", share.mbps[1]);
  }

  // ---- Part 2: multi-tenant mix, FIFO vs QoS ------------------------------
  bench::header("Extension: QoS multi-tenant mix",
                "Zipf readers + writer + budgeted repair + conversion");
  MixParams mp;
  if (smoke) {
    mp.stripes = 10;
    mp.pre_encoded = 4;
    mp.encode_slots = 3;
    mp.window_floor_s = 1.2;
    mp.readers_per_tenant = 1;
  }
  // Registry instruments are process-wide and FIFO grants count in
  // qos.class.* too, so the QoS run's class bytes are a delta across it.
  const auto class_bytes = [](int c) {
    return obs::Registry::instance()
        .counter(qos::class_metric(static_cast<qos::TrafficClass>(c), "bytes"))
        .value();
  };
  int64_t before_qos[qos::kClassCount] = {};
  MixOutcome mix[2];
  for (const bool qos_on : {false, true}) {
    if (qos_on) {
      for (int c = 0; c < qos::kClassCount; ++c) before_qos[c] = class_bytes(c);
    }
    mix[qos_on ? 1 : 0] = run_mix(qos_on, mp);
    const MixOutcome& m = mix[qos_on ? 1 : 0];
    const char* mode = qos_on ? "QoS" : "FIFO";
    bench::row("%-4s loaded %.2f s | encode %.2f s | repair %.2f s "
               "(%lld bytes) | read errors %d",
               mode, m.loaded_s, m.encode_s, m.repair_s,
               static_cast<long long>(m.repair_bytes), m.read_failures);
    bench::row("  fg-read t1 (w=3): %s  %6.2f MB/s",
               m.read_pct[0].format().c_str(), m.read_mbps[0]);
    bench::row("  fg-read t2 (w=1): %s  %6.2f MB/s",
               m.read_pct[1].format().c_str(), m.read_mbps[1]);
    bench::row("  fg-write t2:      %s", m.write_pct.format().c_str());
    if (!csv_path.empty()) {
      const auto emit = [&](const char* flow, const LatencyPercentiles& lp,
                            double mbps) {
        csv.row("mix,%s,%s,%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%.3f\n", mode, flow,
                lp.count, lp.mean, lp.p50, lp.p90, lp.p99, lp.p999, mbps);
      };
      emit("fg-read-t1", m.read_pct[0], m.read_mbps[0]);
      emit("fg-read-t2", m.read_pct[1], m.read_mbps[1]);
      emit("fg-write-t2", m.write_pct, 0.0);
    }
  }
  const double p99_fifo = mix[0].read_pct[0].p99;
  const double p99_qos = mix[1].read_pct[0].p99;
  if (p99_qos > 0) {
    bench::row("  fg-read t1 p99: FIFO %.4f s vs QoS %.4f s -> %.2fx lower",
               p99_fifo, p99_qos, p99_fifo / p99_qos);
    bench::note(p99_fifo >= 2.0 * p99_qos
                    ? "foreground p99 >= 2x lower under QoS (PASS)"
                    : "foreground p99 improvement below 2x on this host");
  }
  bench::note("repair completes under its byte budget in both modes; QoS "
              "enforces it as the kRepair class rate");

  // qos.class.* byte counters, QoS run only.
  for (int c = 0; c < qos::kClassCount; ++c) {
    bench::row("  %-30s %12lld",
               qos::class_metric(static_cast<qos::TrafficClass>(c), "bytes")
                   .c_str(),
               static_cast<long long>(class_bytes(c) - before_qos[c]));
  }

  // ---- Part 3: byte identity ----------------------------------------------
  bench::header("Extension: QoS byte identity",
                "deterministic encode/kill/repair/read, QoS off vs on");
  const uint32_t digest_off = run_byte_identity(false);
  const uint32_t digest_on = run_byte_identity(true);
  const bool bytes_ok = digest_off == digest_on;
  bench::row("  payload digest: off=%08x on=%08x %s", digest_off, digest_on,
             bytes_ok ? "(PASS)" : "(FAIL)");
  bench::note("invariant 11: scheduling changes when bytes move, never "
              "which bytes");

  if (!csv_path.empty() && !csv.close()) {
    std::perror("csv close");
    return 1;
  }
  const int obs_rc = bench::obs_export(obs_out);
  if (!bytes_ok) return 1;
  // Every mix read targets a written block and a live or repairable copy.
  const int read_failures = mix[0].read_failures + mix[1].read_failures;
  if (read_failures > 0) {
    std::fprintf(stderr, "%d mix reads failed\n", read_failures);
    return 1;
  }
  // The share ratio is a real-time measurement; only the full-size run is
  // held to the +/-10% acceptance band.
  if (!smoke && !share_ok) return 1;
  return obs_rc;
}
