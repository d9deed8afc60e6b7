// Open-loop workloads on ThrottledTransport.
//
// Each round pre-loads two groups of stripes instantly in set-up (the data
// was written long before the measured window): group A is converted in
// set-up and is the read set, group B stays replicated.  The window then
// runs two phases on ThrottledTransport, in the workload's order:
//   * conversion: RaidNode converts group B;
//   * failure: the node holding a typical share of single-copy blocks dies
//     and a live RepairManager restores every block to its target.
// Throughout, four load threads serve three open-loop streams: Poisson
// writes (one thread), Zipf(1) reads of group A by two tenants (two), and
// reads of the failed node's lost blocks, degraded until repaired (one).
// Each request is timed from the moment it was due, and the generator's
// lateness is recorded.
//
// Reads stay off group B because the program erases a converted stripe's
// redundant replicas before committing the encoded layout, so a read racing
// that window fails; every operation of a benchmark run must succeed.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cfs/raidnode.h"
#include "workloads.h"

namespace earbench {

namespace {

using ear::cfs::MiniCfs;
using ear::qos::QosScope;
using ear::qos::TrafficClass;

struct OpenLoopParams {
  ClusterSpec spec;
  ear::cfs::ThrottleConfig throttle;
  int read_stripes = 0;     // group A
  int convert_stripes = 0;  // group B
  double horizon_s = 0;     // schedule length
  double write_rate = 0;    // requests per second
  double read_rate = 0;
  double lost_read_rate = 0;
  double lost_read_from_s = 0;  // lost reads are drawn over [from, horizon)
  bool failure_first = false;   // failure phase before conversion
  int map_slots = 0;
  ear::failure::RepairConfig repair;
  int pool = 16;
};

OpenLoopParams testbed_mix() {
  OpenLoopParams p;
  // The paper's testbed (§V-A): 12 racks x 1 node, (10,8), 2-way
  // replication, 1 Gb/s links and SATA disks (100 / 130 MB/s, the 1 : 1.3
  // ratio testbed_util.h keeps at a tenth of the speed), so a round takes
  // about a second and a run gathers enough samples.  GF compute stays a
  // few percent of a stripe's time.
  p.spec = ClusterSpec{12, 1, 10, 8, 2, 1_MB, 16_MB};
  p.throttle.node_bw = 100e6;
  p.throttle.rack_uplink_bw = 100e6;
  p.throttle.disk_bw = 130e6;
  p.throttle.chunk_size = 64_KB;
  p.read_stripes = 6;
  p.convert_stripes = 12;
  p.horizon_s = 1.2;
  p.write_rate = 12.0;
  p.read_rate = 40.0;
  p.lost_read_rate = 8.0;
  p.lost_read_from_s = 0.1;  // conversion runs first
  p.map_slots = 12;
  p.repair.workers = 1;
  return p;
}

OpenLoopParams qos_repair() {
  OpenLoopParams p;
  // bench_ext_qos's shape at four times its link speed (32 MB/s): two
  // nodes behind each rack link of node speed.
  p.spec = ClusterSpec{6, 2, 6, 4, 2, 256_KB, 0};
  p.throttle.node_bw = 32e6;
  p.throttle.rack_uplink_bw = 32e6;
  p.throttle.chunk_size = 128_KB;
  p.throttle.qos.enable = true;
  p.throttle.qos.tenant_weight[1] = 3.0;
  p.throttle.qos.tenant_weight[2] = 1.0;
  const auto repair_cls = static_cast<size_t>(TrafficClass::kRepair);
  p.throttle.qos.class_rate[repair_cls] = 24e6;
  p.throttle.qos.class_weight[repair_cls] = 2.0;
  p.read_stripes = 24;
  p.convert_stripes = 6;
  p.horizon_s = 1.0;
  p.write_rate = 24.0;
  p.read_rate = 80.0;
  p.lost_read_rate = 16.0;
  p.failure_first = true;  // the node dies as the window opens
  p.map_slots = 4;
  p.repair.workers = 2;
  p.repair.repair_bandwidth = 24e6;  // stands down: QoS enforces the budget
  return p;
}

enum class Req { kWrite, kRead, kLostRead };
inline constexpr int kStreams = 3;

// Load threads per request stream (four in all).  Each stream has its own
// threads, so slow degraded reads never hold back the due times of reads
// and writes.
inline constexpr int kStreamThreads[kStreams] = {1, 2, 1};

struct Event {
  double due = 0;  // seconds after window start
  Req kind = Req::kRead;
  int tenant = 1;
  uint64_t arg = 0;  // write sequence / read-set index / lost-block draw
  NodeId node = 0;   // writer or reader
};

using Schedule = std::array<std::vector<Event>, kStreams>;

// Zipf(1) over ranks 0..n-1 via the CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double acc = 0;
    for (size_t i = 1; i <= n; ++i) cdf_.push_back(acc += 1.0 / static_cast<double>(i));
  }
  size_t draw(ear::Rng& rng) const {
    const double u = rng.uniform_double() * cdf_.back();
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Poisson arrivals conditioned on their count: rate * horizon uniform draws,
// sorted, so every round offers the same load.
std::vector<double> arrivals(double rate, double from, double horizon,
                             ear::Rng& rng) {
  std::vector<double> out(
      static_cast<size_t>(std::lround(rate * (horizon - from))));
  for (double& t : out) t = rng.uniform_double(from, horizon);
  std::sort(out.begin(), out.end());
  return out;
}

Schedule make_schedule(const OpenLoopParams& p, size_t read_set,
                       uint64_t first_write_seq, int nodes, uint64_t seed) {
  ear::Rng rng(seed);
  const auto pick_node = [&] {
    return static_cast<NodeId>(rng.uniform(static_cast<uint64_t>(nodes)));
  };
  Schedule events;
  auto& writes = events[static_cast<size_t>(Req::kWrite)];
  auto& reads = events[static_cast<size_t>(Req::kRead)];
  auto& lost_reads = events[static_cast<size_t>(Req::kLostRead)];
  uint64_t seq = first_write_seq;
  for (const double t : arrivals(p.write_rate, 0, p.horizon_s, rng)) {
    writes.push_back({t, Req::kWrite, 2, seq++, pick_node()});
  }
  // Popularity ranks map onto a seeded permutation of the read set.
  std::vector<uint64_t> perm(read_set);
  for (size_t i = 0; i < read_set; ++i) perm[i] = i;
  rng.shuffle(perm);
  const Zipf zipf(read_set);
  for (const double t : arrivals(p.read_rate, 0, p.horizon_s, rng)) {
    reads.push_back({t, Req::kRead, rng.bernoulli(0.5) ? 1 : 2,
                     perm[zipf.draw(rng)], pick_node()});
  }
  for (const double t : arrivals(p.lost_read_rate, p.lost_read_from_s, p.horizon_s, rng)) {
    lost_reads.push_back(
        {t, Req::kLostRead, rng.bernoulli(0.5) ? 1 : 2, rng.next(), pick_node()});
  }
  return events;
}

// Shared state of one round's window.
struct Window {
  MiniCfs* cfs = nullptr;
  Payloads* payloads = nullptr;
  Collector* col = nullptr;
  const Schedule* schedule = nullptr;
  const std::vector<BlockId>* read_set = nullptr;
  Clock::time_point t0;
  std::array<std::atomic<size_t>, kStreams> next{};
  std::atomic<int64_t> writes_done{0};
  std::atomic<int64_t> last_write_ns{0};  // since t0
  std::mutex lost_mu;
  std::vector<BlockId> lost;  // published at the failure
};

bool has_live_copy(const MiniCfs& cfs, BlockId block) {
  const auto locs = cfs.block_locations(block);
  return std::any_of(locs.begin(), locs.end(),
                     [&](NodeId n) { return cfs.node_alive(n); });
}

void serve_read(Window& w, BlockId block, NodeId reader, int tenant,
                Clock::time_point due, std::vector<double>& read_lat,
                std::vector<double>& hi_lat, std::vector<double>& deg_lat) {
  const bool degraded = !has_live_copy(*w.cfs, block);
  const OpKind kind = degraded ? OpKind::kDegradedRead : OpKind::kRead;
  if (!w.cfs->node_alive(reader)) reader = (reader + 1) % w.cfs->topology().node_count();
  QosScope scope(TrafficClass::kForegroundRead, tenant);
  w.col->ops.attempt(kind);
  try {
    const auto start = Clock::now();
    const auto bytes = w.cfs->read_block(block, reader);
    w.col->ops.served(kind, Clock::now() - start);
    const double ms = seconds_since(due) * 1e3;
    read_lat.push_back(ms);
    if (tenant == 1) hi_lat.push_back(ms);
    if (degraded) deg_lat.push_back(ms);
    w.payloads->verify(block, bytes.span());
  } catch (const std::exception&) {
    w.col->ops.fail(kind);
  }
}

void load_thread(Window& w, size_t stream) {
  Collector& col = *w.col;
  const std::vector<Event>& events = (*w.schedule)[stream];
  std::vector<uint8_t> buf(static_cast<size_t>(w.payloads->block_size()));
  std::vector<double> write_lat, read_lat, hi_lat, deg_lat, late;
  int64_t late_count = 0;
  for (size_t i; (i = w.next[stream].fetch_add(1)) < events.size();) {
    const Event& ev = events[i];
    const auto due = w.t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(ev.due));
    std::this_thread::sleep_until(due);
    const double late_ms = seconds_since(due) * 1e3;
    late.push_back(late_ms);
    if (late_ms > 10.0) ++late_count;
    switch (ev.kind) {
      case Req::kWrite: {
        w.payloads->fill(ev.arg, buf);
        QosScope scope(TrafficClass::kForegroundWrite, ev.tenant);
        col.ops.attempt(OpKind::kWrite);
        NodeId writer = ev.node;
        if (!w.cfs->node_alive(writer)) writer = (writer + 1) % w.cfs->topology().node_count();
        try {
          const auto start = Clock::now();
          const BlockId b = w.cfs->write_block(buf, writer);
          col.ops.served(OpKind::kWrite, Clock::now() - start);
          write_lat.push_back(seconds_since(due) * 1e3);
          w.payloads->record(b, ev.arg);
          w.writes_done.fetch_add(1);
          const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - w.t0).count();
          int64_t prev = w.last_write_ns.load();
          while (prev < ns && !w.last_write_ns.compare_exchange_weak(prev, ns)) {
          }
        } catch (const std::exception&) {
          col.ops.fail(OpKind::kWrite);
        }
        break;
      }
      case Req::kRead:
        serve_read(w, (*w.read_set)[ev.arg], ev.node, ev.tenant, due, read_lat,
                   hi_lat, deg_lat);
        break;
      case Req::kLostRead: {
        // A block still without a live copy when one is left, else one
        // already repaired (then it is served as a plain read).
        std::vector<BlockId> lost;
        {
          std::lock_guard<std::mutex> lock(w.lost_mu);
          lost = w.lost;
        }
        if (lost.empty()) break;  // no failure yet
        std::vector<BlockId> unrepaired;
        for (const BlockId b : lost) {
          if (!has_live_copy(*w.cfs, b)) unrepaired.push_back(b);
        }
        const std::vector<BlockId>& pool = unrepaired.empty() ? lost : unrepaired;
        const BlockId block = pool[ev.arg % pool.size()];
        serve_read(w, block, ev.node, ev.tenant, due, read_lat, hi_lat, deg_lat);
        break;
      }
    }
  }
  col.write_ms.add_all(write_lat);
  col.read_ms.add_all(read_lat);
  col.hi_read_ms.add_all(hi_lat);
  col.degraded_ms.add_all(deg_lat);
  col.lateness_ms.add_all(late);
  col.late_requests.fetch_add(late_count);
}

void run_round(const OpenLoopParams& p, const RunOptions& opts, int round,
               Collector& col) {
  const uint64_t rseed = derive_seed(opts.seed, static_cast<uint64_t>(round));
  const bool traced = begin_round_tracing(opts, round);
  const ClusterSpec& spec = p.spec;
  const ear::Topology topo(spec.racks, spec.nodes_per_rack);

  // ---- set-up: pre-load A and B, convert A, build the schedule -------------
  const auto setup_t0 = Clock::now();
  Payloads payloads(spec.block_size, p.pool, derive_seed(rseed, 1));
  MiniCfs cfs(make_config(spec, derive_seed(rseed, 2)),
              std::make_unique<ear::cfs::InstantTransport>(topo));
  const int64_t preload =
      static_cast<int64_t>(p.read_stripes + p.convert_stripes) * spec.k;
  {
    std::vector<uint8_t> buf(static_cast<size_t>(spec.block_size));
    for (int64_t i = 0; i < preload; ++i) {
      const auto seq = static_cast<uint64_t>(i);
      payloads.fill(seq, buf);
      payloads.record(cfs.write_block(buf, writer_for(topo, spec.k, seq)), seq);
    }
  }
  const std::vector<ear::StripeId> sealed = cfs.sealed_stripes();
  if (static_cast<int>(sealed.size()) != p.read_stripes + p.convert_stripes) {
    throw std::logic_error("pre-load sealed an unexpected number of stripes");
  }
  const std::vector<ear::StripeId> group_a(sealed.begin(),
                                           sealed.begin() + p.read_stripes);
  const std::vector<ear::StripeId> group_b(sealed.begin() + p.read_stripes,
                                           sealed.end());
  ear::cfs::RaidNode raid(cfs, p.map_slots);
  if (!raid.encode_stripes(group_a).failed.empty()) {
    throw std::runtime_error("set-up conversion failed");
  }
  std::vector<BlockId> read_set;
  for (const ear::StripeId s : group_a) {
    const auto meta = cfs.stripe_meta(s);
    read_set.insert(read_set.end(), meta.data_blocks.begin(),
                    meta.data_blocks.end());
  }
  const Schedule schedule =
      make_schedule(p, read_set.size(), static_cast<uint64_t>(preload),
                    topo.node_count(), derive_seed(rseed, 3));
  cfs.set_transport(std::make_unique<MeteredTransport>(
      topo, std::make_unique<ear::cfs::ThrottledTransport>(topo, p.throttle),
      col.meter));
  RepairTimer timer;
  ear::failure::RepairConfig rcfg = p.repair;
  rcfg.on_task = timer.hook();
  ear::failure::RepairManager repair(cfs, rcfg);
  col.setup_s.push_back(seconds_since(setup_t0));

  // ---- window ------------------------------------------------------------------
  Window w;
  w.cfs = &cfs;
  w.payloads = &payloads;
  w.col = &col;
  w.schedule = &schedule;
  w.read_set = &read_set;
  w.t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> load;
  for (size_t stream = 0; stream < kStreams; ++stream) {
    for (int t = 0; t < kStreamThreads[stream]; ++t) {
      load.emplace_back(load_thread, std::ref(w), stream);
    }
  }
  std::this_thread::sleep_until(w.t0);

  const auto convert = [&] {
    const ClassTally& enc = col.meter.of(TrafficClass::kBackgroundEncode);
    const int64_t cross0 = enc.cross_rack_bytes.load();
    const ear::cfs::EncodeReport rep = raid.encode_stripes(group_b);
    const auto converted =
        static_cast<int64_t>(group_b.size() - rep.failed.size());
    const double converted_bytes =
        static_cast<double>(converted * spec.k * spec.block_size);
    const double mbps = converted_bytes / 1e6 / rep.duration_s;
    col.convert_mbps.push_back(mbps);
    (traced ? col.convert_mbps_traced : col.convert_mbps_untraced).push_back(mbps);
    col.ops.attempt(OpKind::kEncodeStripe, static_cast<int64_t>(group_b.size()));
    col.ops.fail(OpKind::kEncodeStripe, static_cast<int64_t>(rep.failed.size()));
    col.stripes_converted += converted;
    col.failed_stripes += static_cast<int64_t>(rep.failed.size());
    col.encode_cross_rack_downloads += rep.cross_rack_downloads;
    col.stripe_completion_s.add_all(rep.completion_times);
    col.cross_ratio.push_back(
        static_cast<double>(enc.cross_rack_bytes.load() - cross0) /
        converted_bytes);
    const int64_t stored = stored_bytes(cfs);
    const int64_t user_blocks = preload + w.writes_done.load();
    col.stored_ratio.push_back(
        static_cast<double>(stored) /
        static_cast<double>(user_blocks * spec.block_size));
    col.store_blocks = stored / spec.block_size;
    col.store_bytes = stored;
  };
  const auto fail_and_restore = [&] {
    const ear::cfs::NamespaceSnapshot snap = timed_snapshot(cfs, col);
    const auto victim = static_cast<NodeId>(typical_failure_domain(
        cfs, snap, /*by_rack=*/false, derive_seed(rseed, 4)));
    // User data blocks whose only copy dies with the victim; group B's
    // count too once converted (the conversion phase has ended by then).
    std::vector<BlockId> lost;
    for (const auto& [block, status] : snap.blocks) {
      if (payloads.known(block) && status.locations.size() == 1 &&
          status.locations.front() == victim) {
        lost.push_back(block);
      }
    }
    const auto kill_t0 = Clock::now();
    cfs.kill_node(victim);
    {
      std::lock_guard<std::mutex> lock(w.lost_mu);
      w.lost = std::move(lost);
    }
    repair.start();
    repair.schedule_node(victim);
    restore_until_clean(cfs, repair, spec.replication);
    col.restore_s.push_back(seconds_since(kill_t0));
    timer.close(col);
  };
  if (p.failure_first) {
    fail_and_restore();
    convert();
  } else {
    convert();
    fail_and_restore();
  }

  for (auto& t : load) t.join();
  const double write_window_s =
      static_cast<double>(w.last_write_ns.load()) / 1e9;
  if (write_window_s > 0) {
    col.write_mbps.push_back(static_cast<double>(w.writes_done.load() *
                                                 spec.block_size) /
                             1e6 / write_window_s);
  }
  // Blocks written or encoded onto the dead node after its restore.
  const int64_t below = restore_until_clean(cfs, repair, spec.replication);
  timer.close(col);
  repair.stop();
  timed_snapshot(cfs, col);
  harvest_repair(repair, below, col);
  harvest_cache(cfs, col);

  verify_stored(cfs, payloads);
  col.mismatches += payloads.mismatches();
}

}  // namespace

Shape run_open_loop(const std::string& name, const RunOptions& opts,
                    Collector& col) {
  OpenLoopParams p = name == "qos-repair" ? qos_repair() : testbed_mix();
  if (opts.smoke) {
    p.read_stripes = std::max(2, p.read_stripes / 4);
    p.convert_stripes = std::max(2, p.convert_stripes / 4);
    p.horizon_s = 1.0;
  }
  const auto run_start = Clock::now();
  while (more_rounds(opts, col.rounds, run_start)) {
    run_round(p, opts, col.rounds, col);
    ++col.rounds;
  }
  const Bytes chunk = std::min(p.throttle.chunk_size, p.throttle.pipeline_chunk);
  return Shape{p.spec.n, p.spec.k, p.spec.block_size, chunk};
}

}  // namespace earbench
