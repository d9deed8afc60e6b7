// Extension experiment: chaos engineering for the transition pipeline, plus
// a Monte Carlo reliability comparison of RR vs EAR (the paper's §III claim
// that EAR preserves — here: improves — reliability, quantified as MTTDL and
// P(data loss by t)).
//
// Part 1 — deterministic replay.  A seeded FailureProcess schedule is applied
// to a mixed (half-encoded) EAR namespace in virtual time; after every event
// the RepairManager drains its priority queue synchronously.  The run is
// executed twice and the two event logs must compare byte-identical — the
// subsystem's reproducibility contract.
//
// Part 2 — live chaos.  The same machinery under real threads: heartbeat
// pump -> failure detector -> repair workers race a RaidNode encoding job
// while a RealTimeFailureDriver kills and revives nodes and racks.  Verifies
// every block is readable once the dust settles and reports detector false
// positives and repair work done.
//
// Part 3 — reliability.  estimate_reliability() over actual RR and EAR
// placements, before and after encoding, under independent node and rack
// exponential lifetimes.  Post-encoding RR concentrates stripes (up to n
// blocks of a stripe may share a rack), so a single rack failure loses data;
// EAR's c=1 rack constraint survives it.  The bench checks
// P(no loss | EAR) >= P(no loss | RR) after encoding.
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "bench/testbed_util.h"
#include "cfs/raidnode.h"
#include "common/csv.h"
#include "failure/detector.h"
#include "failure/events.h"
#include "failure/process.h"
#include "failure/reliability.h"
#include "failure/repair.h"

namespace {

using namespace ear;

int count_readable(cfs::MiniCfs& cfs) {
  NodeId reader = kInvalidNode;
  for (NodeId n = 0; n < cfs.topology().node_count(); ++n) {
    if (cfs.node_alive(n)) {
      reader = n;
      break;
    }
  }
  if (reader == kInvalidNode) return 0;
  int readable = 0;
  for (const BlockId b : cfs.all_blocks()) {
    try {
      cfs.read_block(b, reader);
      ++readable;
    } catch (const std::runtime_error&) {
    }
  }
  return readable;
}

// ---- Part 1 ---------------------------------------------------------------

std::string run_chaos_deterministic(const bench::TestbedParams& tparams,
                                    const failure::FailureModel& model,
                                    Seconds horizon) {
  auto loaded = bench::make_loaded_testbed(tparams, /*use_ear=*/true);
  cfs::MiniCfs& cfs = *loaded.cfs;
  // Virtual-time replay: no emulated link delays.
  cfs.set_transport(std::make_unique<cfs::InstantTransport>(cfs.topology()));

  // Encode the first half so chaos hits a mixed namespace — replicated
  // blocks exercise re-replication, encoded ones exercise decode-rebuild.
  for (size_t i = 0; i < loaded.stripes.size() / 2; ++i) {
    cfs.encode_stripe(loaded.stripes[i]);
  }

  const std::vector<failure::FailureEvent> events =
      failure::FailureProcess(cfs.topology(), model).generate(horizon);

  failure::RepairConfig rcfg;
  rcfg.max_attempts = 2;
  failure::RepairManager repair(cfs, rcfg);

  std::string log;
  char line[192];
  for (const auto& ev : events) {
    failure::apply_event(cfs, ev);
    log += failure::format_event(ev);
    log += '\n';
    int queued = 0;
    if (ev.kind == failure::EventKind::kNodeFail) {
      queued = repair.schedule_node(ev.id);
    } else if (ev.kind == failure::EventKind::kRackFail) {
      queued = repair.schedule_rack(ev.id);
    }
    const auto d = repair.drain();
    std::snprintf(line, sizeof(line),
                  "  queued=%d repaired=%lld re_replicated=%lld noop=%lld "
                  "retries=%lld unrecoverable=%lld bytes=%lld\n",
                  queued, static_cast<long long>(d.repaired),
                  static_cast<long long>(d.re_replicated),
                  static_cast<long long>(d.noop),
                  static_cast<long long>(d.retries),
                  static_cast<long long>(d.unrecoverable),
                  static_cast<long long>(d.bytes_moved));
    log += line;
  }

  const auto total = repair.report();
  std::snprintf(line, sizeof(line),
                "total events=%zu repaired=%lld re_replicated=%lld "
                "unrecoverable=%lld bytes=%lld readable=%d/%zu\n",
                events.size(), static_cast<long long>(total.repaired),
                static_cast<long long>(total.re_replicated),
                static_cast<long long>(total.unrecoverable),
                static_cast<long long>(total.bytes_moved),
                count_readable(cfs), cfs.all_blocks().size());
  log += line;
  return log;
}

// ---- Part 2 ---------------------------------------------------------------

struct LiveOutcome {
  size_t events_applied = 0;
  int64_t false_positives = 0;
  failure::RepairManager::Report repair;
  size_t encode_failures = 0;
  size_t encode_retried_ok = 0;
  int readable = 0;
  size_t total_blocks = 0;
  cfs::NamespaceSnapshot final_snapshot;
};

LiveOutcome run_chaos_live(const bench::TestbedParams& tparams,
                           const failure::FailureModel& model,
                           Seconds horizon, double compression) {
  auto loaded = bench::make_loaded_testbed(tparams, /*use_ear=*/true);
  cfs::MiniCfs& cfs = *loaded.cfs;
  cfs.set_transport(std::make_unique<cfs::InstantTransport>(cfs.topology()));

  const std::vector<failure::FailureEvent> events =
      failure::FailureProcess(cfs.topology(), model).generate(horizon);

  failure::DetectorConfig dcfg;
  dcfg.timeout = 0.06;
  dcfg.check_interval = 0.02;
  failure::FailureDetector detector(cfs.topology().node_count(), dcfg);
  failure::HeartbeatPump pump(cfs, detector, /*period=*/0.01);

  failure::RepairConfig rcfg;
  rcfg.workers = 2;
  rcfg.repair_bandwidth = 256e6;  // cap repair traffic under the encode job
  failure::RepairManager repair(cfs, rcfg);

  repair.start();
  detector.start([&](const failure::FailureDetector::Event& ev) {
    if (ev.down) repair.schedule_node(ev.node);
  });
  pump.start();

  failure::RealTimeFailureDriver driver(cfs, events, compression);
  driver.start();

  // The encoding job races the chaos — stripes whose replicas die mid-job
  // fail cleanly and are retried below once redundancy is back.
  cfs::RaidNode raid(cfs, /*map_slots=*/2);
  cfs::EncodeReport encode = raid.encode_stripes(loaded.stripes);

  driver.wait();
  repair.wait_idle();

  LiveOutcome out;
  out.events_applied = driver.events_applied();
  out.encode_failures = encode.failed.size();

  // Chaos over: transient failures resolve, stragglers report back, and the
  // failed encodes get their retry.
  cfs.revive_all();
  if (!encode.failed.empty()) {
    repair.schedule_scan();
    repair.wait_idle();
    const cfs::EncodeReport retry = raid.encode_stripes(encode.failed);
    out.encode_retried_ok = encode.failed.size() - retry.failed.size();
  }
  pump.stop();
  detector.stop();
  repair.stop();
  repair.schedule_scan();
  repair.drain();

  out.false_positives = detector.false_positives();
  out.repair = repair.report();
  out.readable = count_readable(cfs);
  out.total_blocks = cfs.all_blocks().size();
  out.final_snapshot = cfs.namespace_snapshot();
  return out;
}

// ---- Part 3 ---------------------------------------------------------------

struct PolicyReliability {
  failure::ReliabilityResult pre;
  failure::ReliabilityResult post;
};

PolicyReliability policy_reliability(bool use_ear, const Topology& topo,
                                     const PlacementConfig& pcfg,
                                     int stripes, uint64_t seed,
                                     const failure::ReliabilityConfig& rcfg) {
  auto policy = use_ear ? make_encoding_aware_replication(topo, pcfg, seed)
                        : make_random_replication(topo, pcfg, seed);
  BlockId next = 0;
  while (static_cast<int>(policy->sealed_stripes().size()) < stripes) {
    policy->place_block(next++, std::nullopt);
  }
  PolicyReliability out;
  out.pre = failure::estimate_reliability(
      topo, failure::replicated_placements(*policy), rcfg);
  out.post = failure::estimate_reliability(
      topo, failure::encoded_placements(*policy), rcfg);
  return out;
}

const char* fmt_mttdl(double v, char* buf, size_t len) {
  if (v == std::numeric_limits<double>::infinity()) return ">horizon";
  std::snprintf(buf, len, "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const bench::ObsOutputs obs_out = bench::obs_from_flags(flags);

  bench::TestbedParams tparams = bench::TestbedParams::from_flags(flags);
  if (!flags.has("k")) tparams.k = 6;
  if (!flags.has("n")) tparams.n = tparams.k + 2;
  if (!flags.has("stripes")) tparams.stripes = 200;
  if (!flags.has("block-bytes") && !flags.get_bool("paper-scale")) {
    tparams.block_size = 16_KB;
  }
  tparams.nodes_per_rack =
      static_cast<int>(flags.get_int("nodes-per-rack", 2));

  failure::FailureModel model;
  model.node_mttf = flags.get_double("node-mttf", 20);
  model.node_mttr = flags.get_double("node-mttr", 3);
  model.rack_mttf = flags.get_double("rack-mttf", 60);
  model.rack_mttr = flags.get_double("rack-mttr", 5);
  model.seed = tparams.seed ^ 0x5eedULL;
  const Seconds horizon = flags.get_double("horizon", 8);

  const std::string csv_out = flags.get_string("csv-out", "");
  const std::string log_out = flags.get_string("log-out", "");

  // ---- Part 1: deterministic replay, twice --------------------------------
  bench::header("Extension: chaos replay",
                "seeded failure schedule, drained repair, run twice");
  const std::string log_a = run_chaos_deterministic(tparams, model, horizon);
  const std::string log_b = run_chaos_deterministic(tparams, model, horizon);
  const bool identical = log_a == log_b;
  {
    // The last line is the run's summary; echo it.
    const size_t cut = log_a.rfind("total ");
    bench::row("  %s", cut == std::string::npos
                           ? "(empty schedule)"
                           : log_a.substr(cut, log_a.size() - cut - 1).c_str());
  }
  bench::row("  event log: %zu bytes, replay %s", log_a.size(),
             identical ? "byte-identical (PASS)" : "DIVERGED (FAIL)");
  if (!log_out.empty()) {
    CsvWriter f(log_out);
    if (!f.ok()) {
      std::fprintf(stderr, "error: cannot open %s: %s\n", log_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    f.row("%s", log_a.c_str());
    if (!f.close()) {
      std::fprintf(stderr, "error: writing %s failed: %s\n", log_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    bench::note("wrote " + log_out);
  }
  // CI byte-identity gate: stop after the replay comparison so the gate is
  // cheap and its exit code reflects determinism alone.
  if (flags.get_bool("replay-only")) return identical ? 0 : 1;

  // ---- Part 2: live threads ----------------------------------------------
  bench::header("Extension: live chaos",
                "heartbeat detector + repair workers vs encoding job");
  const double compression = flags.get_double("compression", 20);
  const LiveOutcome live = run_chaos_live(tparams, model, horizon, compression);
  bench::row("  events applied      %zu", live.events_applied);
  bench::row("  detector false pos. %lld",
             static_cast<long long>(live.false_positives));
  bench::row("  repaired/re-repl.   %lld / %lld",
             static_cast<long long>(live.repair.repaired),
             static_cast<long long>(live.repair.re_replicated));
  bench::row("  repair noops        %lld (stale tasks re-verified away)",
             static_cast<long long>(live.repair.noop));
  bench::row("  encode failures     %zu (retried ok: %zu)",
             live.encode_failures, live.encode_retried_ok);
  bench::row("  blocks readable     %d/%zu %s", live.readable,
             live.total_blocks,
             static_cast<size_t>(live.readable) == live.total_blocks
                 ? "(PASS)"
                 : "(FAIL)");
  const bool live_ok =
      static_cast<size_t>(live.readable) == live.total_blocks;

  // ---- Part 3: Monte Carlo reliability ------------------------------------
  bench::header("Extension: reliability",
                "P(data loss) and MTTDL, RR vs EAR, pre/post encoding");
  failure::ReliabilityConfig rel;
  rel.node_mttf = flags.get_double("rel-node-mttf", 2000);
  rel.node_mttr = flags.get_double("rel-node-mttr", 10);
  rel.rack_mttf = flags.get_double("rel-rack-mttf", 500);
  rel.rack_mttr = flags.get_double("rel-rack-mttr", 20);
  rel.horizon = flags.get_double("rel-horizon", 400);
  rel.trials = static_cast<int>(flags.get_int("trials", 300));
  rel.seed = tparams.seed;

  const Topology topo(tparams.racks, tparams.nodes_per_rack);
  PlacementConfig pcfg;
  pcfg.code = CodeParams{tparams.n, tparams.k};
  pcfg.replication = tparams.replication;
  pcfg.c = 1;

  const PolicyReliability rr =
      policy_reliability(false, topo, pcfg, tparams.stripes, tparams.seed, rel);
  const PolicyReliability ear =
      policy_reliability(true, topo, pcfg, tparams.stripes, tparams.seed, rel);
  const failure::ReliabilityResult as_operated = failure::estimate_reliability(
      topo, failure::placements_from_snapshot(live.final_snapshot, tparams.k),
      rel);

  char m1[32], m2[32];
  bench::row("  %-18s | %8s | %10s | %10s", "placement", "p_loss", "p_no_loss",
             "mttdl_s");
  bench::row("  %-18s | %8.3f | %10.3f | %10s", "RR pre-encode",
             rr.pre.p_loss, rr.pre.p_no_loss,
             fmt_mttdl(rr.pre.mttdl, m1, sizeof(m1)));
  bench::row("  %-18s | %8.3f | %10.3f | %10s", "EAR pre-encode",
             ear.pre.p_loss, ear.pre.p_no_loss,
             fmt_mttdl(ear.pre.mttdl, m1, sizeof(m1)));
  bench::row("  %-18s | %8.3f | %10.3f | %10s", "RR post-encode",
             rr.post.p_loss, rr.post.p_no_loss,
             fmt_mttdl(rr.post.mttdl, m1, sizeof(m1)));
  bench::row("  %-18s | %8.3f | %10.3f | %10s", "EAR post-encode",
             ear.post.p_loss, ear.post.p_no_loss,
             fmt_mttdl(ear.post.mttdl, m2, sizeof(m2)));
  bench::row("  %-18s | %8.3f | %10.3f | %10s", "live cluster",
             as_operated.p_loss, as_operated.p_no_loss,
             fmt_mttdl(as_operated.mttdl, m1, sizeof(m1)));
  const bool ear_wins = ear.post.p_no_loss >= rr.post.p_no_loss;
  bench::note(ear_wins
                  ? "EAR >= RR on P(no data loss) after encoding (PASS)"
                  : "EAR < RR on P(no data loss) after encoding (FAIL)");
  bench::note("RR may stack >m blocks of a stripe in one rack after encoding;"
              " EAR's c=1 constraint caps exposure at one block per rack");

  if (!csv_out.empty()) {
    CsvWriter csv(csv_out);
    if (!csv.ok()) {
      std::fprintf(stderr, "error: cannot open %s: %s\n", csv_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    csv.row("placement,phase,trials,losses,p_loss,p_no_loss,mttdl_s\n");
    const auto emit = [&csv](const char* placement, const char* phase,
                             const failure::ReliabilityResult& r) {
      csv.row("%s,%s,%d,%d,%.6f,%.6f,%.3f\n", placement, phase, r.trials,
              r.losses, r.p_loss, r.p_no_loss, r.mttdl);
    };
    emit("rr", "pre", rr.pre);
    emit("ear", "pre", ear.pre);
    emit("rr", "post", rr.post);
    emit("ear", "post", ear.post);
    emit("live", "post", as_operated);
    if (!csv.close()) {
      std::fprintf(stderr, "error: writing %s failed: %s\n", csv_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    bench::note("wrote " + csv_out);
  }

  const int obs_rc = bench::obs_export(obs_out);
  if (!identical || !live_ok || !ear_wins) return 1;
  return obs_rc;
}
