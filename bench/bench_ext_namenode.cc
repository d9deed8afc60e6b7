// Extension bench: NameNode namespace scalability under lock striping.
//
// Measures aggregate client throughput (write + read + encode + replicate
// ops/s) against a MiniCfs while one scanner thread continuously takes
// namespace_snapshot() — the access pattern of RepairManager scans and the
// reliability sampler.  Run at --shards 1 the namespace degenerates to the
// old single-mutex NameNode: every snapshot copy holds the only lock and
// stalls all point ops for its full duration.  With striping the snapshot
// releases each shard right after copying it, so point ops on other shards
// proceed.  That contrast — not core counts — is what this bench isolates,
// so it is meaningful even on a single-core host.
//
//   ./bench_ext_namenode                # full sweep, shards 1 vs 16
//   ./bench_ext_namenode --shards 8 --threads 1,4 --secs 0.5
//   ./bench_ext_namenode --smoke        # tiny run for sanitizer CI
//   ./bench_ext_namenode --csv-out namenode.csv
//
// Every caught client error is counted by op kind and reason and printed.
// The run exits 1 on any read error, and on any encode error other than the
// refusal of a stripe whose writes have not all committed yet (the claim is
// released and the stripe retried, as the RaidNode would).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cfs/minicfs.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/rng.h"

namespace {

using namespace ear;

// The client op a dice roll drives: 0, 1 and 2 pick one op each, every
// other value a read.
enum class OpKind { kWrite, kEncode, kReplicate, kRead };
constexpr const char* kOpNames[] = {"write", "encode", "replicate", "read"};

// An error message with every digit run replaced by N and the "(...)"
// detail dropped, so errors of one cause share one reason.
std::string error_reason(const std::string& what) {
  std::string out;
  for (const char ch : what) {
    if (ch == '(') break;
    if (std::isdigit(static_cast<unsigned char>(ch))) {
      if (out.empty() || out.back() != 'N') out.push_back('N');
    } else {
      out.push_back(ch);
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

// MiniCfs::encode_stripe's refusal of a sealed stripe whose writes are still
// in flight: benign, nothing was mutated.
const std::string kUncommittedRefusal =
    "encode_stripe: stripe N block N has not committed";

using ErrorCounts = std::map<std::pair<OpKind, std::string>, int64_t>;

struct TrialResult {
  int threads = 0;
  int shards = 0;
  int64_t ops = 0;        // aggregate client ops completed
  int64_t snapshots = 0;  // snapshots the scanner completed
  double secs = 0;
  // Worst single client op, seconds.  A point op that collides with an
  // in-flight snapshot waits for the whole namespace copy under a single
  // mutex, but only for one shard's slice under striping — this is the
  // stall bound striping actually buys, and it shows even on one core.
  double max_stall_s = 0;
  ErrorCounts errors;  // (op kind, reason) -> caught errors
  double ops_per_s() const { return secs > 0 ? ops / secs : 0; }
};

cfs::CfsConfig trial_config(int shards) {
  cfs::CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 3;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 1_KB;
  cfg.seed = 33;
  cfg.namespace_shards = shards;
  return cfg;
}

TrialResult run_trial(int threads, int shards, double secs, int preload) {
  const cfs::CfsConfig cfg = trial_config(shards);
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  cfs::MiniCfs cfs(cfg, std::make_unique<cfs::InstantTransport>(topo));
  const int node_count = topo.node_count();

  const std::vector<uint8_t> payload(static_cast<size_t>(cfg.block_size), 7);
  std::vector<BlockId> blocks;
  blocks.reserve(static_cast<size_t>(preload));
  for (int i = 0; i < preload; ++i) {
    blocks.push_back(cfs.write_block(payload, i % node_count));
  }

  std::mutex claim_mu;
  std::set<StripeId> claimed;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> total_ops{0};
  std::mutex stall_mu;
  double max_stall = 0;
  ErrorCounts errors;

  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      int64_t ops = 0;
      double worst = 0;
      ErrorCounts local_errors;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t dice = rng.uniform(32);
        const auto kind = static_cast<OpKind>(
            std::min(dice, static_cast<uint64_t>(OpKind::kRead)));
        StripeId target = kInvalidStripe;
        const auto op_start = std::chrono::steady_clock::now();
        try {
          if (kind == OpKind::kWrite) {
            cfs.write_block(payload,
                            static_cast<NodeId>(rng.uniform(
                                static_cast<uint64_t>(node_count))));
          } else if (kind == OpKind::kEncode) {
            // Claim one sealed stripe and encode it.
            {
              std::lock_guard<std::mutex> lock(claim_mu);
              for (const StripeId s : cfs.sealed_stripes()) {
                if (claimed.insert(s).second) {
                  target = s;
                  break;
                }
              }
            }
            if (target != kInvalidStripe) cfs.encode_stripe(target);
          } else if (kind == OpKind::kReplicate) {
            const BlockId b = blocks[rng.index(blocks.size())];
            cfs.replicate_block(
                b, static_cast<NodeId>(
                       rng.uniform(static_cast<uint64_t>(node_count))));
          } else {
            const BlockId b = blocks[rng.index(blocks.size())];
            cfs.read_block(
                b, static_cast<NodeId>(
                       rng.uniform(static_cast<uint64_t>(node_count))));
          }
          ++ops;
        } catch (const std::runtime_error& e) {
          // The op does not count; its error does.
          const std::string reason = error_reason(e.what());
          if (kind == OpKind::kEncode && reason == kUncommittedRefusal) {
            std::lock_guard<std::mutex> lock(claim_mu);
            claimed.erase(target);
          }
          ++local_errors[{kind, reason}];
        }
        // Only point ops bound the stall claim: writes and encodes do real
        // data-path work whose duration is not a lock artifact.
        if (dice >= 2) {
          const double took = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - op_start)
                                  .count();
          if (took > worst) worst = took;
        }
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(stall_mu);
      if (worst > max_stall) max_stall = worst;
      for (const auto& [key, count] : local_errors) errors[key] += count;
    });
  }

  // The scanner models repair-scan / reliability-sampling pressure: with a
  // single shard each snapshot copy stalls every client op.
  std::atomic<int64_t> snapshots{0};
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = cfs.namespace_snapshot();
      (void)snap;
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true);
  for (auto& t : clients) t.join();
  scanner.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TrialResult r;
  r.threads = threads;
  r.shards = shards;
  r.ops = total_ops.load();
  r.snapshots = snapshots.load();
  r.secs = elapsed;
  r.max_stall_s = max_stall;
  r.errors = std::move(errors);
  return r;
}

// Errors that fail the run: any read error, and any encode error but the
// uncommitted-write refusal.
int64_t fatal_errors(const ErrorCounts& errors) {
  int64_t fatal = 0;
  for (const auto& [key, count] : errors) {
    const auto& [kind, reason] = key;
    if (kind == OpKind::kRead ||
        (kind == OpKind::kEncode && reason != kUncommittedRefusal)) {
      fatal += count;
    }
  }
  return fatal;
}

std::vector<int> parse_thread_list(const std::string& spec) {
  std::vector<int> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.get_bool("smoke");
  const int shards = static_cast<int>(
      flags.get_int("shards", cfs::NamespaceShards::kDefaultShards));
  const double secs = flags.get_double("secs", smoke ? 0.05 : 1.0);
  const int preload = static_cast<int>(
      flags.get_int("preload", smoke ? 64 : 512));
  const std::vector<int> thread_counts = parse_thread_list(
      flags.get_string("threads", smoke ? "1,2" : "1,2,4,8,16"));
  const std::string csv_path = flags.get_string("csv-out");

  bench::header("ext-namenode",
                "NameNode namespace throughput: lock striping vs single mutex");
  bench::note("clients do write/read/encode/replicate; one scanner thread "
              "loops namespace_snapshot() (repair-scan pressure)");
  bench::note("shards=1 is the old single-mutex NameNode baseline");

  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty() && !csv.ok()) {
    std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
    return 1;
  }
  if (!csv_path.empty()) {
    csv.row("threads,shards,ops,snapshots,secs,ops_per_s,max_stall_ms\n");
  }

  bench::row("%8s %8s %12s %10s %12s %9s %10s %12s", "threads", "shards",
             "ops", "snapshots", "ops/s", "speedup", "stall_ms",
             "stall_gain");
  ErrorCounts errors;
  for (const int t : thread_counts) {
    const TrialResult base = run_trial(t, 1, secs, preload);
    const TrialResult striped = run_trial(t, shards, secs, preload);
    for (const TrialResult& r : {base, striped}) {
      const double speedup =
          base.ops_per_s() > 0 ? r.ops_per_s() / base.ops_per_s() : 0;
      const double stall_gain =
          r.max_stall_s > 0 ? base.max_stall_s / r.max_stall_s : 0;
      bench::row("%8d %8d %12lld %10lld %12.0f %8.2fx %10.3f %11.2fx",
                 r.threads, r.shards, static_cast<long long>(r.ops),
                 static_cast<long long>(r.snapshots), r.ops_per_s(), speedup,
                 r.max_stall_s * 1e3, stall_gain);
      if (!csv_path.empty()) {
        csv.row("%d,%d,%lld,%lld,%.4f,%.0f,%.3f\n", r.threads, r.shards,
                static_cast<long long>(r.ops),
                static_cast<long long>(r.snapshots), r.secs, r.ops_per_s(),
                r.max_stall_s * 1e3);
      }
      for (const auto& [key, count] : r.errors) errors[key] += count;
    }
  }

  bench::row("%-10s %10s  %s", "errors", "count", "reason");
  for (const auto& [key, count] : errors) {
    bench::row("%-10s %10lld  %s", kOpNames[static_cast<int>(key.first)],
               static_cast<long long>(count), key.second.c_str());
  }
  if (errors.empty()) bench::row("%-10s %10d", "(none)", 0);

  if (!csv_path.empty() && !csv.close()) {
    std::perror("csv close");
    return 1;
  }
  const int64_t fatal = fatal_errors(errors);
  if (fatal > 0) {
    std::fprintf(stderr, "%lld read or encode errors\n",
                 static_cast<long long>(fatal));
    return 1;
  }
  return 0;
}
