// Persistent block-store benchmark: sustained write throughput (mem vs
// mmap, fsync-per-commit vs flush-on-close), cold-start vs warm-cache read
// throughput, recovery-delta vs full-rebuild repair traffic, and two smoke
// modes:
//
//   --crash-smoke   fork a writer, SIGKILL it mid-commit, reopen and verify
//                   every committed block byte-identical (CI crash job;
//                   exits non-zero on any lost or corrupt block)
//   --paper-scale   write a dataset larger than --ram-budget-mb and read it
//                   back sampled, proving the store serves datasets that do
//                   not fit the RAM budget (exits non-zero otherwise)
//
//   ./bench_ext_store --blocks 128 --block-kb 256 --csv-out store.csv
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cfs/minicfs.h"
#include "common/csv.h"
#include "common/flags.h"
#include "failure/repair.h"
#include "store/mem_store.h"
#include "store/mmap_store.h"

namespace {

namespace fs = std::filesystem;
using namespace ear;
using datapath::BlockBuffer;
using store::MmapBlockStore;
using store::MmapStoreOptions;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<uint8_t> pattern(int64_t block, size_t size) {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>((static_cast<uint64_t>(block) * 31 + i) &
                                  0xFF);
  }
  return out;
}

double mb(double bytes) { return bytes / (1024.0 * 1024.0); }

int64_t max_rss_mb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return ru.ru_maxrss / 1024;  // Linux reports KB
}

struct Ctx {
  std::string root;
  int64_t blocks = 0;
  int64_t block_bytes = 0;
  CsvWriter* csv = nullptr;
  bool csv_on = false;
};

void emit(const Ctx& ctx, const char* section, const char* label,
          double value, const char* unit) {
  if (ctx.csv_on) {
    ctx.csv->row("%s,%s,%lld,%lld,%.3f,%s\n", section, label,
                 static_cast<long long>(ctx.blocks),
                 static_cast<long long>(ctx.block_bytes), value, unit);
  }
}

// ---- sustained write throughput -----------------------------------------

void bench_writes(const Ctx& ctx) {
  bench::header("Store writes",
                "sustained put() throughput, mem vs mmap backends");
  bench::row("%-28s | %10s | %10s", "backend", "MB/s", "seconds");

  const auto run = [&](const char* label,
                       const std::function<void()>& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const double secs = seconds_since(start);
    const double total = static_cast<double>(ctx.blocks * ctx.block_bytes);
    bench::row("%-28s | %10.1f | %10.3f", label, mb(total) / secs, secs);
    emit(ctx, "write", label, mb(total) / secs, "MB/s");
  };

  run("mem", [&] {
    store::MemBlockStore s;
    for (int64_t b = 0; b < ctx.blocks; ++b) {
      s.put(b, BlockBuffer::take(
                   pattern(b, static_cast<size_t>(ctx.block_bytes))));
    }
  });
  run("mmap fsync-per-commit", [&] {
    const std::string dir = ctx.root + "/write-commit";
    fs::remove_all(dir);
    MmapBlockStore s(dir);
    for (int64_t b = 0; b < ctx.blocks; ++b) {
      s.put(b, BlockBuffer::take(
                   pattern(b, static_cast<size_t>(ctx.block_bytes))));
    }
  });
  run("mmap flush-on-close", [&] {
    const std::string dir = ctx.root + "/write-flush";
    fs::remove_all(dir);
    MmapStoreOptions options;
    options.sync = MmapStoreOptions::SyncPolicy::kOnFlush;
    MmapBlockStore s(dir, options);
    for (int64_t b = 0; b < ctx.blocks; ++b) {
      s.put(b, BlockBuffer::take(
                   pattern(b, static_cast<size_t>(ctx.block_bytes))));
    }
    s.flush();
  });
  bench::note("fsync-per-commit pays one segment + one manifest sync per "
              "block; flush-on-close batches both");
}

// ---- cold vs warm reads --------------------------------------------------

void bench_reads(const Ctx& ctx) {
  bench::header("Store reads",
                "mmap read throughput: replay+cold page cache vs warm");
  const std::string dir = ctx.root + "/reads";
  fs::remove_all(dir);
  {
    MmapStoreOptions options;
    options.sync = MmapStoreOptions::SyncPolicy::kOnFlush;
    MmapBlockStore s(dir, options);
    for (int64_t b = 0; b < ctx.blocks; ++b) {
      s.put(b, BlockBuffer::take(
                   pattern(b, static_cast<size_t>(ctx.block_bytes))));
    }
    s.flush();
  }

  const auto open_start = std::chrono::steady_clock::now();
  MmapBlockStore s(dir);
  const double open_secs = seconds_since(open_start);
  bench::row("replay-on-open: %.3f s (%lld blocks verified)", open_secs,
             static_cast<long long>(s.open_report().blocks_recovered));
  emit(ctx, "read", "replay-open", open_secs, "s");

  uint64_t sink = 0;  // consumed below so the reads cannot be elided
  const auto sweep = [&](const char* label) {
    const auto start = std::chrono::steady_clock::now();
    for (int64_t b = 0; b < ctx.blocks; ++b) {
      const auto buf = s.get(b);
      const uint8_t* data = buf->data();
      uint64_t acc = 0;
      for (size_t i = 0; i < buf->size(); i += 512) acc += data[i];
      sink += acc;
    }
    const double secs = seconds_since(start);
    const double total = static_cast<double>(ctx.blocks * ctx.block_bytes);
    bench::row("%-28s | %10.1f MB/s", label, mb(total) / secs);
    emit(ctx, "read", label, mb(total) / secs, "MB/s");
  };

  s.drop_page_cache();
  sweep("cold (page cache dropped)");
  sweep("warm (page cache hot)");
  if (sink == 0xDEADBEEFu) bench::note("(improbable checksum)");
  bench::note("cold models a restarted node's first sweep; warm is the "
              "steady state the PR 5 block cache sees");
}

// ---- recovery delta vs full rebuild -------------------------------------

std::unique_ptr<cfs::MiniCfs> make_cluster(cfs::CfsConfig cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<cfs::MiniCfs>(
      cfg, std::make_unique<cfs::InstantTransport>(topo));
}

// Returns the number of failed scenarios: a block the drain gave up on, or
// one that does not read back its pattern after the repair.
int bench_recovery(const Ctx& ctx) {
  bench::header("Restart recovery",
                "repair traffic after a node restart: mmap replays its "
                "directory (delta repair) vs mem (full rebuild)");
  bench::row("%-28s | %12s | %12s | %12s", "backend", "recovered",
             "repaired", "repair MB");

  const auto scenario = [&](const char* label, bool mmap_backend) -> bool {
    cfs::CfsConfig cfg;
    cfg.racks = 6;
    cfg.nodes_per_rack = 3;
    cfg.placement.code = CodeParams{6, 4};
    cfg.placement.replication = 3;
    cfg.use_ear = true;
    cfg.block_size = 64_KB;
    cfg.seed = 99;
    if (mmap_backend) {
      cfg.store_backend = store::StoreBackend::kMmap;
      cfg.store_dir = ctx.root + "/recovery";
      fs::remove_all(cfg.store_dir);
    }
    auto cluster = make_cluster(cfg);
    std::vector<BlockId> written;
    for (int i = 0; i < 48; ++i) {
      written.push_back(cluster->write_block(
          pattern(i, static_cast<size_t>(cfg.block_size))));
    }
    NodeId victim = 0;
    for (NodeId n = 0; n < cfg.racks * cfg.nodes_per_rack; ++n) {
      if (cluster->blocks_stored_on(n) > cluster->blocks_stored_on(victim)) {
        victim = n;
      }
    }
    cluster->kill_node(victim);
    const auto report = cluster->restart_node(victim);
    const int64_t before = cluster->transport().cross_rack_bytes() +
                           cluster->transport().intra_rack_bytes();
    failure::RepairManager repair(*cluster, failure::RepairConfig{});
    repair.schedule_scan();
    const auto recovery = repair.drain();
    const int64_t moved = cluster->transport().cross_rack_bytes() +
                          cluster->transport().intra_rack_bytes() - before;
    int64_t mismatched = 0;  // wrong bytes, or no readable copy left
    for (size_t i = 0; i < written.size(); ++i) {
      const auto expect = pattern(static_cast<int64_t>(i),
                                  static_cast<size_t>(cfg.block_size));
      try {
        if (!(cluster->read_block(written[i], victim) == expect)) {
          ++mismatched;
        }
      } catch (const std::runtime_error&) {
        ++mismatched;
      }
    }
    bench::row("%-28s | %12lld | %12lld | %12.2f", label,
               static_cast<long long>(report.blocks_recovered),
               static_cast<long long>(recovery.re_replicated +
                                      recovery.repaired),
               mb(static_cast<double>(moved)));
    emit(ctx, "recovery", label, mb(static_cast<double>(moved)), "MB");
    if (mmap_backend) {
      cluster.reset();
      fs::remove_all(cfg.store_dir);
    }
    if (recovery.unrecoverable > 0 || mismatched > 0) {
      bench::row("  # FAIL: %s: %lld unrecoverable, %lld blocks mismatched",
                 label, static_cast<long long>(recovery.unrecoverable),
                 static_cast<long long>(mismatched));
      return false;
    }
    return true;
  };

  int failures = 0;
  if (!scenario("mmap (delta repair)", true)) ++failures;
  if (!scenario("mem (full rebuild)", false)) ++failures;
  bench::note("the mmap node re-registers every surviving on-disk block, so "
              "redundancy repair moves ~0 bytes; the mem node lost all "
              "state and every block it held is re-replicated");
  return failures;
}

// ---- crash smoke (CI) ----------------------------------------------------

int crash_smoke(const Ctx& ctx) {
  bench::header("Crash smoke",
                "SIGKILL a fsync-per-commit writer, reopen, verify");
  int failures = 0;
  for (int round = 0; round < 3; ++round) {
    const std::string dir =
        ctx.root + "/crash-" + std::to_string(round);
    const std::string committed_log = dir + ".committed";
    fs::remove_all(dir);
    fs::remove(committed_log);
    fs::create_directories(dir);

    const pid_t child = fork();
    if (child < 0) {
      std::perror("fork");
      return 1;
    }
    if (child == 0) {
      try {
        MmapStoreOptions options;
        options.segment_bytes = 1_MB;
        MmapBlockStore s(dir, options);
        const int fd = ::open(committed_log.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd < 0) _exit(2);
        for (int64_t b = 0;; ++b) {
          s.put(b, BlockBuffer::take(pattern(b, 8192)));
          const std::string line = std::to_string(b) + "\n";
          if (::write(fd, line.data(), line.size()) !=
              static_cast<ssize_t>(line.size())) {
            _exit(3);
          }
          if (::fdatasync(fd) != 0) _exit(4);
        }
      } catch (...) {
        _exit(5);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(80 + 50 * round));
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      bench::row("round %d: writer exited early (status %d) — no crash to "
                 "test", round, status);
      ++failures;
      continue;
    }

    std::vector<int64_t> committed;
    {
      std::ifstream in(committed_log);
      int64_t b;
      while (in >> b) committed.push_back(b);
    }
    MmapBlockStore reopened(dir);
    int64_t verified = 0;
    for (const int64_t b : committed) {
      const auto buf = reopened.get(b);
      if (!buf || !(*buf == pattern(b, 8192))) {
        bench::row("round %d: committed block %lld LOST or corrupt", round,
                   static_cast<long long>(b));
        ++failures;
        continue;
      }
      ++verified;
    }
    bench::row("round %d: killed after %zu commits; %lld/%zu recovered "
               "byte-identical (torn tail: %lld B)",
               round, committed.size(), static_cast<long long>(verified),
               committed.size(),
               static_cast<long long>(
                   reopened.open_report().torn_bytes_truncated));
    fs::remove_all(dir);
    fs::remove(committed_log);
  }
  bench::note(failures == 0 ? "PASS: no committed block lost in any round"
                            : "FAIL: committed data lost");
  return failures == 0 ? 0 : 1;
}

// ---- paper-scale smoke ---------------------------------------------------

int paper_scale(const Ctx& ctx, int64_t ram_budget_mb) {
  bench::header("Paper scale",
                "dataset larger than the RAM budget completes");
  const int64_t block_bytes = 4_MB;
  const int64_t target_bytes = ram_budget_mb * 2 * 1024 * 1024;
  const int64_t blocks = (target_bytes + block_bytes - 1) / block_bytes;
  const std::string dir = ctx.root + "/paper-scale";
  fs::remove_all(dir);

  MmapStoreOptions options;
  options.sync = MmapStoreOptions::SyncPolicy::kOnFlush;
  MmapBlockStore s(dir, options);
  const auto start = std::chrono::steady_clock::now();
  for (int64_t b = 0; b < blocks; ++b) {
    s.put(b, BlockBuffer::take(
                 pattern(b, static_cast<size_t>(block_bytes))));
    // Keep resident size bounded: committed pages are reclaimable, this
    // just asks for it eagerly so maxrss reflects the store, not the page
    // cache.
    if (b % 64 == 63) {
      s.flush();
      s.drop_page_cache();
    }
  }
  s.flush();
  const double write_secs = seconds_since(start);

  // Sampled verification across the whole dataset.
  s.drop_page_cache();
  int64_t checked = 0;
  for (int64_t b = 0; b < blocks; b += 7) {
    const auto buf = s.get(b);
    if (!buf || !(*buf == pattern(b, static_cast<size_t>(block_bytes)))) {
      bench::row("block %lld mismatch", static_cast<long long>(b));
      return 1;
    }
    ++checked;
  }

  const int64_t dataset_mb = blocks * block_bytes / (1024 * 1024);
  const int64_t rss_mb = max_rss_mb();
  bench::row("dataset %lld MB (budget %lld MB), wrote in %.1f s, verified "
             "%lld sampled blocks, max RSS %lld MB",
             static_cast<long long>(dataset_mb),
             static_cast<long long>(ram_budget_mb), write_secs,
             static_cast<long long>(checked), static_cast<long long>(rss_mb));
  emit(ctx, "paper-scale", "dataset", static_cast<double>(dataset_mb), "MB");
  emit(ctx, "paper-scale", "max-rss", static_cast<double>(rss_mb), "MB");
  fs::remove_all(dir);
  if (dataset_mb <= ram_budget_mb) {
    bench::note("FAIL: dataset does not exceed the RAM budget");
    return 1;
  }
  bench::note("PASS: dataset exceeds the RAM budget and every sampled "
              "block reads back byte-identical");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  Ctx ctx;
  ctx.blocks = flags.get_int("blocks", 128);
  ctx.block_bytes = flags.get_int("block-kb", 256) * 1024;
  ctx.root = flags.get_string(
      "dir", (fs::temp_directory_path() / "ear-store-bench").string());
  const std::string csv_path = flags.get_string("csv-out");

  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty() && !csv.ok()) {
    std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
    return 1;
  }
  ctx.csv = &csv;
  ctx.csv_on = !csv_path.empty();
  if (ctx.csv_on) {
    csv.row("section,label,blocks,block_bytes,value,unit\n");
  }

  fs::create_directories(ctx.root);
  int rc = 0;
  if (flags.get_bool("crash-smoke")) {
    rc = crash_smoke(ctx);
  } else if (flags.get_bool("paper-scale")) {
    rc = paper_scale(ctx, flags.get_int("ram-budget-mb", 512));
  } else {
    bench_writes(ctx);
    bench_reads(ctx);
    if (bench_recovery(ctx) > 0) rc = 1;
  }
  fs::remove_all(ctx.root);

  if (ctx.csv_on && !csv.close()) {
    std::perror("csv close");
    return 1;
  }
  return rc;
}
