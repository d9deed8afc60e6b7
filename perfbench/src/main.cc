// earbench — end-to-end benchmark of the EAR MiniCfs system.
//
//   earbench --workload floor|testbed-mix|qos-repair --seed N --seconds S
//            --trace 0|1 [--smoke] [--corrupt-records] [--git-sha SHA]
//
// Prints host facts, one "metric" line per metric (with its sample count or
// the percentile actually emitted), operations attempted/failed by kind, and
// finally one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every run prints every end-to-end metric; --trace 1 adds the per-layer
// ones.  The JSON of --trace 0 holds the bounded end-to-end metrics, that of
// --trace 1 the per-layer ones and the unbounded end-to-end tails.
// Exits 1 when any byte read differs from what was written, 2 on bad usage.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "gf256/kernel.h"
#include "layers.h"
#include "workloads.h"

namespace {

using namespace earbench;

struct Args {
  std::string workload;
  RunOptions run;
  bool corrupt_records = false;
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      args->run.smoke = true;
    } else if (flag == "--corrupt-records") {
      args->corrupt_records = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace" || flag == "--git-sha") {
      const char* v = value();
      if (v == nullptr) return false;
      if (flag == "--workload") args->workload = v;
      if (flag == "--seed") args->run.seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args->run.seconds = std::strtod(v, nullptr);
      if (flag == "--trace") args->run.trace = std::strcmp(v, "0") != 0;
      if (flag == "--git-sha") args->git_sha = v;
    } else {
      return false;
    }
  }
  return args->workload == "floor" || args->workload == "testbed-mix" ||
         args->workload == "qos-repair";
}

const char* compiler_name() {
#if defined(__clang__)
  return "clang";
#elif defined(__GNUC__)
  return "gcc";
#else
  return "unknown";
#endif
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void print_host(const Args& args) {
  std::printf(
      "host nproc=%u gf_kernel=%s build=%s optimized=%s compiler=\"%s %s\" "
      "git=%s\n",
      std::thread::hardware_concurrency(), ear::gf::kernel().name,
      EARBENCH_BUILD_TYPE, optimized_build() ? "yes" : "no", compiler_name(),
      __VERSION__, args.git_sha.c_str());
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "WARNING: earbench was built without optimization; its "
                 "timings do not describe the program\n");
  }
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), args.run.seconds,
              args.run.trace ? 1 : 0, args.run.smoke ? 1 : 0);
}

void print_ops(const Collector& col) {
  for (int k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    std::printf("ops %-14s attempted=%lld failed=%lld\n", op_name(kind),
                static_cast<long long>(col.ops.attempted(kind)),
                static_cast<long long>(col.ops.failed(kind)));
  }
  const Percentile late = honest_percentile(col.lateness_ms.sorted(), 0.99);
  std::printf("loadgen rounds=%d lateness %s=%.3f ms (n=%zu) late>10ms=%lld\n",
              col.rounds, late.label.c_str(), late.value, late.n,
              static_cast<long long>(col.late_requests.load()));
  std::printf("check mismatched_reads=%lld blocks_below_target=%lld\n",
              static_cast<long long>(col.mismatches),
              static_cast<long long>(col.blocks_below_target));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: earbench --workload floor|testbed-mix|qos-repair "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--corrupt-records] [--git-sha SHA]\n");
    return 2;
  }
  Payloads::corrupt_records = args.corrupt_records;
  try {
    print_host(args);
    // Fixed allocator and pool state before anything is timed.  glibc
    // raises its mmap threshold after the first free of a mapped block, so
    // whether a round's block buffers were fresh mappings or recycled heap
    // depended on earlier rounds.  Pinned here at that steady state: blocks
    // come from one heap arena that is never trimmed, so later rounds reuse
    // pages already faulted in instead of faulting a round's worth of
    // memory afresh (page-fault cost follows the host, not the program).
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_ARENA_MAX, 1);
    grow_worker_pool(32);
    Collector col;
    const Shape shape = args.workload == "floor"
                            ? run_floor(args.run, col)
                            : run_open_loop(args.workload, args.run, col);
    print_ops(col);
    const bool correct = col.mismatches == 0;
    std::vector<Metric> metrics = end_to_end_metrics(col);
    for (Metric& m : metrics) m.in_result = bounded(m) != args.run.trace;
    if (args.run.trace) {
      const std::vector<Metric> layers = per_layer_metrics(col, shape);
      metrics.insert(metrics.end(), layers.begin(), layers.end());
    }
    print_result(correct, col.ops.total_attempted(), col.ops.total_failed(),
                 metrics);
    if (!correct) {
      std::fprintf(stderr, "earbench: %lld reads or stored copies differ from "
                           "what was written\n",
                   static_cast<long long>(col.mismatches));
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "earbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
