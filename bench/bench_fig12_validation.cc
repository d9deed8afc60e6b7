// Figure 12 + Table I, Experiment B.1: simulator validation.  Runs the same
// scenario — 12 single-node racks, (10,8), 2-way replication, Poisson write
// stream, encoding of a fixed batch of stripes — on BOTH the real-time
// MiniCfs testbed (real bytes, real RS coding, emulated links) and the
// discrete-event simulator, then compares (a) the cumulative
// stripes-encoded-vs-time curves and (b) average write response times with
// and without background encoding.
//
// Paper expectation: the simulator tracks the testbed closely (Table I:
// differences under 4.3%).  The bench exits 1 when either encode duration
// differs from the testbed's by more.
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "bench/testbed_util.h"
#include "cfs/workload.h"
#include "erasure/rs.h"
#include "sim/cluster.h"
#include "sim/metrics.h"

namespace {

struct Outcome {
  std::vector<double> completion_times;  // seconds since encode start
  double write_before = 0;
  double write_during = 0;
  double encode_duration = 0;
};

// Measures the real Reed-Solomon compute time of one (n,k) stripe at the
// given block size, so the simulator can charge the same per-stripe delay
// the testbed pays.
double measure_stripe_compute_seconds(int n, int k, ear::Bytes block) {
  using namespace ear;
  const erasure::RSCode code(n, k);
  Rng rng(123);
  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < k; ++i) {
    std::vector<uint8_t> b(static_cast<size_t>(block));
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.uniform(256));
    data.push_back(std::move(b));
  }
  parity.assign(static_cast<size_t>(n - k),
                std::vector<uint8_t>(static_cast<size_t>(block)));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
  const auto start = std::chrono::steady_clock::now();
  constexpr int kReps = 3;
  for (int i = 0; i < kReps; ++i) code.encode(dv, pv);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() /
         kReps;
}

// The simulator splits the batch evenly over this many encode processes
// (one per rack), as the testbed's RaidNode runs that many map slots.
constexpr int kEncodeProcesses = 12;

// Table I's largest testbed-vs-simulation difference; the bench exits 1
// when an encode duration differs by more.
constexpr double kPaperBound = 0.043;

}  // namespace

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const double write_rate = flags.get_double("write-rate", 3.0);
  const double warmup_s = flags.get_double("warmup", 2.0);
  const Bytes block = static_cast<Bytes>(flags.get_int("block-bytes", 1_MB));
  const double bw = flags.get_double("node-bw", 10e6);
  const int stripes = static_cast<int>(flags.get_int("stripes", 24));
  // --csv-out=<prefix> writes <prefix>_{rr,ear}_{stripes,responses}.csv from
  // the simulator runs for external plotting.
  const std::string csv_prefix = flags.get_string("csv-out");
  int rc = 0;
  // Any other count leaves the simulator encoding fewer stripes than the
  // testbed (none at all below 12), so the comparison would be meaningless.
  if (stripes <= 0 || stripes % kEncodeProcesses != 0) {
    std::fprintf(stderr,
                 "error: --stripes must be a positive multiple of %d "
                 "(got %d)\n",
                 kEncodeProcesses, stripes);
    return 1;
  }

  bench::header("Figure 12 / Table I",
                "simulator validation against the MiniCfs testbed");

  const double compute_s = measure_stripe_compute_seconds(10, 8, block);
  bench::row("measured per-stripe RS compute: %.4f s (charged to the sim)",
             compute_s);

  auto params = bench::TestbedParams::from_flags(flags);
  params.block_size = block;
  params.stripes = stripes;
  params.throttle.node_bw = bw;
  params.throttle.rack_uplink_bw = bw;
  params.throttle.disk_bw = 1.3 * bw;  // SATA : 1 Gb/s ratio
  params.throttle.chunk_size = reservation_chunk(block);

  bool within_bound = true;
  for (const bool use_ear : {false, true}) {
    // ---------------- testbed run ----------------
    Outcome testbed;
    {
      auto loaded = bench::make_loaded_testbed(params, use_ear);

      cfs::WriteWorkload writes(*loaded.cfs, write_rate, 7);
      writes.start();
      std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
      cfs::RaidNode raid(*loaded.cfs, kEncodeProcesses);
      const cfs::EncodeReport report = raid.encode_stripes(loaded.stripes);
      writes.stop();

      testbed.completion_times = report.completion_times;
      testbed.encode_duration = report.duration_s;
      Summary before, during;
      for (const auto& [issue, response] : writes.samples()) {
        (issue < warmup_s ? before : during).add(response);
      }
      testbed.write_before = before.empty() ? 0 : before.mean();
      testbed.write_during = during.empty() ? 0 : during.mean();
    }

    // ---------------- simulator run ----------------
    Outcome simulated;
    {
      sim::SimConfig cfg;
      cfg.racks = 12;
      cfg.nodes_per_rack = 1;
      cfg.net.node_bw = bw;
      cfg.net.rack_uplink_bw = bw;
      // Match the testbed's disk model and real coding cost.
      cfg.net.disk_bw = 1.3 * bw;
      cfg.encode_compute_seconds = compute_s;
      // The testbed encode pipelines each block in its transport's chunks.
      cfg.encode_pipeline_chunks =
          static_cast<int>(params.block_size / params.throttle.chunk_size);
      cfg.placement.code = CodeParams{10, 8};
      cfg.placement.replication = 2;
      cfg.placement.c = 1;
      cfg.use_ear = use_ear;
      cfg.block_size = block;
      cfg.write_rate = write_rate;
      cfg.background_rate = 0;
      cfg.encode_start = warmup_s;
      cfg.encode_processes = kEncodeProcesses;
      cfg.stripes_per_process = stripes / kEncodeProcesses;
      cfg.seed = 7;
      sim::ClusterSim sim_run(cfg);
      const sim::SimResult result = sim_run.run();
      if (result.stripes_encoded != stripes) {
        std::fprintf(stderr, "error: the simulator encoded %d of %d stripes\n",
                     result.stripes_encoded, stripes);
        rc = 1;
      }
      for (const auto& [t, count] : result.stripe_completions) {
        (void)count;
        simulated.completion_times.push_back(t - result.encode_begin);
      }
      simulated.encode_duration = result.encode_end - result.encode_begin;
      simulated.write_before = result.write_response_before.mean();
      simulated.write_during = result.write_response_during.mean();

      if (!csv_prefix.empty()) {
        const std::string base = csv_prefix + (use_ear ? "_ear" : "_rr");
        const std::string stripe_path = base + "_stripes.csv";
        if (!sim::write_stripe_completion_csv(result, stripe_path)) {
          std::fprintf(stderr, "error: cannot write %s: %s\n",
                       stripe_path.c_str(), std::strerror(errno));
          rc = 1;
        }
        const std::string resp_path = base + "_responses.csv";
        if (!sim::write_response_times_csv(result, resp_path)) {
          std::fprintf(stderr, "error: cannot write %s: %s\n",
                       resp_path.c_str(), std::strerror(errno));
          rc = 1;
        }
      }
    }

    bench::row("---- %s ----", use_ear ? "EAR" : "RR");
    bench::row("%18s | %10s | %10s", "stripes encoded", "testbed s",
               "sim s");
    for (size_t i = 3; i < testbed.completion_times.size() &&
                       i < simulated.completion_times.size();
         i += 4) {
      bench::row("%18zu | %10.2f | %10.2f", i + 1,
                 testbed.completion_times[i], simulated.completion_times[i]);
    }
    const double diff =
        simulated.encode_duration / testbed.encode_duration - 1.0;
    bench::row("encode duration: testbed %.2f s, sim %.2f s (diff %+.1f%%)",
               testbed.encode_duration, simulated.encode_duration,
               100.0 * diff);
    if (!(std::abs(diff) <= kPaperBound)) within_bound = false;
    bench::row("write response w/o encoding: testbed %.4f s, sim %.4f s",
               testbed.write_before, simulated.write_before);
    bench::row("write response w/  encoding: testbed %.4f s, sim %.4f s",
               testbed.write_during, simulated.write_during);
  }
  bench::note("paper Table I: testbed-vs-simulation differences < 4.3%");
  if (!within_bound) {
    std::fprintf(stderr,
                 "error: an encode duration differs from the testbed's by "
                 "more than the paper's %.1f%%\n",
                 100.0 * kPaperBound);
    rc = 1;
  }
  return rc;
}
