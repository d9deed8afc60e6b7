// Figure 8(b), Experiment A.1: encoding throughput of RR vs EAR under
// injected background traffic, (10,8) code.  The paper runs Iperf UDP
// between 6 machine pairs at 0..800 Mb/s of the 1 Gb/s links; here six
// background streams each consume the same fraction of the emulated link
// bandwidth.
//
// Paper expectation: EAR's relative gain grows as the effective bandwidth
// shrinks — 57.5% with no injection up to ~120% at 800 Mb/s.
//   ./bench_fig08b_background --csv-out fig08b.csv
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/testbed_util.h"
#include "cfs/workload.h"
#include "common/csv.h"
#include "common/stats.h"

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const int runs = static_cast<int>(flags.get_int("runs", 1));
  const std::string csv_path = flags.get_string("csv-out");

  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty() && !csv.ok()) {
    std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
    return 1;
  }
  if (!csv_path.empty()) {
    csv.row("injected_fraction,runs,rr_mbps,ear_mbps,gain_pct\n");
  }

  bench::header("Figure 8(b)",
                "encoding throughput vs injected background traffic, (10,8)");
  bench::row("%12s | %12s | %12s | %8s", "injected", "RR MB/s", "EAR MB/s",
             "gain");

  for (const double fraction : std::vector<double>{0.0, 0.2, 0.4, 0.6, 0.8}) {
    Summary rr, ear_s;
    for (int run = 0; run < runs; ++run) {
      for (const bool use_ear : {false, true}) {
        auto params = bench::TestbedParams::from_flags(flags);
        params.seed = static_cast<uint64_t>(run * 2 + 1);
        auto testbed = bench::make_loaded_testbed(params, use_ear);

        // Six sender/receiver pairs as in the paper.
        std::vector<std::pair<NodeId, NodeId>> pairs;
        for (NodeId i = 0; i < 12; i += 2) pairs.emplace_back(i, i + 1);
        cfs::BackgroundTraffic background(
            *testbed.cfs, pairs, fraction * params.throttle.node_bw);
        background.start();

        cfs::RaidNode raid(*testbed.cfs, 12);
        const cfs::EncodeReport report =
            raid.encode_stripes(testbed.stripes);
        background.stop();
        (use_ear ? ear_s : rr).add(report.throughput_mbps);
      }
    }
    bench::row("%10.0f%% | %12.1f | %12.1f | %+6.1f%%", fraction * 100,
               rr.mean(), ear_s.mean(),
               100.0 * (ear_s.mean() / rr.mean() - 1.0));
    if (!csv_path.empty()) {
      csv.row("%.2f,%d,%.2f,%.2f,%.2f\n", fraction, runs, rr.mean(),
              ear_s.mean(), 100.0 * (ear_s.mean() / rr.mean() - 1.0));
    }
  }
  bench::note("paper: gain rises with injected traffic (57.5% -> 119.7%)");
  if (!csv_path.empty() && !csv.close()) {
    std::perror("csv close");
    return 1;
  }
  return 0;
}
