// Tour of the coding substrates: systematic Reed-Solomon (Vandermonde and
// Cauchy), the XOR-only Cauchy bit-matrix codec (CRS), and Azure-style
// Local Repairable Codes (LRC).  Encodes the same data with each, breaks
// things, and repairs them — printing what each code had to read.
//
// Build & run:  ./build/examples/erasure_codecs
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "erasure/crs.h"
#include "erasure/lrc.h"
#include "erasure/rs.h"

namespace {

using namespace ear;
using Clock = std::chrono::steady_clock;

std::vector<std::vector<uint8_t>> random_blocks(int count, size_t size) {
  Rng rng(2026);
  std::vector<std::vector<uint8_t>> out(static_cast<size_t>(count));
  for (auto& b : out) {
    b.resize(size);
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.uniform(256));
  }
  return out;
}

double mbps(size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

}  // namespace

int main() {
  constexpr int k = 10, n = 14;
  constexpr size_t kBlock = 1 << 20;
  const auto data = random_blocks(k, kBlock);
  std::vector<erasure::BlockView> data_views(data.begin(), data.end());

  std::printf("encoding %d x 1 MiB data blocks into (%d,%d) stripes\n\n", k,
              n, k);
  int failures = 0;

  // ---- Reed-Solomon, both constructions ------------------------------------
  for (const auto construction : {erasure::Construction::kVandermonde,
                                  erasure::Construction::kCauchy}) {
    const erasure::RSCode rs(n, k, construction);
    std::vector<std::vector<uint8_t>> parity(n - k,
                                             std::vector<uint8_t>(kBlock));
    std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
    const auto t0 = Clock::now();
    rs.encode(data_views, pv);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    std::printf("RS %-12s encode: %7.1f MB/s\n",
                construction == erasure::Construction::kCauchy
                    ? "(Cauchy)"
                    : "(Vandermonde)",
                mbps(kBlock * k, s));

    // Lose 4 arbitrary blocks, rebuild all data from the rest.
    std::vector<std::vector<uint8_t>> all = data;
    all.insert(all.end(), parity.begin(), parity.end());
    std::vector<int> ids{1, 2, 4, 5, 6, 8, 9, 10, 12, 13};  // k survivors
    std::vector<erasure::BlockView> available;
    for (const int id : ids) available.emplace_back(all[(size_t)id]);
    std::vector<std::vector<uint8_t>> out(k, std::vector<uint8_t>(kBlock));
    std::vector<erasure::MutBlockView> ov(out.begin(), out.end());
    std::vector<int> wanted;
    for (int i = 0; i < k; ++i) wanted.push_back(i);
    const bool ok = rs.reconstruct(ids, available, wanted, ov);
    bool intact = ok;
    for (int i = 0; i < k && intact; ++i) {
      intact = out[(size_t)i] == data[(size_t)i];
    }
    std::printf("  lost blocks {0,3,7,11}: decode from any k -> %s\n",
                intact ? "all data intact" : "FAILED");
    if (!intact) ++failures;
  }

  // ---- CRS: XOR-only encode --------------------------------------------------
  {
    const erasure::CRSCode crs(n, k);
    std::vector<std::vector<uint8_t>> parity(n - k,
                                             std::vector<uint8_t>(kBlock));
    std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
    const auto t0 = Clock::now();
    crs.encode(data_views, pv);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    std::printf("CRS (bit-matrix) encode: %7.1f MB/s — pure XOR, %lld "
                "scheduled packet-XORs\n",
                mbps(kBlock * k, s),
                static_cast<long long>(crs.schedule_xor_count()));
  }

  // ---- LRC: cheap single-block repair ----------------------------------------
  {
    const erasure::LRCCode lrc(10, 2, 2);
    const auto lrc_data = random_blocks(lrc.k(), kBlock);
    std::vector<erasure::BlockView> dv(lrc_data.begin(), lrc_data.end());
    std::vector<std::vector<uint8_t>> parity(
        static_cast<size_t>(lrc.l() + lrc.g()),
        std::vector<uint8_t>(kBlock));
    std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
    lrc.encode(dv, pv);
    std::vector<std::vector<uint8_t>> all = lrc_data;
    all.insert(all.end(), parity.begin(), parity.end());

    const int lost = 3;
    const auto plan = lrc.repair_plan(lost);
    std::vector<erasure::BlockView> sources;
    for (const int id : plan) sources.emplace_back(all[(size_t)id]);
    std::vector<uint8_t> rebuilt(kBlock);
    const auto t0 = Clock::now();
    lrc.repair(lost, sources, rebuilt);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const bool intact = rebuilt == lrc_data[lost];
    std::printf("LRC(10,2,2) local repair of block %d: read %zu blocks "
                "(RS needs %d), %7.1f MB/s, %s\n",
                lost, plan.size(), lrc.k(), mbps(kBlock, s),
                intact ? "content intact" : "FAILED");
    if (!intact) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
