// Microbenchmarks of the runtime-dispatched GF(2^8) kernel layer: MB/s per
// kernel per length for mul_add / mul_assign / xor_add, the multi-source
// sweep and the matrix apply (mul_rows at 4 x 10, the RS(14,10) parity
// shape, and 1 x 10, the single-block decode shape), across
// L1/L2/LLC/DRAM-resident buffer sizes — the numbers behind the
// ThrottleConfig::pipeline_chunk (Transport::preferred_chunk) tuning.
//
// Speaks the scenario-bench CLI via the bench_micro_erasure custom-main
// pattern (--smoke, --csv-out <path>), plus a CI gate:
//   --check-speedup   times 64 KiB mul_add per kernel without
//                     google-benchmark and exits non-zero unless the best
//                     non-scalar kernel is >= 2x scalar (the full-bench
//                     target is >= 5x on AVX2 hardware; 2x is the floor so
//                     throttled CI runners don't flake).  When the gfni
//                     kernel is available it also times RS(14,10) mul_rows
//                     at 256 KiB and fails unless gfni's fused sweep is
//                     >= 2x avx2's row loop.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gf256/gf256.h"
#include "gf256/kernel.h"

namespace {

using namespace ear;

std::vector<uint8_t> random_bytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

constexpr size_t kLens[] = {4096, 65536, 262144, 1 << 20};

// Buffers and a dense coefficient matrix (every entry nonzero, as in an RS
// Cauchy parity block) for one rows x nsrc mul_rows call.
struct MulRowsCase {
  MulRowsCase(size_t rows, size_t nsrc, size_t len) : len(len) {
    for (size_t j = 0; j < nsrc; ++j) {
      srcs.push_back(random_bytes(len, 30 + j));
      src_ptrs.push_back(srcs.back().data());
    }
    dsts.assign(rows, std::vector<uint8_t>(len));
    for (auto& d : dsts) dst_ptrs.push_back(d.data());
    for (size_t i = 0; i < rows * nsrc; ++i) {
      coeffs.push_back(static_cast<uint8_t>(2 + (7 * i + 3) % 254));
    }
  }

  void run(const gf::GfKernel& k) {
    k.mul_rows(dst_ptrs.data(), dst_ptrs.size(), src_ptrs.data(),
               coeffs.data(), src_ptrs.size(), len);
  }

  size_t len;
  std::vector<std::vector<uint8_t>> srcs, dsts;
  std::vector<const uint8_t*> src_ptrs;
  std::vector<uint8_t*> dst_ptrs;
  std::vector<uint8_t> coeffs;
};

void register_kernel_benchmarks() {
  for (const gf::GfKernel* k : gf::compiled_kernels()) {
    const std::string name = k->name;
    for (const size_t len : kLens) {
      const std::string suffix = name + "/" + std::to_string(len);
      benchmark::RegisterBenchmark(
          ("BM_KernelMulAdd/" + suffix).c_str(),
          [k, len](benchmark::State& state) {
            const auto src = random_bytes(len, 1);
            auto dst = random_bytes(len, 2);
            for (auto _ : state) {
              k->mul_add(0x53, src.data(), dst.data(), len);
              benchmark::DoNotOptimize(dst.data());
            }
            state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                    static_cast<int64_t>(len));
          });
      benchmark::RegisterBenchmark(
          ("BM_KernelMulAssign/" + suffix).c_str(),
          [k, len](benchmark::State& state) {
            const auto src = random_bytes(len, 3);
            auto dst = random_bytes(len, 4);
            for (auto _ : state) {
              k->mul_assign(0x8e, src.data(), dst.data(), len);
              benchmark::DoNotOptimize(dst.data());
            }
            state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                    static_cast<int64_t>(len));
          });
      benchmark::RegisterBenchmark(
          ("BM_KernelXorAdd/" + suffix).c_str(),
          [k, len](benchmark::State& state) {
            const auto src = random_bytes(len, 5);
            auto dst = random_bytes(len, 6);
            for (auto _ : state) {
              k->xor_add(src.data(), dst.data(), len);
              benchmark::DoNotOptimize(dst.data());
            }
            state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                    static_cast<int64_t>(len));
          });
      // The whole-row sweep the encoders actually run: 10 sources (an RS
      // k=10 parity row) accumulated into one destination window.
      benchmark::RegisterBenchmark(
          ("BM_KernelMulAddMulti10/" + suffix).c_str(),
          [k, len](benchmark::State& state) {
            constexpr size_t kSrc = 10;
            std::vector<std::vector<uint8_t>> pool;
            std::vector<const uint8_t*> srcs;
            std::vector<uint8_t> coeffs;
            for (size_t j = 0; j < kSrc; ++j) {
              pool.push_back(random_bytes(len, 10 + j));
              srcs.push_back(pool.back().data());
              coeffs.push_back(static_cast<uint8_t>(7 * j + 3));
            }
            std::vector<uint8_t> dst(len);
            for (auto _ : state) {
              k->mul_add_multi(dst.data(), srcs.data(), coeffs.data(), kSrc,
                               len, /*accumulate=*/false);
              benchmark::DoNotOptimize(dst.data());
            }
            state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                    static_cast<int64_t>(len * kSrc));
          });
      // The matrix apply: 4 x 10 is the RS(14,10) parity encode, 1 x 10 a
      // single-block decode.  Bytes are data in (len per source).
      for (const size_t rows : {size_t{4}, size_t{1}}) {
        benchmark::RegisterBenchmark(
            ("BM_KernelMulRows" + std::to_string(rows) + "x10/" + suffix)
                .c_str(),
            [k, len, rows](benchmark::State& state) {
              MulRowsCase c(rows, 10, len);
              for (auto _ : state) {
                c.run(*k);
                benchmark::DoNotOptimize(c.dst_ptrs[0]);
              }
              state.SetBytesProcessed(
                  static_cast<int64_t>(state.iterations()) *
                  static_cast<int64_t>(len * 10));
            });
      }
    }
  }
}

// ---- --check-speedup: the CI gate, no google-benchmark involved ----------

// MB/s of `op`, which processes `bytes` per call: batches double until one
// takes >= 25 ms, then the best of eight batches wins (rejects scheduler
// noise on shared runners).
template <typename Op>
double measure_mb_s(size_t bytes, Op op) {
  using Clock = std::chrono::steady_clock;
  int iters = 16;
  double best = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) op();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (secs < 0.025) {
      iters *= 2;
      --rep;  // calibration pass, not a sample
      continue;
    }
    const double mb_s =
        static_cast<double>(bytes) * iters / secs / (1000.0 * 1000.0);
    if (mb_s > best) best = mb_s;
  }
  return best;
}

// MB/s of 64 KiB mul_add on `k`.
double measure_mul_add_mb_s(const gf::GfKernel& k) {
  constexpr size_t kLen = 64 * 1024;
  const auto src = random_bytes(kLen, 21);
  auto dst = random_bytes(kLen, 22);
  return measure_mb_s(kLen, [&] {
    k.mul_add(0x53, src.data(), dst.data(), kLen);
  });
}

// Data-in MB/s of RS(14,10) parity (4 x 10 mul_rows) at 256 KiB on `k`.
double measure_mul_rows_mb_s(const gf::GfKernel& k) {
  constexpr size_t kLen = 256 * 1024;
  MulRowsCase c(4, 10, kLen);
  return measure_mb_s(kLen * 10, [&] { c.run(k); });
}

const gf::GfKernel* find_kernel(const std::vector<const gf::GfKernel*>& ks,
                                const char* name) {
  for (const gf::GfKernel* k : ks) {
    if (std::strcmp(k->name, name) == 0) return k;
  }
  return nullptr;
}

// The fused-sweep gate: gfni mul_rows must be >= 2x the avx2 row loop.
int run_check_fused_speedup(const std::vector<const gf::GfKernel*>& kernels) {
  const gf::GfKernel* gfni = find_kernel(kernels, "gfni");
  const gf::GfKernel* avx2 = find_kernel(kernels, "avx2");
  if (gfni == nullptr || avx2 == nullptr) {
    std::printf("gfni kernel not available on this build/CPU; fused "
                "mul_rows gate skipped\n");
    return 0;
  }
  const double avx2_mb_s = measure_mul_rows_mb_s(*avx2);
  const double gfni_mb_s = measure_mul_rows_mb_s(*gfni);
  const double ratio = gfni_mb_s / avx2_mb_s;
  std::printf("RS(14,10) mul_rows 256KiB: avx2 row loop %.1f MB/s, gfni "
              "fused %.1f MB/s (%.2fx)\n",
              avx2_mb_s, gfni_mb_s, ratio);
  if (ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: gfni fused mul_rows below 2x the avx2 row loop\n");
    return 1;
  }
  std::printf("OK: gfni fused mul_rows >= 2x avx2 row loop\n");
  return 0;
}

int run_check_speedup() {
  const auto kernels = gf::compiled_kernels();
  const gf::GfKernel& scalar = *kernels.back();
  const double scalar_mb_s = measure_mul_add_mb_s(scalar);
  std::printf("kernel      64KiB mul_add MB/s   vs scalar\n");
  std::printf("%-10s  %18.1f   %8.2fx\n", scalar.name, scalar_mb_s, 1.0);
  if (kernels.size() == 1) {
    std::printf("only the scalar kernel is compiled on this platform; "
                "speedup gate passes vacuously\n");
    return 0;
  }
  bool ok = false;
  for (const gf::GfKernel* k : kernels) {
    if (k == &scalar) continue;
    const double mb_s = measure_mul_add_mb_s(*k);
    const double ratio = mb_s / scalar_mb_s;
    std::printf("%-10s  %18.1f   %8.2fx\n", k->name, mb_s, ratio);
    if (ratio >= 2.0) ok = true;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: no SIMD kernel reached 2x scalar on 64 KiB mul_add\n");
    return 1;
  }
  std::printf("OK: best SIMD kernel >= 2x scalar\n");
  return run_check_fused_speedup(kernels);
}

}  // namespace

// Custom main (bench_micro_erasure pattern): --smoke and --csv-out are
// rewritten as native google-benchmark flags; --check-speedup short-circuits
// into the manual gate above.
int main(int argc, char** argv) {
  std::vector<std::string> translated;
  translated.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-speedup") == 0) {
      return run_check_speedup();
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      translated.emplace_back("--benchmark_min_time=0.01");
    } else if (std::strcmp(argv[i], "--csv-out") == 0 && i + 1 < argc) {
      translated.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      translated.emplace_back("--benchmark_out_format=csv");
    } else {
      translated.emplace_back(argv[i]);
    }
  }
  std::vector<char*> args;
  for (auto& s : translated) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  register_kernel_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
