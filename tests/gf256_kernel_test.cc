// Kernel-equivalence layer for the runtime-dispatched GF(2^8) kernels:
// every compiled kernel (scalar, ssse3, avx2, gfni, neon — whatever this
// build and CPU provide) must be byte-identical to the scalar reference for
// every coefficient, the pinned length set, and every src/dst
// misalignment, plus race-free dispatch init and loud failure on unknown
// EAR_GF_KERNEL values.  Each TEST runs in its own process (ctest runs
// gtest cases individually), so the dispatch race test really is a first
// touch under TSan.
#include "gf256/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gf256/gf256.h"

namespace ear::gf {
namespace {

// Declared first so it is the first touch of kernel() when this binary's
// cases run in declaration order: N threads race the dispatch init and must
// all observe the same kernel (the magic static makes this race-free; TSan
// verifies).
TEST(Gf256Kernel, DispatchFirstTouchIsRaceFree) {
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<const GfKernel*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      seen[static_cast<size_t>(t)] = &kernel();
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  ASSERT_NE(seen[0], nullptr);
  EXPECT_STRNE(seen[0]->name, "");
}

TEST(Gf256Kernel, UnknownKernelFailsLoudlyWithSupportedList) {
  try {
    resolve_kernel("pentium");
    FAIL() << "resolve_kernel must reject unknown kernels";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("EAR_GF_KERNEL"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'pentium'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("supported:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("auto"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
  }
}

TEST(Gf256Kernel, ResolveAutoAndNamesAndOverride) {
  const auto available = compiled_kernels();
  ASSERT_FALSE(available.empty());
  EXPECT_STREQ(available.back()->name, "scalar") << "scalar always compiled";
  EXPECT_EQ(&resolve_kernel("auto"), available.front());
  EXPECT_EQ(&resolve_kernel(""), available.front());
  for (const GfKernel* k : available) {
    EXPECT_EQ(&resolve_kernel(k->name), k);
  }
  // The override redirects the span-level API immediately and restores on
  // scope exit.
  {
    KernelOverride force_scalar("scalar");
    EXPECT_STREQ(kernel().name, "scalar");
    std::vector<uint8_t> src{0x12, 0x34}, dst{0x56, 0x78};
    mul_add(0x53, src, dst);
    EXPECT_EQ(dst[0], 0x56 ^ mul(0x53, 0x12));
  }
  // Back to the environment-driven choice.
  const char* env = std::getenv("EAR_GF_KERNEL");
  if (env != nullptr && std::string(env) != "auto") {
    EXPECT_STREQ(kernel().name, env);
  } else {
    EXPECT_EQ(&kernel(), available.front());
  }
}

// Exhaustive 256 x 256 products: every kernel's one-byte mul path must agree
// with the scalar log/exp field.
TEST(Gf256Kernel, ExhaustiveMulAgreesWithLogExpReference) {
  for (const GfKernel* k : compiled_kernels()) {
    SCOPED_TRACE(k->name);
    for (int c = 0; c < 256; ++c) {
      for (int b = 0; b < 256; ++b) {
        const uint8_t src = static_cast<uint8_t>(b);
        uint8_t out = 0xA5;
        k->mul_assign(static_cast<uint8_t>(c), &src, &out, 1);
        ASSERT_EQ(out, mul(static_cast<uint8_t>(c), static_cast<uint8_t>(b)))
            << "c=" << c << " b=" << b;
      }
    }
  }
}

// The ISSUE-pinned sweep grid.
constexpr size_t kLens[] = {0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 4096, 4097};
constexpr size_t kMaxLen = 4097;
constexpr size_t kPad = 32;  // sentinel slack before/after the window

// Offset pairs for one length: the full 16 x 16 cross product for short
// lengths, a 32-pair slice (diagonal-ish plus one fixed-src column) for the
// two page-sized lengths so the sweep stays seconds, not minutes, under
// sanitizers.
std::vector<std::pair<size_t, size_t>> offset_pairs(size_t len) {
  std::vector<std::pair<size_t, size_t>> out;
  if (len <= 64) {
    for (size_t s = 0; s < 16; ++s) {
      for (size_t d = 0; d < 16; ++d) out.emplace_back(s, d);
    }
  } else {
    for (size_t s = 0; s < 16; ++s) out.emplace_back(s, (s * 7 + 3) % 16);
    for (size_t d = 0; d < 16; ++d) out.emplace_back(5, d);
  }
  return out;
}

// Runs `op` once through the scalar reference and once through `k` on
// identically seeded buffers, then requires the *entire* destination
// buffers (sentinel padding included) to match — any out-of-window write by
// a SIMD kernel shows up as a sentinel mismatch.
template <typename Op>
void expect_op_matches_scalar(const GfKernel& scalar, const GfKernel& k, Op op,
                              uint8_t c, size_t len, size_t soff, size_t doff,
                              const std::vector<uint8_t>& src_pool,
                              const std::vector<uint8_t>& dst_pool) {
  const size_t dst_bytes = doff + len + kPad;
  std::vector<uint8_t> a(dst_pool.begin(),
                         dst_pool.begin() + static_cast<ptrdiff_t>(dst_bytes));
  std::vector<uint8_t> b = a;
  op(scalar, c, src_pool.data() + soff, a.data() + doff, len);
  op(k, c, src_pool.data() + soff, b.data() + doff, len);
  ASSERT_EQ(a, b) << "kernel=" << k.name << " c=" << int(c) << " len=" << len
                  << " soff=" << soff << " doff=" << doff;
}

template <typename Op>
void sweep_vs_scalar(Op op) {
  Rng rng(20260808);
  std::vector<uint8_t> src_pool(kMaxLen + 16), dst_pool(kMaxLen + 16 + kPad);
  for (auto& v : src_pool) v = static_cast<uint8_t>(rng.uniform(256));
  for (auto& v : dst_pool) v = static_cast<uint8_t>(rng.uniform(256));

  const auto kernels = compiled_kernels();
  const GfKernel& scalar = *kernels.back();
  for (const GfKernel* k : kernels) {
    SCOPED_TRACE(k->name);
    for (int c = 0; c < 256; ++c) {
      for (const size_t len : kLens) {
        for (const auto& [soff, doff] : offset_pairs(len)) {
          expect_op_matches_scalar(scalar, *k, op, static_cast<uint8_t>(c),
                                   len, soff, doff, src_pool, dst_pool);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(Gf256Kernel, MulAddByteIdenticalToScalarEverywhere) {
  sweep_vs_scalar([](const GfKernel& k, uint8_t c, const uint8_t* src,
                     uint8_t* dst, size_t n) { k.mul_add(c, src, dst, n); });
}

TEST(Gf256Kernel, MulAssignByteIdenticalToScalarEverywhere) {
  sweep_vs_scalar([](const GfKernel& k, uint8_t c, const uint8_t* src,
                     uint8_t* dst,
                     size_t n) { k.mul_assign(c, src, dst, n); });
}

TEST(Gf256Kernel, XorAddByteIdenticalToScalarEverywhere) {
  // xor_add has no coefficient; run the same grid once (c is ignored).
  Rng rng(77);
  std::vector<uint8_t> src_pool(kMaxLen + 16), dst_pool(kMaxLen + 16 + kPad);
  for (auto& v : src_pool) v = static_cast<uint8_t>(rng.uniform(256));
  for (auto& v : dst_pool) v = static_cast<uint8_t>(rng.uniform(256));
  const auto kernels = compiled_kernels();
  const GfKernel& scalar = *kernels.back();
  for (const GfKernel* k : kernels) {
    SCOPED_TRACE(k->name);
    for (const size_t len : kLens) {
      for (const auto& [soff, doff] : offset_pairs(len)) {
        const size_t dst_bytes = doff + len + kPad;
        std::vector<uint8_t> a(
            dst_pool.begin(),
            dst_pool.begin() + static_cast<ptrdiff_t>(dst_bytes));
        std::vector<uint8_t> b = a;
        scalar.xor_add(src_pool.data() + soff, a.data() + doff, len);
        k->xor_add(src_pool.data() + soff, b.data() + doff, len);
        ASSERT_EQ(a, b) << "len=" << len << " soff=" << soff
                        << " doff=" << doff;
      }
    }
  }
}

// mul_add_multi must equal the term-by-term scalar expansion for random
// source sets: mixed zero/one/general coefficients, ragged lengths,
// misaligned windows, both accumulate modes, and source counts that cross
// the kernels' internal batch size.
TEST(Gf256Kernel, MulAddMultiMatchesTermByTermScalar) {
  Rng rng(424242);
  constexpr size_t kSpan = 5000;
  std::vector<std::vector<uint8_t>> pools(20, std::vector<uint8_t>(kSpan));
  for (auto& pool : pools) {
    for (auto& v : pool) v = static_cast<uint8_t>(rng.uniform(256));
  }
  for (const GfKernel* k : compiled_kernels()) {
    SCOPED_TRACE(k->name);
    for (int trial = 0; trial < 400; ++trial) {
      const size_t nsrc = static_cast<size_t>(rng.uniform(20));  // 0..19
      const size_t len = static_cast<size_t>(rng.uniform(4097));
      const size_t doff = static_cast<size_t>(rng.uniform(16));
      const bool accumulate = rng.uniform(2) == 1;
      std::vector<const uint8_t*> srcs(nsrc);
      std::vector<uint8_t> coeffs(nsrc);
      for (size_t j = 0; j < nsrc; ++j) {
        const size_t soff = static_cast<size_t>(rng.uniform(16));
        srcs[j] = pools[j].data() + soff;
        // Bias toward the special coefficients 0 and 1.
        const int draw = rng.uniform(10);
        coeffs[j] = draw < 2   ? uint8_t{0}
                    : draw < 4 ? uint8_t{1}
                               : static_cast<uint8_t>(rng.uniform(256));
      }
      std::vector<uint8_t> base(doff + len + kPad);
      for (auto& v : base) v = static_cast<uint8_t>(rng.uniform(256));

      // Reference: scalar term-by-term expansion of the documented
      // semantics.
      std::vector<uint8_t> want = base;
      {
        uint8_t* dst = want.data() + doff;
        if (!accumulate) std::memset(dst, 0, len);
        for (size_t j = 0; j < nsrc; ++j) {
          detail::scalar_mul_add(coeffs[j], srcs[j], dst, len);
        }
      }
      std::vector<uint8_t> got = base;
      k->mul_add_multi(got.data() + doff, srcs.data(), coeffs.data(), nsrc,
                       len, accumulate);
      ASSERT_EQ(got, want) << "trial=" << trial << " nsrc=" << nsrc
                           << " len=" << len << " doff=" << doff
                           << " accumulate=" << accumulate;
    }
  }
}

// mul_rows must equal the scalar row loop (one mul_add_multi with
// accumulate=false per row) for 1..9 rows (so a 4-row fused group leaves
// every remainder), 1..32 sources (crossing the per-sweep source batch),
// whole zero columns and all-zero rows, every kLens length and per-buffer
// src/dst misalignments.  Each destination row is its own buffer with
// sentinel padding on both sides, so a write outside any row's window is a
// mismatch too.
TEST(Gf256Kernel, MulRowsByteIdenticalToScalarRowLoop) {
  Rng rng(1312);
  constexpr size_t kMaxRows = 9;
  constexpr size_t kMaxSrcs = 32;
  std::vector<std::vector<uint8_t>> pools(kMaxSrcs,
                                          std::vector<uint8_t>(kMaxLen + 16));
  for (auto& pool : pools) {
    for (auto& v : pool) v = static_cast<uint8_t>(rng.uniform(256));
  }
  const auto kernels = compiled_kernels();
  const GfKernel& scalar = *kernels.back();
  size_t lens_cursor = 0;
  for (size_t ndst = 1; ndst <= kMaxRows; ++ndst) {
    for (size_t nsrc = 1; nsrc <= kMaxSrcs; ++nsrc) {
      // Coefficients: some whole columns zero, some whole rows zero, the
      // rest biased toward the special values 0 and 1.
      std::vector<uint8_t> coeffs(ndst * nsrc);
      std::vector<bool> dead_col(nsrc), dead_row(ndst);
      for (size_t j = 0; j < nsrc; ++j) dead_col[j] = rng.uniform(6) == 0;
      for (size_t r = 0; r < ndst; ++r) dead_row[r] = rng.uniform(5) == 0;
      for (size_t r = 0; r < ndst; ++r) {
        for (size_t j = 0; j < nsrc; ++j) {
          const int draw = rng.uniform(10);
          coeffs[r * nsrc + j] =
              dead_row[r] || dead_col[j] || draw < 2 ? uint8_t{0}
              : draw < 4                             ? uint8_t{1}
                         : static_cast<uint8_t>(rng.uniform(256));
        }
      }
      std::vector<const uint8_t*> srcs(nsrc);
      for (size_t j = 0; j < nsrc; ++j) {
        srcs[j] = pools[j].data() + rng.uniform(16);
      }
      // Two lengths per shape walk the whole kLens grid many times over.
      for (int rep = 0; rep < 2; ++rep) {
        const size_t len = kLens[lens_cursor++ % std::size(kLens)];
        std::vector<size_t> doff(ndst);
        std::vector<std::vector<uint8_t>> want(ndst);
        for (size_t r = 0; r < ndst; ++r) {
          doff[r] = static_cast<size_t>(rng.uniform(16));
          want[r].resize(kPad + doff[r] + len + kPad);
          for (auto& v : want[r]) v = static_cast<uint8_t>(rng.uniform(256));
        }
        const auto base = want;
        for (size_t r = 0; r < ndst; ++r) {
          scalar.mul_add_multi(want[r].data() + kPad + doff[r], srcs.data(),
                               coeffs.data() + r * nsrc, nsrc, len,
                               /*accumulate=*/false);
        }
        for (const GfKernel* k : kernels) {
          auto got = base;
          std::vector<uint8_t*> dsts(ndst);
          for (size_t r = 0; r < ndst; ++r) {
            dsts[r] = got[r].data() + kPad + doff[r];
          }
          k->mul_rows(dsts.data(), ndst, srcs.data(), coeffs.data(), nsrc,
                      len);
          ASSERT_EQ(got, want) << "kernel=" << k->name << " ndst=" << ndst
                               << " nsrc=" << nsrc << " len=" << len;
        }
      }
    }
  }
}

// On a CPU with GFNI and AVX-512BW, `auto` must pick the fused gfni kernel.
TEST(Gf256Kernel, DispatchPrefersGfni) {
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("gfni") || !__builtin_cpu_supports("avx512bw")) {
    GTEST_SKIP() << "CPU lacks gfni/avx512bw";
  }
  EXPECT_STREQ(resolve_kernel("auto").name, "gfni");
  EXPECT_STREQ(compiled_kernels().front()->name, "gfni");
#else
  GTEST_SKIP() << "gfni is an x86 kernel";
#endif
}

// The span-level API must route every consumer through the active kernel:
// a scalar override and the dispatched default must produce identical
// bytes through gf::mul_add_multi.
TEST(Gf256Kernel, SpanApiMatchesAcrossOverride) {
  Rng rng(9);
  std::vector<uint8_t> s0(1000), s1(1000), base(1000);
  for (auto& v : s0) v = static_cast<uint8_t>(rng.uniform(256));
  for (auto& v : s1) v = static_cast<uint8_t>(rng.uniform(256));
  for (auto& v : base) v = static_cast<uint8_t>(rng.uniform(256));
  const std::vector<const uint8_t*> srcs{s0.data(), s1.data()};
  const std::vector<uint8_t> coeffs{0x53, 0x01};

  std::vector<uint8_t> a = base, b = base;
  mul_add_multi(srcs, coeffs, a, /*accumulate=*/true);
  {
    KernelOverride force_scalar("scalar");
    mul_add_multi(srcs, coeffs, b, /*accumulate=*/true);
  }
  EXPECT_EQ(a, b);

  // gf::mul_rows: a 2 x 2 matrix with an all-zero second row.
  const std::vector<uint8_t> matrix{0x53, 0x01, 0x00, 0x00};
  std::vector<uint8_t> r0 = base, r1 = base, s_r0 = base, s_r1 = base;
  const std::vector<uint8_t*> rows{r0.data(), r1.data()};
  mul_rows(rows, srcs, matrix, base.size());
  {
    KernelOverride force_scalar("scalar");
    const std::vector<uint8_t*> s_rows{s_r0.data(), s_r1.data()};
    mul_rows(s_rows, srcs, matrix, base.size());
  }
  EXPECT_EQ(r0, s_r0);
  EXPECT_EQ(r1, std::vector<uint8_t>(base.size(), 0));
  EXPECT_EQ(s_r1, r1);
}

}  // namespace
}  // namespace ear::gf
