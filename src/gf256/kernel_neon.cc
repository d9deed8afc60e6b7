// NEON GF(2^8) kernels: TBL (vqtbl1q_u8) over the same 16-entry nibble
// tables as the x86 shuffle kernels — the vtbl twin of PSHUFB.  2-way
// unrolled (32 bytes per iteration); ragged heads/tails fall back to the
// scalar reference so every length is bit-compatible with it.
//
// NEON is architecturally guaranteed on aarch64, so this kernel needs no
// runtime probe; the build only compiles this TU on ARM targets.
#include <arm_neon.h>

#include "gf256/kernel.h"

#include <cstring>

namespace ear::gf {

namespace {

using detail::NibbleTables;

// c * v for 16 bytes at once.
inline uint8x16_t mul_vec(uint8x16_t v, uint8x16_t lo, uint8x16_t hi) {
  const uint8x16_t l = vqtbl1q_u8(lo, vandq_u8(v, vdupq_n_u8(0x0f)));
  const uint8x16_t h = vqtbl1q_u8(hi, vshrq_n_u8(v, 4));
  return veorq_u8(l, h);
}

void neon_xor_add(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(src + i), vld1q_u8(dst + i)));
    vst1q_u8(dst + i + 16,
             veorq_u8(vld1q_u8(src + i + 16), vld1q_u8(dst + i + 16)));
  }
  detail::scalar_xor_add(src + i, dst + i, n - i);
}

void neon_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    neon_xor_add(src, dst, n);
    return;
  }
  const NibbleTables t = detail::make_nibble_tables(c);
  const uint8x16_t lo = vld1q_u8(t.lo);
  const uint8x16_t hi = vld1q_u8(t.hi);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    vst1q_u8(dst + i,
             veorq_u8(vld1q_u8(dst + i), mul_vec(vld1q_u8(src + i), lo, hi)));
    vst1q_u8(dst + i + 16, veorq_u8(vld1q_u8(dst + i + 16),
                                    mul_vec(vld1q_u8(src + i + 16), lo, hi)));
  }
  if (i + 16 <= n) {
    vst1q_u8(dst + i,
             veorq_u8(vld1q_u8(dst + i), mul_vec(vld1q_u8(src + i), lo, hi)));
    i += 16;
  }
  detail::scalar_mul_add(c, src + i, dst + i, n - i);
}

void neon_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memmove(dst, src, n);
    return;
  }
  const NibbleTables t = detail::make_nibble_tables(c);
  const uint8x16_t lo = vld1q_u8(t.lo);
  const uint8x16_t hi = vld1q_u8(t.hi);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    vst1q_u8(dst + i, mul_vec(vld1q_u8(src + i), lo, hi));
    vst1q_u8(dst + i + 16, mul_vec(vld1q_u8(src + i + 16), lo, hi));
  }
  if (i + 16 <= n) {
    vst1q_u8(dst + i, mul_vec(vld1q_u8(src + i), lo, hi));
    i += 16;
  }
  detail::scalar_mul_assign(c, src + i, dst + i, n - i);
}

// Multi-source sweep: batches of 8 sources share the two accumulator
// vectors, so dst is loaded/stored once per batch instead of once per
// source.
void neon_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate) {
  if (n == 0) return;
  constexpr size_t kBatch = 8;
  bool seeded = accumulate;  // does dst already hold a partial sum?
  size_t j = 0;
  while (j < nsrc) {
    const uint8_t* bsrc[kBatch];
    NibbleTables bt[kBatch];
    size_t b = 0;
    for (; j < nsrc && b < kBatch; ++j) {
      if (coeffs[j] == 0) continue;  // sparse schedules skip dead terms
      bsrc[b] = srcs[j];
      bt[b] = detail::make_nibble_tables(coeffs[j]);
      ++b;
    }
    if (b == 0) break;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      uint8x16_t acc0, acc1;
      if (seeded) {
        acc0 = vld1q_u8(dst + i);
        acc1 = vld1q_u8(dst + i + 16);
      } else {
        acc0 = vdupq_n_u8(0);
        acc1 = vdupq_n_u8(0);
      }
      for (size_t s = 0; s < b; ++s) {
        const uint8x16_t lo = vld1q_u8(bt[s].lo);
        const uint8x16_t hi = vld1q_u8(bt[s].hi);
        acc0 = veorq_u8(acc0, mul_vec(vld1q_u8(bsrc[s] + i), lo, hi));
        acc1 = veorq_u8(acc1, mul_vec(vld1q_u8(bsrc[s] + i + 16), lo, hi));
      }
      vst1q_u8(dst + i, acc0);
      vst1q_u8(dst + i + 16, acc1);
    }
    for (; i < n; ++i) {
      uint8_t v = seeded ? dst[i] : uint8_t{0};
      for (size_t s = 0; s < b; ++s) {
        const uint8_t a = bsrc[s][i];
        v ^= bt[s].lo[a & 0x0f] ^ bt[s].hi[a >> 4];
      }
      dst[i] = v;
    }
    seeded = true;
  }
  if (!seeded) std::memset(dst, 0, n);  // no live terms, no prior contents
}

}  // namespace

extern const GfKernel kNeonKernel;
const GfKernel kNeonKernel = {
    "neon",
    neon_mul_add,
    neon_mul_assign,
    neon_xor_add,
    neon_mul_add_multi,
    detail::mul_rows_by_row<neon_mul_add_multi>,
};

}  // namespace ear::gf
