// SSSE3 GF(2^8) kernels: PSHUFB over per-coefficient 16-entry nibble tables
// (the ISA-L idiom).  Each 16-byte vector v splits into low/high nibbles;
// two shuffles and one XOR give c * v.  Loops are 2-way unrolled (32 bytes
// per iteration); ragged heads/tails fall back to the scalar reference so
// every length is bit-compatible with it.
//
// This TU is compiled with -mssse3; nothing here may run before the
// dispatcher has checked __builtin_cpu_supports("ssse3").
#include <tmmintrin.h>

#include "gf256/kernel.h"

#include <cstring>

namespace ear::gf {

namespace {

using detail::NibbleTables;

inline __m128i load_table(const uint8_t* t) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(t));
}

// c * v for 16 bytes at once.
inline __m128i mul_vec(__m128i v, __m128i lo, __m128i hi, __m128i mask) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
  return _mm_xor_si128(l, h);
}

void ssse3_xor_add(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i a0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(a0, b0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16),
                     _mm_xor_si128(a1, b1));
  }
  detail::scalar_xor_add(src + i, dst + i, n - i);
}

void ssse3_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    ssse3_xor_add(src, dst, n);
    return;
  }
  const NibbleTables t = detail::make_nibble_tables(c);
  const __m128i lo = load_table(t.lo);
  const __m128i hi = load_table(t.hi);
  const __m128i mask = _mm_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i a0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(b0, mul_vec(a0, lo, hi, mask)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16),
                     _mm_xor_si128(b1, mul_vec(a1, lo, hi, mask)));
  }
  if (i + 16 <= n) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(b, mul_vec(a, lo, hi, mask)));
    i += 16;
  }
  detail::scalar_mul_add(c, src + i, dst + i, n - i);
}

void ssse3_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
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
  const __m128i lo = load_table(t.lo);
  const __m128i hi = load_table(t.hi);
  const __m128i mask = _mm_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i a0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul_vec(a0, lo, hi, mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16),
                     mul_vec(a1, lo, hi, mask));
  }
  if (i + 16 <= n) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul_vec(a, lo, hi, mask));
    i += 16;
  }
  detail::scalar_mul_assign(c, src + i, dst + i, n - i);
}

// Multi-source sweep: sources are processed in register-friendly batches of
// 8; within a batch the two accumulator vectors stay live across all
// sources, so dst is loaded/stored once per batch instead of once per
// source.
void ssse3_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                         const uint8_t* coeffs, size_t nsrc, size_t n,
                         bool accumulate) {
  if (n == 0) return;
  constexpr size_t kBatch = 8;
  const __m128i mask = _mm_set1_epi8(0x0f);
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
      __m128i acc0, acc1;
      if (seeded) {
        acc0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
        acc1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
      } else {
        acc0 = _mm_setzero_si128();
        acc1 = _mm_setzero_si128();
      }
      for (size_t s = 0; s < b; ++s) {
        const __m128i lo = load_table(bt[s].lo);
        const __m128i hi = load_table(bt[s].hi);
        const __m128i a0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bsrc[s] + i));
        const __m128i a1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(bsrc[s] + i + 16));
        acc0 = _mm_xor_si128(acc0, mul_vec(a0, lo, hi, mask));
        acc1 = _mm_xor_si128(acc1, mul_vec(a1, lo, hi, mask));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), acc0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), acc1);
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

extern const GfKernel kSsse3Kernel;
const GfKernel kSsse3Kernel = {
    "ssse3",
    ssse3_mul_add,
    ssse3_mul_assign,
    ssse3_xor_add,
    ssse3_mul_add_multi,
    detail::mul_rows_by_row<ssse3_mul_add_multi>,
};

}  // namespace ear::gf
