// AVX2 GF(2^8) kernels: VPSHUFB over the same 16-entry nibble tables as the
// SSSE3 kernel, broadcast to both 128-bit lanes so one shuffle multiplies 32
// bytes.  2-way unrolled (64 bytes per iteration); ragged heads/tails fall
// back to the scalar reference so every length is bit-compatible with it.
//
// This TU is compiled with -mavx2; nothing here may run before the
// dispatcher has checked __builtin_cpu_supports("avx2").
#include <immintrin.h>

#include "gf256/kernel.h"

#include <cstring>

namespace ear::gf {

namespace {

using detail::NibbleTables;

inline __m256i broadcast_table(const uint8_t* t) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t)));
}

// c * v for 32 bytes at once.
inline __m256i mul_vec(__m256i v, __m256i lo, __m256i hi, __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
  const __m256i h =
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_xor_si256(l, h);
}

void avx2_xor_add(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(a1, b1));
  }
  detail::scalar_xor_add(src + i, dst + i, n - i);
}

void avx2_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    avx2_xor_add(src, dst, n);
    return;
  }
  const NibbleTables t = detail::make_nibble_tables(c);
  const __m256i lo = broadcast_table(t.lo);
  const __m256i hi = broadcast_table(t.hi);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(b0, mul_vec(a0, lo, hi, mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(b1, mul_vec(a1, lo, hi, mask)));
  }
  if (i + 32 <= n) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(b, mul_vec(a, lo, hi, mask)));
    i += 32;
  }
  detail::scalar_mul_add(c, src + i, dst + i, n - i);
}

void avx2_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
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
  const __m256i lo = broadcast_table(t.lo);
  const __m256i hi = broadcast_table(t.hi);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_vec(a0, lo, hi, mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        mul_vec(a1, lo, hi, mask));
  }
  if (i + 32 <= n) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_vec(a, lo, hi, mask));
    i += 32;
  }
  detail::scalar_mul_assign(c, src + i, dst + i, n - i);
}

// Multi-source sweep: batches of 8 sources share the two accumulator
// vectors, so dst is loaded/stored once per batch instead of once per
// source (the per-output term lists of the ecdag executor and the codec
// row applications are the callers).
void avx2_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate) {
  if (n == 0) return;
  constexpr size_t kBatch = 8;
  const __m256i mask = _mm256_set1_epi8(0x0f);
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
    for (; i + 64 <= n; i += 64) {
      __m256i acc0, acc1;
      if (seeded) {
        acc0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        acc1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
      } else {
        acc0 = _mm256_setzero_si256();
        acc1 = _mm256_setzero_si256();
      }
      for (size_t s = 0; s < b; ++s) {
        const __m256i lo = broadcast_table(bt[s].lo);
        const __m256i hi = broadcast_table(bt[s].hi);
        const __m256i a0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bsrc[s] + i));
        const __m256i a1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bsrc[s] + i + 32));
        acc0 = _mm256_xor_si256(acc0, mul_vec(a0, lo, hi, mask));
        acc1 = _mm256_xor_si256(acc1, mul_vec(a1, lo, hi, mask));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), acc1);
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

extern const GfKernel kAvx2Kernel;
const GfKernel kAvx2Kernel = {
    "avx2",
    avx2_mul_add,
    avx2_mul_assign,
    avx2_xor_add,
    avx2_mul_add_multi,
    detail::mul_rows_by_row<avx2_mul_add_multi>,
};

}  // namespace ear::gf
