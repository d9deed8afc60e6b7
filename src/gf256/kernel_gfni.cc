// GFNI GF(2^8) kernels (AVX-512BW + GFNI).  Multiplication by a constant c
// in the 0x11d field is GF(2)-linear in the bits of the other factor, so it
// is one 8x8 bit matrix; VGF2P8AFFINEQB applies such a matrix to all 64
// bytes of a zmm register in one instruction (the AVX2 shuffle kernel needs
// two shuffles, two ANDs, a shift and an XOR per 32 bytes).  The field's
// polynomial never enters the instruction — only the matrix, built from the
// scalar log/exp field — so the products are the scalar reference's by
// construction.  (GF2P8MULB is not usable: it hard-codes the AES polynomial
// 0x11b.)
//
// Every multiplying entry point runs `sweep`: up to four destination rows
// share each source vector load, and a ragged tail is one masked load/store
// step, so there is no scalar tail code.
//
// This TU is compiled with -mavx512f -mavx512bw -mgfni; nothing here may run
// before the dispatcher has checked __builtin_cpu_supports("gfni") and
// __builtin_cpu_supports("avx512bw").
#include <immintrin.h>

#include "gf256/kernel.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "gf256/gf256.h"

namespace ear::gf {

namespace {

// The bit matrix of x -> c * x in VGF2P8AFFINEQB's layout: output bit i of
// a byte is the parity of (matrix byte 7 - i AND input byte), so bit j of
// matrix byte 7 - i is bit i of c * x^j.
constexpr uint64_t affine_matrix(uint8_t c) {
  uint64_t m = 0;
  for (int j = 0; j < 8; ++j) {
    const uint8_t column = mul(c, static_cast<uint8_t>(1u << j));
    for (int i = 0; i < 8; ++i) {
      if ((column >> i) & 1u) m |= uint64_t{1} << (8 * (7 - i) + j);
    }
  }
  return m;
}

// One matrix per coefficient; c = 0 maps to the zero matrix, whose product
// is zero, so a dead (row, source) pair inside a fused group costs an
// instruction but never a branch.
constexpr std::array<uint64_t, 256> kAffine = [] {
  std::array<uint64_t, 256> t{};
  for (int c = 0; c < 256; ++c) t[c] = affine_matrix(static_cast<uint8_t>(c));
  return t;
}();

// Rows fused per sweep: 4 rows x 2 vectors of accumulators plus the source
// vectors stay well inside the 32 zmm registers.
constexpr size_t kRows = 4;
// Sources per sweep; more sources take further (accumulating) sweeps.
constexpr size_t kBatch = 16;

inline __m512i mul_vec(__m512i x, uint64_t matrix) {
  return _mm512_gf2p8affine_epi64_epi8(
      x, _mm512_set1_epi64(static_cast<long long>(matrix)), 0);
}

template <bool kMasked>
inline __m512i load(const uint8_t* p, __mmask64 mask) {
  if constexpr (kMasked) return _mm512_maskz_loadu_epi8(mask, p);
  return _mm512_loadu_si512(p);
}

template <bool kMasked>
inline void store(uint8_t* p, __m512i v, __mmask64 mask) {
  if constexpr (kMasked) {
    _mm512_mask_storeu_epi8(p, mask, v);
  } else {
    _mm512_storeu_si512(p, v);
  }
}

// V vectors (V * 64 bytes, or the masked bytes of one vector) at offset i
// of R destination rows: acc[r] = (seeded ? dst[r] : 0) ^ XOR_t
// mats[t * R + r] * srcs[t].  Each source vector is loaded once for all R
// rows.  The R x V loops must unroll completely so the accumulators live in
// registers; GCC does not do that by itself at -O2, hence the pragmas.
template <size_t R, size_t V, bool kMasked>
inline void sweep_block(uint8_t* const* dsts, const uint8_t* const* srcs,
                        const uint64_t* mats, size_t nterm, size_t i,
                        __mmask64 mask, bool seeded) {
  __m512i acc[R][V];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      acc[r][v] = seeded ? load<kMasked>(dsts[r] + i + 64 * v, mask)
                         : _mm512_setzero_si512();
    }
  }
  for (size_t t = 0; t < nterm; ++t) {
    __m512i x[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      x[v] = load<kMasked>(srcs[t] + i + 64 * v, mask);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const uint64_t m = mats[t * R + r];
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_xor_si512(acc[r][v], mul_vec(x[v], m));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      store<kMasked>(dsts[r] + i + 64 * v, acc[r][v], mask);
    }
  }
}

// One pass over n bytes of R rows; the tail is a single masked step.
template <size_t R>
void sweep(uint8_t* const* dsts, const uint8_t* const* srcs,
           const uint64_t* mats, size_t nterm, size_t n, bool seeded) {
  size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    sweep_block<R, 2, false>(dsts, srcs, mats, nterm, i, 0, seeded);
  }
  if (i + 64 <= n) {
    sweep_block<R, 1, false>(dsts, srcs, mats, nterm, i, 0, seeded);
    i += 64;
  }
  if (i < n) {
    const __mmask64 mask = (__mmask64{1} << (n - i)) - 1;
    sweep_block<R, 1, true>(dsts, srcs, mats, nterm, i, mask, seeded);
  }
}

void sweep_rows(size_t rows, uint8_t* const* dsts, const uint8_t* const* srcs,
                const uint64_t* mats, size_t nterm, size_t n, bool seeded) {
  switch (rows) {
    case 1:
      return sweep<1>(dsts, srcs, mats, nterm, n, seeded);
    case 2:
      return sweep<2>(dsts, srcs, mats, nterm, n, seeded);
    case 3:
      return sweep<3>(dsts, srcs, mats, nterm, n, seeded);
    default:
      return sweep<4>(dsts, srcs, mats, nterm, n, seeded);
  }
}

void gfni_xor_add(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(_mm512_loadu_si512(src + i),
                                                  _mm512_loadu_si512(dst + i)));
  }
  if (i < n) {
    const __mmask64 mask = (__mmask64{1} << (n - i)) - 1;
    _mm512_mask_storeu_epi8(
        dst + i, mask,
        _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, src + i),
                         _mm512_maskz_loadu_epi8(mask, dst + i)));
  }
}

void gfni_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    gfni_xor_add(src, dst, n);
    return;
  }
  sweep<1>(&dst, &src, &kAffine[c], 1, n, /*seeded=*/true);
}

void gfni_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memmove(dst, src, n);
    return;
  }
  sweep<1>(&dst, &src, &kAffine[c], 1, n, /*seeded=*/false);
}

// Live terms go into fixed stack batches with their matrices looked up once
// per call; no allocation, so the single-row (decode) shape pays nothing for
// the fused machinery.
void gfni_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate) {
  if (n == 0) return;
  bool seeded = accumulate;  // does dst already hold a partial sum?
  size_t j = 0;
  while (j < nsrc) {
    const uint8_t* bsrc[kBatch];
    uint64_t bmat[kBatch];
    size_t b = 0;
    for (; j < nsrc && b < kBatch; ++j) {
      if (coeffs[j] == 0) continue;  // sparse schedules skip dead terms
      bsrc[b] = srcs[j];
      bmat[b] = kAffine[coeffs[j]];
      ++b;
    }
    if (b == 0) break;
    sweep<1>(&dst, bsrc, bmat, b, n, seeded);
    seeded = true;
  }
  if (!seeded) std::memset(dst, 0, n);  // no live terms, no prior contents
}

// Groups of kRows output rows; within a group a source is a term if any of
// the group's rows uses it, and it is loaded once per vector for all of
// them.
void gfni_mul_rows(uint8_t* const* dsts, size_t ndst,
                   const uint8_t* const* srcs, const uint8_t* coeffs,
                   size_t nsrc, size_t n) {
  if (n == 0) return;
  for (size_t r0 = 0; r0 < ndst; r0 += kRows) {
    const size_t rows = std::min(kRows, ndst - r0);
    bool seeded = false;
    size_t j = 0;
    while (j < nsrc) {
      const uint8_t* bsrc[kBatch];
      uint64_t bmat[kBatch * kRows];
      size_t b = 0;
      for (; j < nsrc && b < kBatch; ++j) {
        bool live = false;
        for (size_t r = 0; r < rows; ++r) {
          const uint8_t c = coeffs[(r0 + r) * nsrc + j];
          bmat[b * rows + r] = kAffine[c];
          live |= c != 0;
        }
        if (!live) continue;  // dead in every row of the group
        bsrc[b++] = srcs[j];
      }
      if (b == 0) break;
      sweep_rows(rows, dsts + r0, bsrc, bmat, b, n, seeded);
      seeded = true;
    }
    if (!seeded) {
      for (size_t r = 0; r < rows; ++r) std::memset(dsts[r0 + r], 0, n);
    }
  }
}

}  // namespace

extern const GfKernel kGfniKernel;
const GfKernel kGfniKernel = {
    "gfni",
    gfni_mul_add,
    gfni_mul_assign,
    gfni_xor_add,
    gfni_mul_add_multi,
    gfni_mul_rows,
};

}  // namespace ear::gf
