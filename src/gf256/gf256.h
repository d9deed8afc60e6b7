// Arithmetic over GF(2^8), the field underlying the Reed-Solomon codec.
//
// The field is constructed from the primitive polynomial
//   x^8 + x^4 + x^3 + x^2 + 1   (0x11d),
// the same polynomial used by HDFS-RAID, ISA-L and Jerasure, so encoded
// parity bytes are bit-compatible with those implementations.
//
// Element representation: uint8_t.  Addition is XOR.  Single-element
// `mul`/`inv`/`div`/`pow` use constexpr log/exp tables and stay scalar —
// matrix inversion and plan construction need them at compile time and on
// one byte at a time, where SIMD buys nothing.
//
// The bulk kernels (`mul_add`, `mul_assign`, `xor_add`, `mul_add_multi`,
// `mul_rows`) dispatch through a per-ISA function table selected once at
// startup (see kernel.h), best first: a GFNI kernel (AVX-512BW, one
// VGF2P8AFFINEQB bit-matrix multiply per 64 bytes, several output rows per
// sweep), AVX2 / SSSE3 / NEON shuffle kernels that apply 16-entry nibble
// tables with VPSHUFB/PSHUFB/TBL, 32–64 bytes per iteration, and the scalar
// low/high-nibble split-table reference.  Every kernel is
// bit-compatible with the scalar field for all coefficients, lengths and
// alignments (enforced exhaustively by tests/gf256_kernel_test.cc); the
// `EAR_GF_KERNEL` environment variable pins a specific kernel for tests
// and CI.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>

namespace ear::gf {

inline constexpr unsigned kPrimitivePoly = 0x11d;
inline constexpr int kFieldSize = 256;

namespace detail {

struct Tables {
  uint8_t exp[512];   // exp[i] = alpha^i, doubled to avoid a mod in mul
  uint8_t log[256];   // log[exp[i]] = i; log[0] unused
  uint8_t inv[256];   // multiplicative inverse; inv[0] unused

  constexpr Tables() : exp{}, log{}, inv{} {
    unsigned x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<uint8_t>(x);
      log[x] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPrimitivePoly;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    inv[1] = 1;
    for (int i = 2; i < 256; ++i) {
      inv[i] = exp[255 - log[i]];
    }
  }
};

inline constexpr Tables kTables{};

}  // namespace detail

constexpr uint8_t add(uint8_t a, uint8_t b) { return a ^ b; }
constexpr uint8_t sub(uint8_t a, uint8_t b) { return a ^ b; }

constexpr uint8_t mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return detail::kTables
      .exp[detail::kTables.log[a] + detail::kTables.log[b]];
}

constexpr uint8_t inv(uint8_t a) {
  // Precondition: a != 0 (division by zero is undefined in the field).
  return detail::kTables.inv[a];
}

constexpr uint8_t div(uint8_t a, uint8_t b) { return mul(a, inv(b)); }

// alpha^i for the canonical generator alpha = 2.
constexpr uint8_t exp_alpha(unsigned i) {
  return detail::kTables.exp[i % 255];
}

constexpr uint8_t pow(uint8_t a, unsigned e) {
  if (a == 0) return e == 0 ? 1 : 0;
  const unsigned l = detail::kTables.log[a];
  return detail::kTables.exp[(l * e) % 255];
}

// Per-coefficient multiply table split by nibble: product of c with any byte
// b equals lo[b & 15] ^ hi[b >> 4].  Built once per coefficient, then applied
// to whole blocks.
class MulTable {
 public:
  explicit MulTable(uint8_t c) {
    for (int i = 0; i < 16; ++i) {
      lo_[i] = mul(c, static_cast<uint8_t>(i));
      hi_[i] = mul(c, static_cast<uint8_t>(i << 4));
    }
  }

  uint8_t apply(uint8_t b) const { return lo_[b & 0x0f] ^ hi_[b >> 4]; }

 private:
  uint8_t lo_[16];
  uint8_t hi_[16];
};

// dst[i] ^= c * src[i] for all i.  The core encode/decode kernel.
void mul_add(uint8_t c, std::span<const uint8_t> src, std::span<uint8_t> dst);

// dst[i] = c * src[i] for all i.
void mul_assign(uint8_t c, std::span<const uint8_t> src,
                std::span<uint8_t> dst);

// dst[i] ^= src[i] (c == 1 fast path).
void xor_add(std::span<const uint8_t> src, std::span<uint8_t> dst);

// dst = (accumulate ? dst : 0) XOR sum_j coeffs[j] * srcs[j], in one sweep
// over dst: the single-row kernel behind Clay's sparse rows and the ecdag
// executor's compiled term lists (whole matrices go through mul_rows).  Zero
// coefficients are skipped (sparse schedules pass them freely); with no
// live term and !accumulate, dst is zero-filled.  Each srcs[j] must cover
// dst.size() bytes and must not alias dst.
void mul_add_multi(std::span<const uint8_t* const> srcs,
                   std::span<const uint8_t> coeffs, std::span<uint8_t> dst,
                   bool accumulate);

// dsts[r][0, n) = sum_j coeffs[r * srcs.size() + j] * srcs[j][0, n) for
// every row r: a row-major dsts.size() x srcs.size() coefficient matrix
// applied whole — the codecs' encode/decode/repair call.  Zero coefficients
// are skipped and an all-zero row is zero-filled; the bytes equal one
// mul_add_multi(accumulate=false) per row, but a fused kernel loads each
// source once for several rows.  Each srcs[j] must cover n bytes and must
// not alias any destination.
void mul_rows(std::span<uint8_t* const> dsts,
              std::span<const uint8_t* const> srcs,
              std::span<const uint8_t> coeffs, size_t n);

}  // namespace ear::gf
