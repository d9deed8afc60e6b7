// Runtime-dispatched bulk kernels over GF(2^8).
//
// The scalar field (`mul`, `inv`, log/exp tables in gf256.h) is the single
// source of truth; every kernel here is an alternative *implementation* of
// the same bulk operations, required to be byte-identical to the scalar
// reference for all inputs (DESIGN.md invariant 10).  Kernels:
//   * scalar — low/high-nibble split tables, one byte at a time;
//   * ssse3 / avx2 / neon — the ISA-L shuffle idiom: a per-coefficient pair
//     of 16-entry nibble tables applied with PSHUFB/VPSHUFB (x86) or TBL
//     (NEON), so one vector op computes 16/32 products;
//   * gfni — AVX-512BW + GFNI: multiplication by c is a GF(2)-linear map on
//     the byte's bits, i.e. one 8x8 bit matrix applied with VGF2P8AFFINEQB,
//     64 products per instruction.  Its mul_rows computes up to four output
//     rows per sweep over the sources.
//
// Selection happens once, on the first call to `kernel()`:
//   * `EAR_GF_KERNEL=auto` (or unset): the best kernel the CPU supports
//     (gfni > avx2 > ssse3 > neon > scalar).
//   * `EAR_GF_KERNEL=scalar|ssse3|avx2|gfni|neon`: that kernel, or a loud
//     std::runtime_error naming the supported values if it is unknown or not
//     available on this CPU.
// Tests switch kernels in-process with `KernelOverride`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ear::gf {

// Function table for one ISA. All functions share the scalar semantics:
//   mul_add:       dst[i] ^= c * src[i]
//   mul_assign:    dst[i]  = c * src[i]
//   xor_add:       dst[i] ^= src[i]
//   mul_add_multi: dst[i] = (accumulate ? dst[i] : 0) ^ XOR_j coeffs[j] *
//                  srcs[j][i], zero coefficients skipped.  One sweep over
//                  dst replaces nsrc separate mul_add passes, so dst traffic
//                  stays resident while every source streams through once.
//   mul_rows:      dsts[r][i] = XOR_j coeffs[r * nsrc + j] * srcs[j][i] for
//                  r < ndst: a row-major ndst x nsrc coefficient matrix
//                  applied in full.  Zero coefficients are skipped and an
//                  all-zero row is zero-filled, so the result equals
//                  mul_add_multi(accumulate=false) once per row; a fused
//                  kernel loads each source once for several rows.
// Sources must not alias any destination. Zero-length calls are no-ops.
struct GfKernel {
  const char* name;
  void (*mul_add)(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
  void (*mul_assign)(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
  void (*xor_add)(const uint8_t* src, uint8_t* dst, size_t n);
  void (*mul_add_multi)(uint8_t* dst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate);
  void (*mul_rows)(uint8_t* const* dsts, size_t ndst,
                   const uint8_t* const* srcs, const uint8_t* coeffs,
                   size_t nsrc, size_t n);
};

// The active kernel. First call resolves EAR_GF_KERNEL (function-local
// static, so concurrent first touches are race-free); later calls are an
// atomic load.  Throws std::runtime_error if EAR_GF_KERNEL is invalid.
const GfKernel& kernel();

// Kernels compiled into this binary *and* supported by this CPU, best first
// (the first entry is what `auto` picks; "scalar" is always last).
std::vector<const GfKernel*> compiled_kernels();

// Maps a kernel spec ("auto", "", or a kernel name) to a kernel.  Throws
// std::runtime_error for unknown names and for kernels this build or CPU
// lacks, listing the supported values.
const GfKernel& resolve_kernel(std::string_view spec);

// RAII: forces `kernel()` to return the named kernel until destruction.
// For equivalence tests and benches; not thread-safe against concurrent
// overrides (concurrent *readers* are fine).
class KernelOverride {
 public:
  explicit KernelOverride(std::string_view spec);
  ~KernelOverride();
  KernelOverride(const KernelOverride&) = delete;
  KernelOverride& operator=(const KernelOverride&) = delete;

 private:
  const GfKernel* prev_;
};

namespace detail {

// Per-coefficient shuffle tables: c * b == lo[b & 15] ^ hi[b >> 4].  The
// 16-byte alignment lets the SIMD kernels load each half as one register.
struct NibbleTables {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
};

NibbleTables make_nibble_tables(uint8_t c);

// Scalar reference implementations (also the head/tail path of every SIMD
// kernel, so ragged edges stay bit-compatible by construction).
void scalar_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
void scalar_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
void scalar_xor_add(const uint8_t* src, uint8_t* dst, size_t n);

// mul_rows as one mul_add_multi sweep per output row: the implementation of
// every kernel without a fused multi-row sweep (scalar, ssse3, avx2, neon).
template <void (*MulAddMulti)(uint8_t*, const uint8_t* const*, const uint8_t*,
                              size_t, size_t, bool)>
void mul_rows_by_row(uint8_t* const* dsts, size_t ndst,
                     const uint8_t* const* srcs, const uint8_t* coeffs,
                     size_t nsrc, size_t n) {
  for (size_t r = 0; r < ndst; ++r) {
    MulAddMulti(dsts[r], srcs, coeffs + r * nsrc, nsrc, n,
                /*accumulate=*/false);
  }
}

}  // namespace detail

}  // namespace ear::gf
