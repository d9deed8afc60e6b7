#include "gf256/kernel.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gf256/gf256.h"

namespace ear::gf {

namespace detail {

NibbleTables make_nibble_tables(uint8_t c) {
  NibbleTables t;
  for (int i = 0; i < 16; ++i) {
    t.lo[i] = mul(c, static_cast<uint8_t>(i));
    t.hi[i] = mul(c, static_cast<uint8_t>(i << 4));
  }
  return t;
}

void scalar_xor_add(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  // 8 bytes per iteration through a 64-bit XOR.
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, src + i, 8);
    std::memcpy(&b, dst + i, 8);
    b ^= a;
    std::memcpy(dst + i, &b, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void scalar_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    scalar_xor_add(src, dst, n);
    return;
  }
  const MulTable table(c);
  for (size_t i = 0; i < n; ++i) dst[i] ^= table.apply(src[i]);
}

void scalar_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memcpy(dst, src, n);
    return;
  }
  const MulTable table(c);
  for (size_t i = 0; i < n; ++i) dst[i] = table.apply(src[i]);
}

}  // namespace detail

namespace {

// Scalar multi-source sweep: first live term assigns, the rest accumulate.
// Every kernel's mul_add_multi must match this bytewise.
void scalar_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                          const uint8_t* coeffs, size_t nsrc, size_t n,
                          bool accumulate) {
  if (n == 0) return;
  bool first = !accumulate;
  for (size_t j = 0; j < nsrc; ++j) {
    if (coeffs[j] == 0) continue;
    if (first) {
      detail::scalar_mul_assign(coeffs[j], srcs[j], dst, n);
      first = false;
    } else {
      detail::scalar_mul_add(coeffs[j], srcs[j], dst, n);
    }
  }
  if (first) std::memset(dst, 0, n);
}

constexpr GfKernel kScalarKernel = {
    "scalar",
    detail::scalar_mul_add,
    detail::scalar_mul_assign,
    detail::scalar_xor_add,
    scalar_mul_add_multi,
    detail::mul_rows_by_row<scalar_mul_add_multi>,
};

std::atomic<const GfKernel*> g_override{nullptr};

}  // namespace

#if defined(EAR_GF_X86)
// Defined in kernel_ssse3.cc / kernel_avx2.cc (compiled with -mssse3/-mavx2;
// only ever called after __builtin_cpu_supports says the ISA is present).
extern const GfKernel kSsse3Kernel;
extern const GfKernel kAvx2Kernel;
#endif
#if defined(EAR_GF_GFNI)
// kernel_gfni.cc, compiled with -mavx512f -mavx512bw -mgfni.
extern const GfKernel kGfniKernel;
#endif
#if defined(EAR_GF_NEON)
extern const GfKernel kNeonKernel;  // kernel_neon.cc; NEON is baseline on
                                    // aarch64, no runtime probe needed
#endif

std::vector<const GfKernel*> compiled_kernels() {
  std::vector<const GfKernel*> out;
#if defined(EAR_GF_GFNI)
  if (__builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx512bw")) {
    out.push_back(&kGfniKernel);
  }
#endif
#if defined(EAR_GF_X86)
  if (__builtin_cpu_supports("avx2")) out.push_back(&kAvx2Kernel);
  if (__builtin_cpu_supports("ssse3")) out.push_back(&kSsse3Kernel);
#endif
#if defined(EAR_GF_NEON)
  out.push_back(&kNeonKernel);
#endif
  out.push_back(&kScalarKernel);
  return out;
}

const GfKernel& resolve_kernel(std::string_view spec) {
  const auto available = compiled_kernels();
  if (spec.empty() || spec == "auto") return *available.front();
  for (const GfKernel* k : available) {
    if (spec == k->name) return *k;
  }
  std::string supported = "auto";
  for (const GfKernel* k : available) {
    supported += ", ";
    supported += k->name;
  }
  throw std::runtime_error("unsupported EAR_GF_KERNEL '" + std::string(spec) +
                           "' (supported: " + supported + ")");
}

const GfKernel& kernel() {
  const GfKernel* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  // Magic static: concurrent first touches block on one initialization.
  static const GfKernel& chosen = []() -> const GfKernel& {
    const char* env = std::getenv("EAR_GF_KERNEL");
    return resolve_kernel(env == nullptr ? "auto" : env);
  }();
  return chosen;
}

KernelOverride::KernelOverride(std::string_view spec)
    : prev_(g_override.exchange(&resolve_kernel(spec),
                                std::memory_order_acq_rel)) {}

KernelOverride::~KernelOverride() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace ear::gf
