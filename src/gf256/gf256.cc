#include "gf256/gf256.h"

#include <cassert>

#include "gf256/kernel.h"

namespace ear::gf {

// The span-level entry points resolve the active kernel per call (an atomic
// load plus an indirect call — noise next to the bulk work) so a
// KernelOverride in a test redirects every consumer immediately.

void mul_add(uint8_t c, std::span<const uint8_t> src, std::span<uint8_t> dst) {
  assert(src.size() == dst.size());
  if (dst.empty()) return;
  kernel().mul_add(c, src.data(), dst.data(), dst.size());
}

void mul_assign(uint8_t c, std::span<const uint8_t> src,
                std::span<uint8_t> dst) {
  assert(src.size() == dst.size());
  if (dst.empty()) return;
  kernel().mul_assign(c, src.data(), dst.data(), dst.size());
}

void xor_add(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  assert(src.size() == dst.size());
  if (dst.empty()) return;
  kernel().xor_add(src.data(), dst.data(), dst.size());
}

void mul_add_multi(std::span<const uint8_t* const> srcs,
                   std::span<const uint8_t> coeffs, std::span<uint8_t> dst,
                   bool accumulate) {
  assert(srcs.size() == coeffs.size());
  if (dst.empty()) return;
  kernel().mul_add_multi(dst.data(), srcs.data(), coeffs.data(), srcs.size(),
                         dst.size(), accumulate);
}

void mul_rows(std::span<uint8_t* const> dsts,
              std::span<const uint8_t* const> srcs,
              std::span<const uint8_t> coeffs, size_t n) {
  assert(coeffs.size() == dsts.size() * srcs.size());
  if (n == 0 || dsts.empty()) return;
  kernel().mul_rows(dsts.data(), dsts.size(), srcs.data(), coeffs.data(),
                    srcs.size(), n);
}

}  // namespace ear::gf
