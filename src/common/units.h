// Units used throughout the codebase.
//
// Convention: sizes are bytes (int64_t), rates are bytes/second (double),
// simulated time is seconds (double).  Helpers below make call sites read
// like the paper ("64 MB blocks", "1 Gb/s links").
#pragma once

#include <cstdint>

namespace ear {

using Bytes = int64_t;
using Seconds = double;
using BytesPerSec = double;

constexpr Bytes operator""_KB(unsigned long long v) {
  return static_cast<Bytes>(v) * 1024;
}
constexpr Bytes operator""_MB(unsigned long long v) {
  return static_cast<Bytes>(v) * 1024 * 1024;
}
constexpr Bytes operator""_GB(unsigned long long v) {
  return static_cast<Bytes>(v) * 1024 * 1024 * 1024;
}

// Network rates in the paper are quoted in Gb/s (decimal bits).
constexpr BytesPerSec gbps(double v) { return v * 1e9 / 8.0; }
constexpr BytesPerSec mbps(double v) { return v * 1e6 / 8.0; }

// Reservation chunk of a transfer over emulated links: a transfer holds each
// link in slots of size / 16, never smaller than 64 KB, so a short transfer
// that arrives behind a long one waits at most one slot.  The testbed
// benches size ThrottledTransport's chunk by it (bench/testbed_util.h), and
// the simulator applies it to every transfer (sim/network.h).
constexpr Bytes reservation_chunk(Bytes size) {
  return size / 16 > 64_KB ? size / 16 : 64_KB;
}

constexpr double to_mb(Bytes b) {
  return static_cast<double>(b) / (1024.0 * 1024.0);
}

}  // namespace ear
