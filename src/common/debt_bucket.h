// A debt-style token bucket: tokens refill at a fixed rate up to a cap, and
// a charge takes the full amount even past zero, leaving a debt that time
// repays.  Callers choose what the debt means: wait until the balance turns
// positive before the next charge (admit while tokens > 0), or charge first
// and sleep seconds_until(0) off.  Either way the long-run rate is exactly
// `rate` for any request size.
//
// The clock is passed in, so the bucket is deterministic; it is not
// thread-safe (callers hold their own lock).
#pragma once

#include <algorithm>
#include <chrono>

#include "common/units.h"

namespace ear {

class DebtBucket {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  // Starts full at `start`.  `rate` must be positive.
  DebtBucket(BytesPerSec rate, double cap, TimePoint start)
      : rate_(rate), cap_(cap), tokens_(cap), last_refill_(start) {}

  // Adds the tokens earned since the last refill, up to the cap.  A `now`
  // at or before the last refill adds nothing, so no interval is counted
  // twice.
  void refill(TimePoint now) {
    if (now <= last_refill_) return;
    const double dt = std::chrono::duration<double>(now - last_refill_).count();
    tokens_ = std::min(cap_, tokens_ + dt * rate_);
    last_refill_ = now;
  }

  void charge(double bytes) { tokens_ -= bytes; }

  // Seconds after the last refill until the balance reaches `level`; 0 when
  // it already has.
  Seconds seconds_until(double level) const {
    return std::max(0.0, (level - tokens_) / rate_);
  }

  double tokens() const { return tokens_; }

 private:
  BytesPerSec rate_;
  double cap_;
  double tokens_;
  TimePoint last_refill_;
};

}  // namespace ear
