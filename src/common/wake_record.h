// The calling thread's link-timeline record (DESIGN.md "Work-conserving
// senders"): when the bytes it is about to move were ready.
//
// ThrottledTransport fills in the sleep fields after every chunk it waits
// for, so a sender's back-to-back chunks keep its links busy.  A data-path
// stage that hands bytes from one thread to another sets `ready` around one
// move (StagedPipeline::run_chain does, per chain hop), so the move starts
// when its bytes existed, not when the thread that sends them woke up.  The
// record is per thread, not a Transport call argument, so transport
// decorators that forward on the calling thread carry it unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

namespace ear {

struct WakeRecord {
  using Clock = std::chrono::steady_clock;

  // The transport instance the thread last slept on (0 = none), the
  // reservation end it slept until (E) and when it woke (W).
  uint64_t transport = 0;
  Clock::time_point slept_until{};
  Clock::time_point woke{};

  // The hand-off.  When set, the instant the bytes of the thread's next
  // move existed: the transport starts that move's first chunk no earlier
  // than this and no earlier than every link of its path is free, and
  // leaves here, on return, when the move's last chunk landed (the ready
  // time of a move that forwards those bytes).  A move that reserves
  // nothing leaves it unchanged.  Unset, the transport's own back-to-back
  // rule applies.
  std::optional<Clock::time_point> ready;
};

// The calling thread's record.
inline WakeRecord& this_thread_wake() {
  thread_local WakeRecord record;
  return record;
}

}  // namespace ear
