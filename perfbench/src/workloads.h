// The benchmark's workloads.  Each runs rounds on fresh clusters until the
// run's measuring time is spent, filling the collector, and returns the
// shape its per-layer kernel and codec probes use.
#pragma once

#include <string>

#include "harness.h"
#include "round.h"

namespace earbench {

// Closed loop on InstantTransport (floor.cc).
Shape run_floor(const RunOptions& opts, Collector& col);

// Open-loop mixes on ThrottledTransport (openloop.cc): "testbed-mix" (the
// paper's testbed, FIFO links, reader cache) and "qos-repair" (2:1
// oversubscribed racks, fair-share QoS with two tenants, cache off).
Shape run_open_loop(const std::string& name, const RunOptions& opts,
                    Collector& col);

}  // namespace earbench
