// Builds the benchmark's reported metrics from a finished run.
#pragma once

#include <vector>

#include "harness.h"

namespace earbench {

// Every end-to-end metric, each with its sample count.
std::vector<Metric> end_to_end_metrics(const Collector& col);

// False for the end-to-end tails BENCHMARK.json leaves unbounded:
// write_p99_ms and degraded_read_p99_ms spread too widely from run to run on
// the throttled workloads (a p90 of a few hundred samples, straddling the
// moments writes and degraded reads meet repair traffic) to hold a change
// to.  An untraced run's result line carries the bounded ones, a traced
// run's the unbounded ones beside the per-layer metrics.
bool bounded(const Metric& metric);

// Every per-layer metric (traced run).  Also runs the gf256 kernel and codec
// probes at `shape`.
std::vector<Metric> per_layer_metrics(const Collector& col, const Shape& shape);

}  // namespace earbench
