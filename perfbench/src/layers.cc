// Metric builders: the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced one, including the gf256 kernel and codec
// probes the traced run makes at the workload's shape.
#include "layers.h"

#include <algorithm>
#include <numeric>

#include "erasure/codec.h"
#include "gf256/kernel.h"
#include "obs/metrics.h"
#include "qos/qos.h"

namespace earbench {

namespace {

using ear::qos::TrafficClass;

std::string count_note(size_t n) { return "n=" + std::to_string(n); }

// The percentile every *_p99_ms metric reports, on every workload, so every
// run reports the same one.  The open-loop workloads gather a few hundred
// samples per stream; floor gathers tens of thousands, but its operations
// take a few milliseconds of CPU, so its p99 followed the host's stolen-CPU
// bursts (7 to 23 ms between runs) rather than the program.
constexpr double kTailQ = 0.90;

Metric latency(const std::string& name, const Samples& samples, double q) {
  const Percentile p = honest_percentile(samples.sorted(), q);
  return {name, p.value, "ms", p.label + " of n=" + std::to_string(p.n)};
}

Metric round_median(const std::string& name, const std::vector<double>& per_round,
                    const std::string& unit) {
  std::string note = "median of " + std::to_string(per_round.size()) + " rounds";
  if (!per_round.empty()) {
    const auto [lo, hi] = std::minmax_element(per_round.begin(), per_round.end());
    note += " (" + std::to_string(*lo) + " .. " + std::to_string(*hi) + ")";
  }
  return {name, median(per_round), unit, std::move(note)};
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double safe_ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Repeats `fn` until at least `min_s` has passed; returns calls per second.
template <typename Fn>
double calls_per_second(Fn fn, double min_s) {
  fn();  // warm caches and tables
  int64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  while (elapsed < min_s) {
    for (int i = 0; i < 8; ++i) fn();
    calls += 8;
    elapsed = seconds_since(t0);
  }
  return static_cast<double>(calls) / elapsed;
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  ear::Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

// gf256: the dispatched mul_add_multi over k sources of one pipeline chunk.
double gf_mul_add_multi_gbps(const Shape& shape) {
  const auto chunk = static_cast<size_t>(shape.chunk);
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  for (int i = 0; i < shape.k; ++i) {
    srcs.push_back(random_bytes(chunk, 10 + static_cast<uint64_t>(i)));
    ptrs.push_back(srcs.back().data());
  }
  const std::vector<uint8_t> coeffs = random_bytes(static_cast<size_t>(shape.k), 7);
  std::vector<uint8_t> dst(chunk);
  const ear::gf::GfKernel& kernel = ear::gf::kernel();
  const double rate = calls_per_second(
      [&] {
        kernel.mul_add_multi(dst.data(), ptrs.data(), coeffs.data(),
                             ptrs.size(), chunk, false);
      },
      0.2);
  return rate * static_cast<double>(shape.k) * static_cast<double>(chunk) / 1e9;
}

struct CodecRates {
  double encode_gbps = 0;
  double decode_gbps = 0;
};

// erasure: encode_chunk of a whole stripe and reconstruct of one lost data
// block from k survivors, both as data bytes in per second.
CodecRates codec_rates(const Shape& shape) {
  const auto codec = ear::erasure::make_codec(ear::erasure::CodecFamily::kRS,
                                              shape.n, shape.k);
  const auto bs = static_cast<size_t>(shape.block_size);
  std::vector<std::vector<uint8_t>> blocks;
  for (int i = 0; i < shape.n; ++i) {
    blocks.push_back(random_bytes(bs, 100 + static_cast<uint64_t>(i)));
  }
  std::vector<ear::erasure::BlockView> data;
  std::vector<ear::erasure::MutBlockView> parity;
  for (int i = 0; i < shape.k; ++i) data.emplace_back(blocks[static_cast<size_t>(i)]);
  for (int i = shape.k; i < shape.n; ++i) parity.emplace_back(blocks[static_cast<size_t>(i)]);
  const double stripe_bytes = static_cast<double>(shape.k) * static_cast<double>(bs);
  CodecRates out;
  out.encode_gbps =
      calls_per_second([&] { codec->encode_chunk(data, parity, 0, bs); }, 0.2) *
      stripe_bytes / 1e9;

  std::vector<int> ids;
  std::vector<ear::erasure::BlockView> avail;
  for (int i = 1; i <= shape.k; ++i) {
    ids.push_back(i);
    avail.emplace_back(blocks[static_cast<size_t>(i)]);
  }
  std::vector<uint8_t> rebuilt(bs);
  out.decode_gbps =
      calls_per_second(
          [&] { codec->reconstruct(ids, avail, {0}, {ear::erasure::MutBlockView(rebuilt)}); },
          0.2) *
      stripe_bytes / 1e9;
  return out;
}

int64_t counter(const std::string& name) {
  return ear::obs::Registry::instance().counter(name).value();
}

const char* transport_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kForegroundRead:
      return "read";
    case TrafficClass::kForegroundWrite:
      return "write";
    case TrafficClass::kBackgroundEncode:
      return "encode";
    case TrafficClass::kRepair:
      return "repair";
  }
  return "unknown";
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const Collector& col) {
  return {
      round_median("setup_s", col.setup_s, "s"),
      round_median("write_mbps", col.write_mbps, "MB/s"),
      latency("write_p50_ms", col.write_ms, 0.50),
      latency("write_p99_ms", col.write_ms, kTailQ),
      round_median("convert_mbps", col.convert_mbps, "MB/s"),
      latency("read_p50_ms", col.read_ms, 0.50),
      latency("read_p99_ms", col.read_ms, kTailQ),
      latency("hi_tenant_read_p99_ms", col.hi_read_ms, kTailQ),
      latency("degraded_read_p50_ms", col.degraded_ms, 0.50),
      latency("degraded_read_p99_ms", col.degraded_ms, kTailQ),
      round_median("restore_s", col.restore_s, "s"),
      round_median("stored_bytes_per_user_byte", col.stored_ratio, "ratio"),
      round_median("cross_rack_bytes_per_converted_byte", col.cross_ratio,
                   "ratio"),
      {"peak_rss_mb", peak_rss_mb(), "MiB", "getrusage ru_maxrss"},
  };
}

bool bounded(const Metric& metric) {
  return metric.name != "write_p99_ms" && metric.name != "degraded_read_p99_ms";
}

std::vector<Metric> per_layer_metrics(const Collector& col, const Shape& shape) {
  std::vector<Metric> out;
  const auto add = [&](std::string name, double value, std::string unit,
                       std::string note = "") {
    out.push_back({std::move(name), value, std::move(unit), std::move(note)});
  };
  auto& reg = ear::obs::Registry::instance();
  const std::string traced_note = "registry, traced rounds";

  // gf256 / erasure probes at the workload's shape.
  add("gf256.mul_add_multi_gbps", gf_mul_add_multi_gbps(shape), "GB/s",
      std::string(ear::gf::kernel().name) + ", k=" + std::to_string(shape.k) +
          ", chunk=" + std::to_string(shape.chunk));
  const CodecRates codec = codec_rates(shape);
  add("erasure.encode_gbps", codec.encode_gbps, "GB/s", "data bytes in");
  add("erasure.decode_gbps", codec.decode_gbps, "GB/s", "survivor bytes in");

  // datapath.
  add("datapath.chunks_in_flight",
      reg.gauge("datapath.chunks_in_flight").value(), "count", "max, " + traced_note);
  add("datapath.bytes_copied", static_cast<double>(counter("datapath.bytes_copied")),
      "B", traced_note);
  add("datapath.cache.lookups", static_cast<double>(col.cache_lookups), "count");
  add("datapath.cache.hit_ratio",
      safe_ratio(static_cast<double>(col.cache_hits),
                 static_cast<double>(col.cache_lookups)),
      "ratio", "hits/lookups, base " + std::to_string(col.cache_lookups));
  add("datapath.cache.evictions", static_cast<double>(col.cache_evictions), "count");

  // cfs: calls the benchmark timed, plus the registry's encode histogram.
  for (const OpKind kind : {OpKind::kWrite, OpKind::kRead, OpKind::kDegradedRead}) {
    const std::string base = std::string("cfs.") + op_name(kind);
    add(base + ".calls", static_cast<double>(col.ops.served(kind)), "count");
    add(base + ".mean_ms", col.ops.mean_service_ms(kind), "ms");
  }
  const auto& enc_hist = reg.histogram("cfs.encode_stripe_seconds",
                                       {0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30, 60});
  add("cfs.encode_stripe.calls", static_cast<double>(enc_hist.count()), "count",
      traced_note);
  add("cfs.encode_stripe.mean_ms",
      safe_ratio(enc_hist.sum() * 1e3, static_cast<double>(enc_hist.count())), "ms",
      traced_note);
  const std::vector<double> repair_ms = col.repair_task_ms.sorted();
  add("cfs.repair.calls", static_cast<double>(repair_ms.size()), "count");
  add("cfs.repair.mean_ms", mean(repair_ms), "ms", "on_task spans");
  add("cfs.degraded_read.bytes_per_read",
      safe_ratio(static_cast<double>(counter("cfs.degraded_read_bytes")),
                 static_cast<double>(counter("cfs.degraded_reads"))),
      "B", traced_note);

  // transport decorator.
  int64_t cross = 0, intra = 0;
  for (int c = 0; c < ear::qos::kClassCount; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    const ClassTally& t = col.meter.of(cls);
    const std::string base = std::string("transport.") + transport_class_name(cls);
    add(base + ".calls", static_cast<double>(t.calls.load()), "count");
    add(base + ".bytes", static_cast<double>(t.bytes.load()), "B");
    add(base + ".blocked_s", static_cast<double>(t.blocked_ns.load()) / 1e9, "s");
    cross += t.cross_rack_bytes.load();
    intra += t.intra_rack_bytes.load();
  }
  add("transport.cross_rack_bytes", static_cast<double>(cross), "B");
  add("transport.intra_rack_bytes", static_cast<double>(intra), "B");

  // placement.
  add("placement.encode_cross_rack_downloads",
      static_cast<double>(col.encode_cross_rack_downloads), "count");
  add("placement.cross_rack_bytes_per_stripe",
      safe_ratio(static_cast<double>(
                     col.meter.of(TrafficClass::kBackgroundEncode)
                         .cross_rack_bytes.load()),
                 static_cast<double>(col.stripes_converted)),
      "B", "base " + std::to_string(col.stripes_converted) + " stripes");

  // namespace.
  const std::vector<double> snap_ms = col.snapshot_ms.sorted();
  add("namespace.snapshot_ms", mean(snap_ms), "ms", count_note(snap_ms.size()));
  add("namespace.blocks", static_cast<double>(col.namespace_blocks), "count");

  // raidnode.
  add("raidnode.failed_stripes", static_cast<double>(col.failed_stripes), "count");
  const Percentile stripe = honest_percentile(col.stripe_completion_s.sorted(), 0.99);
  add("raidnode.stripe_p99_s", stripe.value, "s",
      stripe.label + " of n=" + std::to_string(stripe.n) + " completion times");

  // qos (zero where the transport runs FIFO).
  for (int c = 0; c < ear::qos::kClassCount; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    add(ear::qos::class_metric(cls, "bytes"),
        static_cast<double>(counter(ear::qos::class_metric(cls, "bytes"))), "B",
        traced_note);
    add(ear::qos::class_metric(cls, "grants"),
        static_cast<double>(counter(ear::qos::class_metric(cls, "grants"))),
        "count", traced_note);
    add(ear::qos::class_metric(cls, "queued_bytes"),
        reg.gauge(ear::qos::class_metric(cls, "queued_bytes")).value(), "B",
        "at end, " + traced_note);
  }
  // The grant-latency histogram has fixed buckets, so it yields counts, not
  // an exact p99.
  const auto& grant = reg.histogram(
      "qos.grant_latency_ms", {0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000});
  int64_t within_1ms = 0;
  for (size_t i = 0; i < grant.bounds().size() && grant.bounds()[i] <= 1.0; ++i) {
    within_1ms += grant.bucket_count(i);
  }
  add("qos.grant_latency.grants", static_cast<double>(grant.count()), "count",
      traced_note);
  add("qos.grant_latency.over_1ms", static_cast<double>(grant.count() - within_1ms),
      "count", traced_note);

  // failure / repair.
  const int64_t attempts = col.repair_repaired + col.repair_re_replicated +
                           col.repair_noop + col.repair_unrecoverable +
                           col.repair_retries;
  add("repair.repaired", static_cast<double>(col.repair_repaired), "count");
  add("repair.re_replicated", static_cast<double>(col.repair_re_replicated), "count");
  add("repair.retries", static_cast<double>(col.repair_retries), "count");
  add("repair.noop", static_cast<double>(col.repair_noop), "count");
  add("repair.unrecoverable", static_cast<double>(col.repair_unrecoverable), "count");
  add("repair.bytes_moved", static_cast<double>(col.repair_bytes_moved), "B");
  add("repair.useful_ratio",
      safe_ratio(static_cast<double>(col.repair_repaired + col.repair_re_replicated),
                 static_cast<double>(attempts)),
      "ratio", "base " + std::to_string(attempts) + " attempts");

  // store (last round, after conversion).
  add("store.blocks", static_cast<double>(col.store_blocks), "count");
  add("store.bytes", static_cast<double>(col.store_bytes), "B");

  // ecdag (off by default at this commit, so zero unless enabled).
  for (const char* name : {"ecdag.executions", "ecdag.partial_chunks",
                           "ecdag.cross_rack_bytes", "ecdag.intra_rack_bytes"}) {
    add(name, static_cast<double>(counter(name)),
        std::string(name).ends_with("bytes") ? "B" : "count", traced_note);
  }

  // load generator and tracing overhead.
  add("loadgen.late_requests", static_cast<double>(col.late_requests.load()), "count",
      "started > 10 ms after due");
  const double untraced = median(col.convert_mbps_untraced);
  const double traced = median(col.convert_mbps_traced);
  add("obs.tracing_overhead_pct", traced > 0 ? (untraced / traced - 1.0) * 100.0 : 0.0,
      "%",
      "convert_mbps untraced " + std::to_string(untraced) + " vs traced " +
          std::to_string(traced));
  return out;
}

}  // namespace earbench
