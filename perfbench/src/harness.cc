#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace earbench {

uint64_t derive_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kWrite:
      return "write";
    case OpKind::kRead:
      return "read";
    case OpKind::kDegradedRead:
      return "degraded_read";
    case OpKind::kEncodeStripe:
      return "encode_stripe";
    case OpKind::kRepair:
      return "repair";
  }
  return "unknown";
}

int64_t OpLog::total_attempted() const {
  int64_t sum = 0;
  for (const auto& a : attempted_) sum += a.load();
  return sum;
}

double OpLog::mean_service_ms(OpKind kind) const {
  const int64_t n = served(kind);
  return n == 0 ? 0.0
                : static_cast<double>(service_ns_[idx(kind)].load()) / 1e6 /
                      static_cast<double>(n);
}

int64_t OpLog::total_failed() const {
  int64_t sum = 0;
  for (const auto& f : failed_) sum += f.load();
  return sum;
}

// ------------------------------------------------------------------ samples

void Samples::add(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_.push_back(v);
}

void Samples::add_all(const std::vector<double>& vs) {
  std::lock_guard<std::mutex> lock(mu_);
  values_.insert(values_.end(), vs.begin(), vs.end());
}

std::vector<double> Samples::sorted() const {
  std::vector<double> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = values_;
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

// Nearest-rank percentile of sorted samples.
double rank_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string pct_label(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

}  // namespace

Percentile honest_percentile(const std::vector<double>& sorted, double q) {
  Percentile out;
  out.n = sorted.size();
  const double n = static_cast<double>(sorted.size());
  for (const double cand : {0.99, 0.90, 0.50}) {
    if (cand > q) continue;
    if (n * (1.0 - cand) >= 10.0) {
      out.value = rank_percentile(sorted, cand);
      out.label = pct_label(cand);
      return out;
    }
  }
  out.value = rank_percentile(sorted, 0.5);
  out.label = "p50(n<20)";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ----------------------------------------------------------------- payloads

std::atomic<bool> Payloads::corrupt_records{false};

Payloads::Payloads(Bytes block_size, int pool, uint64_t seed)
    : block_size_(block_size),
      pool_(pool),
      bytes_(static_cast<size_t>(block_size) * static_cast<size_t>(pool)) {
  ear::Rng rng(seed);
  size_t i = 0;
  for (; i + 8 <= bytes_.size(); i += 8) {
    const uint64_t word = rng.next();
    std::memcpy(&bytes_[i], &word, 8);
  }
  for (; i < bytes_.size(); ++i) bytes_[i] = static_cast<uint8_t>(rng.next());
}

const uint8_t* Payloads::pool_block(uint64_t seq) const {
  const uint64_t slot = derive_seed(seq, 0x5107) % static_cast<uint64_t>(pool_);
  return bytes_.data() + slot * static_cast<uint64_t>(block_size_);
}

void Payloads::fill(uint64_t seq, std::span<uint8_t> out) const {
  std::memcpy(out.data(), pool_block(seq), static_cast<size_t>(block_size_));
  std::memcpy(out.data(), &seq, sizeof(seq));
}

void Payloads::record(BlockId block, uint64_t seq) {
  if (corrupt_records.load(std::memory_order_relaxed) && seq % 16 == 0) {
    seq += 1;  // self-check: a deliberately wrong writer-side record
  }
  std::lock_guard<std::mutex> lock(mu_);
  seq_of_[block] = seq;
}

bool Payloads::known(BlockId block) const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_of_.count(block) > 0;
}

bool Payloads::verify(BlockId block, std::span<const uint8_t> bytes) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = seq_of_.find(block);
    if (it == seq_of_.end()) {
      mismatches_.fetch_add(1);
      return false;
    }
    seq = it->second;
  }
  const size_t n = static_cast<size_t>(block_size_);
  const bool ok = bytes.size() == n &&
                  std::memcmp(bytes.data(), &seq, sizeof(seq)) == 0 &&
                  std::memcmp(bytes.data() + sizeof(seq),
                              pool_block(seq) + sizeof(seq),
                              n - sizeof(seq)) == 0;
  if (!ok) mismatches_.fetch_add(1);
  return ok;
}

// -------------------------------------------------------- transport meter

MeteredTransport::MeteredTransport(const ear::Topology& topo,
                                   std::unique_ptr<ear::cfs::Transport> inner,
                                   TransportMeter& meter)
    : topo_(topo), inner_(std::move(inner)), meter_(&meter) {}

void MeteredTransport::transfer(NodeId src, NodeId dst, Bytes size) {
  const auto t0 = Clock::now();
  inner_->transfer(src, dst, size);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  ClassTally& t = meter_->of(ear::qos::current_context().cls);
  t.calls.fetch_add(1, std::memory_order_relaxed);
  t.bytes.fetch_add(size, std::memory_order_relaxed);
  t.blocked_ns.fetch_add(ns, std::memory_order_relaxed);
  if (src != dst) {
    (topo_.same_rack(src, dst) ? t.intra_rack_bytes : t.cross_rack_bytes)
        .fetch_add(size, std::memory_order_relaxed);
  }
}

void MeteredTransport::local_read(NodeId node, Bytes size) {
  const auto t0 = Clock::now();
  inner_->local_read(node, size);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  ClassTally& t = meter_->of(ear::qos::current_context().cls);
  t.calls.fetch_add(1, std::memory_order_relaxed);
  t.bytes.fetch_add(size, std::memory_order_relaxed);
  t.blocked_ns.fetch_add(ns, std::memory_order_relaxed);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ output

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-44s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace earbench
