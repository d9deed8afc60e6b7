// Traffic classification for cluster-wide QoS (see DESIGN.md "QoS &
// fair-share scheduling").
//
// Every byte the testbed moves belongs to a (traffic class, tenant) flow:
// the class says *why* the bytes move (foreground read/write, background
// encoding, repair), the tenant says *on whose behalf*.  The pair travels
// with the thread as an ambient TransferContext — installed by QosScope
// (benches/workloads tag their tenant) and defaulted per operation by
// MiniCfs (a repair is kRepair no matter which thread runs it) — and is
// read by ThrottledTransport at every link reservation, where the
// fair-share scheduler (qos/scheduler.h) turns it into a weighted grant.
//
// Propagation: data paths hop threads constantly (StagedPipeline stages
// and lanes, RaidNode map tasks, replication-pipeline hops — all shared
// WorkerPool tasks), so the context must follow the work, not the thread.
// capture()/InstallScope is the hand-off idiom: capture in the thread that
// owns the operation, install in every thread that moves bytes for it.
// datapath::TaskGroup does this automatically for every task it runs.
//
// Invariant 11: the context only ever influences *when* a transfer is
// granted link time — never which bytes move, so payloads are byte-identical
// with QoS on or off.
#pragma once

#include <cstdint>
#include <string>

namespace ear::qos {

enum class TrafficClass : uint8_t {
  kForegroundRead = 0,
  kForegroundWrite = 1,
  kBackgroundEncode = 2,
  kRepair = 3,
};

inline constexpr int kClassCount = 4;

// Stable short names ("fg-read", ...) used for metric keys and bench tables.
const char* class_name(TrafficClass cls);

struct TransferContext {
  TrafficClass cls = TrafficClass::kForegroundRead;
  int tenant = 0;  // 0 = the system tenant (repair, conversion, tests)

  bool operator==(const TransferContext& other) const {
    return cls == other.cls && tenant == other.tenant;
  }
};

// The ambient context of the calling thread (the default-constructed
// context when nothing is installed).
TransferContext current_context();
// True when a QosScope / OpScope / InstallScope is active on this thread —
// i.e. current_context() is intentional, not the fallback default.
bool context_active();

// Installs a full (class, tenant) context for the scope's lifetime,
// restoring the previous state on destruction.  This is the *explicit* tag:
// workloads and benches wrap their request loops in one, and MiniCfs
// operation defaults never override it (see OpScope).
class QosScope {
 public:
  explicit QosScope(TransferContext ctx);
  QosScope(TrafficClass cls, int tenant);
  ~QosScope();

  QosScope(const QosScope&) = delete;
  QosScope& operator=(const QosScope&) = delete;

 private:
  TransferContext prev_;
  bool prev_active_;
};

// Per-operation default: installs {cls, current tenant} only when no
// context is active on this thread.  MiniCfs entry points use this so that
// an unwrapped caller still gets the right class (repair_block charges
// kRepair, encode_stripe kBackgroundEncode), while an outer QosScope — or
// an outer operation, e.g. the read inside repair_block — wins.
class OpScope {
 public:
  explicit OpScope(TrafficClass cls);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  bool installed_ = false;
  TransferContext prev_;
};

// Cross-thread hand-off: capture() in the thread that owns the operation,
// InstallScope the captured value in every helper thread that moves bytes
// for it (pipeline stages, pool tasks, replication hops).
struct Captured {
  TransferContext ctx;
  bool active = false;
};

Captured capture();

class InstallScope {
 public:
  explicit InstallScope(const Captured& captured);
  ~InstallScope();

  InstallScope(const InstallScope&) = delete;
  InstallScope& operator=(const InstallScope&) = delete;

 private:
  TransferContext prev_;
  bool prev_active_;
};

// Metric key for a class: "qos.class.<name>".
std::string class_metric(TrafficClass cls, const char* suffix);

}  // namespace ear::qos
