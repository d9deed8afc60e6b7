// Link scheduling for ThrottledTransport (DESIGN.md "QoS & fair-share
// scheduling"): per-link weighted fair queuing over (traffic class, tenant)
// flows, with FIFO as its degenerate case.
//
//  * FairQueueCore — the deterministic WFQ heart: start-time/finish-time
//    virtual clock (vstart = max(V, flow's last vfinish), vfinish = vstart
//    + bytes / weight), requests granted in vfinish order with FIFO
//    tie-break.  A flow's weight is class_weight x tenant_weight.  Pure
//    state machine, no clock, no threads — qos_test drives it directly for
//    the deterministic convergence proofs.
//
//  * ClassBudget — the cluster-wide byte budget: one debt bucket per class
//    with a class_rate, shared by every link of a QosScheduler, so a class
//    spends exactly its rate however its traffic spreads over links (one
//    hot up-link may spend all of it).
//
//  * LinkScheduler — one real link: a fluid reservation timeline (a chunk
//    occupies bytes x seconds_per_byte starting no earlier than the previous
//    reservation's end) plus a FairQueueCore deciding *which* queued request
//    gets the next timeline slot.  The timeline may run at most
//    `grant_horizon` seconds ahead of real time; arrivals beyond that wait,
//    so ordering decisions bind as late as possible (that lateness is what
//    turns weight ratios into real bandwidth ratios).  With an unbounded
//    horizon and no class budgets nothing ever waits, no request enters the
//    FairQueueCore, and the link is exactly FIFO.  Work-conserving: an
//    idle link grants immediately, and any backlogged flow inherits idle
//    classes' share.  Charged requests of a capped class are admitted
//    against the ClassBudget at grant time: while the class is in debt its
//    requests are skipped — not reordered away, merely deferred — and the
//    link hands the slot to the next admissible vfinish.  A caller may pass
//    a credit, how long before now its bytes were ready (its own wake-up
//    lag, or a chain hand-off): its slot then starts up to that long before
//    its grant, never before the timeline's end (DESIGN.md
//    "Work-conserving senders").
//
//  * QosScheduler — the cluster view: all links of one transport and the
//    ClassBudget they share.
//
// Everything here decides only *when* a reservation is granted — payload
// routing and contents are untouched (invariant 11).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/debt_bucket.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "qos/qos.h"

namespace ear::qos {

struct QosConfig {
  bool enable = false;
  // Relative link share per traffic class while backlogged.  Defaults favor
  // foreground traffic 4:1 over background encode and repair.
  double class_weight[kClassCount] = {4.0, 4.0, 1.0, 1.0};
  // Per-tenant multiplier within a class (absent tenants weigh 1.0).
  // Effective flow weight = class_weight[cls] * tenant_weight[tenant].
  std::map<int, double> tenant_weight;
  // Cluster-wide rate ceiling per class in bytes/s, enforced exactly by
  // one shared ClassBudget bucket; 0 = uncapped (purely work-conserving).
  // Set class_rate[kRepair] to the repair budget: the RepairManager's own
  // bucket (repair_bandwidth) stands down while QoS is on.
  BytesPerSec class_rate[kClassCount] = {0, 0, 0, 0};
  // How far a link's reservation timeline may run ahead of real time before
  // arrivals queue in virtual-finish order.  Small = late binding (fair);
  // larger degenerates toward FIFO, and infinity is exactly FIFO (every
  // request is granted on arrival; with no class_rate, weights never
  // decide an order).
  Seconds grant_horizon = 0.002;
};

// ------------------------------------------------------------ FairQueueCore

class FairQueueCore {
 public:
  struct Request {
    uint64_t id = 0;
    int class_idx = 0;
    int tenant = 0;
    Bytes bytes = 0;
    // Whether this request draws from its class's byte budget.  A transfer
    // spanning several links charges the budget exactly once (its first
    // link); the other hops still schedule in fair order but are not
    // metered, so a serial path is not throttled once per hop.
    bool charge = true;
    double vstart = 0;
    double vfinish = 0;
  };

  explicit FairQueueCore(const QosConfig& config);

  double weight_of(const TransferContext& ctx) const;

  // Enqueues a request and returns its ticket id.
  uint64_t add(const TransferContext& ctx, Bytes bytes, bool charge);

  // Pops the first request in (vfinish, arrival) order that `admit`
  // accepts, advancing virtual time to its vstart.  Returns false when the
  // queue is empty or nothing is admissible.
  bool grant_next(const std::function<bool(const Request&)>& admit,
                  Request* out);

  bool empty() const { return queue_.empty(); }
  // Queued requests of one class (budget-deferral introspection).
  size_t class_size(int class_idx) const;

 private:
  struct FlowKey {
    int class_idx;
    int tenant;
    bool operator<(const FlowKey& o) const {
      return class_idx != o.class_idx ? class_idx < o.class_idx
                                      : tenant < o.tenant;
    }
  };

  const QosConfig config_;
  double vtime_ = 0;
  uint64_t next_id_ = 1;
  std::map<FlowKey, double> flow_vfinish_;
  // (vfinish, id) -> request; id is monotonically increasing, so equal
  // vfinish tags resolve FIFO.
  std::map<std::pair<double, uint64_t>, Request> queue_;
  size_t class_count_[kClassCount] = {0, 0, 0, 0};
};

// ------------------------------------------------------------ ClassBudget

class ClassBudget {
 public:
  using Clock = std::chrono::steady_clock;

  // One bucket per class with class_rate > 0, starting full.  The set of
  // capped classes is fixed here, so checking a class takes no lock.
  explicit ClassBudget(const QosConfig& config);

  // Debt-style admission of a charged request: an uncapped class passes
  // without a lock; a capped one passes while its tokens are positive and
  // is then charged the full request, possibly going negative.
  bool admit(int class_idx, Bytes bytes, Clock::time_point now);

  // When an admission of the class could next pass: `now` for an uncapped
  // class or a positive balance, else when the debt is repaid.
  Clock::time_point admissible_at(int class_idx, Clock::time_point now);

 private:
  std::mutex mu_;
  std::optional<DebtBucket> buckets_[kClassCount];  // engaged = capped
};

// ------------------------------------------------------------ LinkScheduler

class LinkScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  // A standalone link owns its budget; a QosScheduler's links share one.
  LinkScheduler(double seconds_per_byte, const QosConfig& config,
                std::shared_ptr<ClassBudget> budget = nullptr);

  // Blocks until the request is granted a timeline slot; returns the time
  // the reservation ends (the caller sleeps until then for a delivered
  // transfer, or not at all for injected traffic).  `charge` = this hop
  // draws from the class byte budget (one hop per transfer chunk does).
  // `credit` is how long before the call the bytes were ready: the slot
  // may start that much before the grant, never before the timeline's end,
  // so a thread's wake-up does not idle the link.
  Clock::time_point request(const TransferContext& ctx, Bytes bytes,
                            bool charge = true,
                            Clock::duration credit = Clock::duration::zero());

  // The end of the link's timeline: no new reservation starts earlier.
  Clock::time_point available_at() const;

  // Sampler interface.
  struct Sample {
    int64_t queued_bytes = 0;   // timeline backlog + waiting requests
    double busy_seconds = 0;    // cumulative reserved seconds
  };
  Sample sample(Clock::time_point now) const;

 private:
  // Grants every admissible head request while the timeline is within the
  // horizon.  Caller holds mu_.
  void try_grant_locked(Clock::time_point now);
  // Earliest instant another grant could become possible.  Caller holds mu_.
  Clock::time_point next_event_locked(Clock::time_point now);

  const double seconds_per_byte_;
  // Clock::duration::max() when unbounded; compare `available_at_ - now`
  // against it, never `now + horizon_`, which would overflow.
  const Clock::duration horizon_;
  const std::shared_ptr<ClassBudget> budget_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  FairQueueCore core_;
  struct Grant {
    bool granted = false;
    Clock::time_point end{};
    Clock::duration credit{};  // the requester's, applied at its grant
  };
  std::map<uint64_t, Grant> grants_;  // ticket -> grant state
  Clock::time_point available_at_{};
  double busy_seconds_ = 0;
  int64_t waiting_bytes_ = 0;
};

// ------------------------------------------------------------- QosScheduler

class QosScheduler {
 public:
  using Clock = LinkScheduler::Clock;

  // One LinkScheduler per entry of `seconds_per_byte` (index-compatible
  // with the transport's link table).
  QosScheduler(const std::vector<double>& seconds_per_byte,
               const QosConfig& config);

  QosScheduler(const QosScheduler&) = delete;
  QosScheduler& operator=(const QosScheduler&) = delete;

  // Blocks until granted; returns the reservation end.  Also feeds the
  // qos.class.* byte counters (charged hops only, so a transfer's bytes
  // count once) and the grant-latency histogram.  `credit` as for
  // LinkScheduler::request.
  Clock::time_point request(int link, const TransferContext& ctx, Bytes bytes,
                            bool charge = true,
                            Clock::duration credit = Clock::duration::zero());

  Clock::time_point available_at(int link) const {
    return links_[static_cast<size_t>(link)]->available_at();
  }

  LinkScheduler::Sample sample(int link, Clock::time_point now) const {
    return links_[static_cast<size_t>(link)]->sample(now);
  }

 private:
  std::vector<std::unique_ptr<LinkScheduler>> links_;

  obs::Counter* ctr_bytes_[kClassCount] = {};
  obs::Counter* ctr_grants_[kClassCount] = {};
  obs::Gauge* gauge_queued_[kClassCount] = {};
  obs::Histogram* hist_grant_latency_;
  std::mutex queued_mu_;
  int64_t queued_bytes_[kClassCount] = {0, 0, 0, 0};
};

}  // namespace ear::qos
