#include "sim/cluster.h"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "placement/ear.h"
#include "placement/monitor.h"
#include "placement/replica_layout.h"
#include "sim/encode_flow.h"

namespace ear::sim {

namespace {
// Virtual-time trace tracks: flow lanes occupy the low tids, encode
// processes get their own rows starting here.
constexpr int kEncodeTrackBase = 100;

int encode_track(int proc_id) { return kEncodeTrackBase + proc_id; }
}  // namespace

ClusterSim::ClusterSim(const SimConfig& config)
    : config_(config),
      topo_(config.racks, config.nodes_per_rack),
      engine_(),
      network_(engine_, topo_, config.net),
      policy_(config.use_ear
                  ? make_encoding_aware_replication(topo_, config.placement,
                                                    config.seed)
                  : make_random_replication(topo_, config.placement,
                                            config.seed)),
      rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {}

ClusterSim::~ClusterSim() = default;

SimResult ClusterSim::run() {
  // ---- Pre-place the stripes to be encoded (they were written long before
  // the simulated window; their write traffic is not part of the run).
  // Writers rotate round-robin over the nodes from one seeded start, as the
  // testbed's pre-load does: a uniformly loaded ingest tier, which also
  // balances EAR's core racks.
  const int target_stripes =
      config_.encode_processes * config_.stripes_per_process;
  NodeId writer = random_node(topo_, rng_);
  while (static_cast<int>(policy_->sealed_stripes().size()) < target_stripes) {
    policy_->place_block(next_block_id_++, writer);
    writer = (writer + 1) % topo_.node_count();
  }
  stripes_ = policy_->sealed_stripes();
  stripes_.resize(static_cast<size_t>(target_stripes));
  plans_.reserve(stripes_.size());
  for (const StripeId id : stripes_) {
    plans_.push_back(policy_->plan_encoding(id));
  }

  // ---- Traffic generators.
  if (config_.write_rate > 0) schedule_next_write();
  if (config_.background_rate > 0) schedule_next_background();

  // ---- Encoding fleet starts at encode_start.
  engine_.schedule_at(config_.encode_start, [this] {
    result_.encode_begin = engine_.now();
    processes_running_ = config_.encode_processes;
    for (int p = 0; p < config_.encode_processes; ++p) {
      if (obs::trace_enabled()) {
        obs::set_sim_track_name(encode_track(p),
                                "encode-proc-" + std::to_string(p));
      }
      start_stripe(p);
    }
  });

  engine_.run();

  // ---- Final metrics.
  result_.stripes_encoded = static_cast<int>(stripes_.size());
  const Seconds encode_time = result_.encode_end - result_.encode_begin;
  if (encode_time > 0) {
    const double encoded_mb =
        to_mb(config_.block_size) * config_.placement.code.k *
        static_cast<double>(stripes_.size());
    result_.encode_throughput_mbps = encoded_mb / encode_time;
    result_.write_throughput_mbps /= encode_time;  // accumulated MB -> MB/s
  }
  result_.cross_rack_bytes = network_.cross_rack_bytes();
  result_.intra_rack_bytes = network_.intra_rack_bytes();
  if (const auto* ear_policy =
          dynamic_cast<const EncodingAwareReplication*>(policy_.get())) {
    result_.mean_layout_iterations =
        static_cast<double>(ear_policy->total_layout_iterations()) /
        static_cast<double>(ear_policy->total_blocks_placed());
  }
  return result_;
}

// --------------------------------------------------------------- writes

void ClusterSim::schedule_next_write() {
  engine_.schedule_in(rng_.exponential(1.0 / config_.write_rate),
                      [this] { generate_write(); });
}

void ClusterSim::generate_write() {
  if (generators_stopped_) return;
  schedule_next_write();

  const NodeId writer = random_node(topo_, rng_);
  const BlockPlacement placement =
      policy_->place_block(next_block_id_++, writer);
  const Seconds issued = engine_.now();

  // HDFS write pipeline: writer -> replica2 -> replica3 -> ...  The hops
  // stream concurrently; the request completes when every hop has delivered
  // the full block.
  const auto& replicas = placement.replicas;
  const int hops = static_cast<int>(replicas.size()) - 1;
  auto complete = [this, issued] {
    const Seconds response = engine_.now() - issued;
    ++result_.writes_completed;
    if (issued < config_.encode_start) {
      result_.write_response_before.add(response);
    } else {
      result_.write_response_during.add(response);
    }
    if (engine_.now() >= config_.encode_start && !encoding_done_) {
      // Accumulate MB completed during the encoding window; converted to
      // MB/s at the end of run().
      result_.write_throughput_mbps += to_mb(config_.block_size);
    }
  };
  if (hops <= 0) {
    engine_.schedule_in(0.0, complete);
    return;
  }
  auto remaining = std::make_shared<int>(hops);
  for (int h = 0; h < hops; ++h) {
    network_.start_transfer(replicas[static_cast<size_t>(h)],
                            replicas[static_cast<size_t>(h + 1)],
                            config_.block_size, [remaining, complete] {
                              if (--*remaining == 0) complete();
                            });
  }
}

// ----------------------------------------------------------- background

void ClusterSim::schedule_next_background() {
  engine_.schedule_in(rng_.exponential(1.0 / config_.background_rate),
                      [this] { generate_background(); });
}

void ClusterSim::generate_background() {
  if (generators_stopped_) return;
  schedule_next_background();

  const NodeId src = random_node(topo_, rng_);
  NodeId dst;
  if (rng_.bernoulli(config_.background_cross_fraction)) {
    do {
      dst = random_node(topo_, rng_);
    } while (topo_.same_rack(src, dst));
  } else {
    do {
      dst = random_node_in_rack(topo_, topo_.rack_of(src), rng_);
    } while (dst == src && topo_.rack_size(topo_.rack_of(src)) > 1);
  }
  const auto size = static_cast<Bytes>(std::max(
      1.0, rng_.exponential(static_cast<double>(config_.background_mean_size))));
  network_.start_transfer(src, dst, size, [] {});
}

// -------------------------------------------------------------- encoding

// One of the `encode_processes` parallel encoding workers takes the next
// un-encoded stripe and runs the three-step encoding operation of §II-A:
// download k data blocks, upload n - k parity blocks (sim/encode_flow.h),
// delete redundant replicas (free).
void ClusterSim::start_stripe(int proc) {
  if (next_stripe_index_ >= stripes_.size()) {
    if (--processes_running_ == 0) on_all_encoding_done();
    return;
  }
  const size_t index = next_stripe_index_++;
  const StripeInfo& stripe = policy_->stripe(stripes_[index]);
  const EncodePlan& plan = plans_[index];

  // Step (i): download one replica of each of the k data blocks, preferring
  // a local copy, then a same-rack copy, then any replica.
  const RackId encoder_rack = topo_.rack_of(plan.encoder);
  std::vector<NodeId> sources;
  sources.reserve(stripe.replicas.size());
  for (const auto& replicas : stripe.replicas) {
    NodeId src = kInvalidNode;
    for (const NodeId r : replicas) {
      if (r == plan.encoder) {
        src = r;
        break;
      }
    }
    if (src == kInvalidNode) {
      std::vector<NodeId> same_rack;
      for (const NodeId r : replicas) {
        if (topo_.rack_of(r) == encoder_rack) same_rack.push_back(r);
      }
      if (!same_rack.empty()) {
        src = same_rack[rng_.index(same_rack.size())];
      } else {
        src = replicas[rng_.index(replicas.size())];
        ++result_.encoding_cross_rack_downloads;
      }
    }
    sources.push_back(src);
  }

  // The downloads and step (ii) run on the shared executor: the direct
  // gather or the ecdag rack tree, compute, then the parity uploads.
  EncodeFlow flow;
  flow.encoder = plan.encoder;
  flow.gather = config_.ecdag_enable
                    ? ecdag_gather(sources, plan.parity, plan.encoder, topo_)
                    : direct_gather(sources, plan.encoder);
  flow.parity = plan.parity;
  flow.block_size = config_.block_size;
  flow.chunks = config_.encode_pipeline_chunks;
  flow.compute_seconds = config_.encode_compute_seconds;
  flow.trace_track = encode_track(proc);
  flow.trace_stripe = stripes_[index];
  run_encode_flow(engine_, network_, std::move(flow),
                  [this, proc, index] { finish_stripe(proc, index); });
}

void ClusterSim::finish_stripe(int proc, size_t index) {
  // Step (iii): replica deletion is metadata-only.  Record completion.
  auto complete = [this, proc] {
    result_.stripe_completions.emplace_back(
        engine_.now(),
        static_cast<int>(result_.stripe_completions.size()) + 1);
    start_stripe(proc);
  };
  if (!config_.simulate_relocation) {
    complete();
    return;
  }
  // Ablation: PlacementMonitor check + BlockMover traffic (RR pays; EAR's
  // layouts comply by construction so the plan is empty).
  const EncodePlan& plan = plans_[index];
  StripeLayout layout;
  layout.nodes = plan.kept;
  layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                      plan.parity.end());
  const PlacementMonitor monitor(topo_, config_.placement.code);
  const auto moves = monitor.plan_relocations(layout, config_.placement.c);
  if (moves.empty()) {
    complete();
    return;
  }
  result_.relocations += static_cast<int64_t>(moves.size());
  result_.relocation_bytes +=
      static_cast<int64_t>(moves.size()) * config_.block_size;
  auto left = std::make_shared<size_t>(moves.size());
  const Seconds begin = engine_.now();
  for (const auto& mv : moves) {
    network_.start_transfer(
        mv.from, mv.to, config_.block_size,
        [this, proc, index, begin, left, complete] {
          if (--*left > 0) return;
          if (obs::trace_enabled()) {
            obs::sim_complete("sim.encode.relocate", "sim.encode", begin,
                              engine_.now(), encode_track(proc),
                              {{"stripe", stripes_[index]}});
          }
          complete();
        });
  }
}

void ClusterSim::on_all_encoding_done() {
  encoding_done_ = true;
  generators_stopped_ = true;
  result_.encode_end = engine_.now();
  if (config_.repair_drill_blocks > 0) run_repair_drill();
}

// Post-encode repair drill: replay `repair_drill_blocks` single-block
// repairs through the network, each moving exactly what the codec's
// cheapest RepairPlan names per helper — not the hardcoded k-full-blocks
// model the simulator used to assume for every family.  The drill runs
// after encode_end, so encode throughput numbers are unaffected; drill
// traffic does land in the cross/intra-rack byte totals.
void ClusterSim::run_repair_drill() {
  const int n = config_.placement.code.n;
  const int k = config_.placement.code.k;
  const auto codec = erasure::make_codec(config_.codec_family, n, k);
  const Seconds drill_begin = engine_.now();
  auto remaining = std::make_shared<int>(0);
  auto transfer_done = [this, remaining, drill_begin] {
    if (--*remaining == 0) {
      result_.repair_drill_seconds = engine_.now() - drill_begin;
    }
  };

  for (int d = 0; d < config_.repair_drill_blocks; ++d) {
    const EncodePlan& plan = plans_[rng_.index(plans_.size())];
    // Post-encode stripe layout: kept data nodes then parity nodes, in
    // stripe position order.
    std::vector<NodeId> layout = plan.kept;
    layout.insert(layout.end(), plan.parity.begin(), plan.parity.end());
    const int lost = static_cast<int>(rng_.index(layout.size()));
    std::vector<int> helpers;
    for (int pos = 0; pos < static_cast<int>(layout.size()); ++pos) {
      if (pos != lost) helpers.push_back(pos);
    }
    // Rebuild destination: any node not already holding a stripe block.
    if (std::set<NodeId>(layout.begin(), layout.end()).size() >=
        static_cast<size_t>(topo_.node_count())) {
      throw std::invalid_argument(
          "repair drill: every node holds a block of stripe " +
          std::to_string(plan.stripe) + ", so no rebuild target exists");
    }
    NodeId dst = random_node(topo_, rng_);
    while (std::find(layout.begin(), layout.end(), dst) != layout.end()) {
      dst = random_node(topo_, rng_);
    }

    erasure::RepairPlan rp;
    if (codec->plan_repair(lost, helpers, &rp)) {
      for (const erasure::RepairSource& src : rp.sources) {
        const Bytes bytes = src.bytes(config_.block_size, rp.alpha);
        ++*remaining;
        result_.repair_bytes += static_cast<int64_t>(bytes);
        network_.start_transfer(layout[static_cast<size_t>(src.id)], dst,
                                bytes, transfer_done);
      }
    } else {
      // No schedule-driven plan (packet codes, degenerate patterns): the
      // whole-stripe decode ships k full blocks.
      for (int h = 0; h < k; ++h) {
        ++*remaining;
        result_.repair_bytes += static_cast<int64_t>(config_.block_size);
        network_.start_transfer(
            layout[static_cast<size_t>(helpers[static_cast<size_t>(h)])], dst,
            config_.block_size, transfer_done);
      }
    }
    ++result_.repairs_simulated;
  }
}

}  // namespace ear::sim
