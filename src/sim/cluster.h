// Discrete-event CFS simulation (paper §V-B, Figure 11).
//
// Mirrors the paper's simulator structure: a PlacementManager (our
// PlacementPolicy) decides replica and encoded-block locations, a
// TrafficManager generates write / encoding / background traffic streams, and
// the Topology module (our Network) arbitrates link bandwidth.
//
// Timeline of one run:
//   t = 0 .......... write and background Poisson streams start
//   t = encode_start encoding of the pre-placed stripes starts
//                    (encode_processes parallel workers, each encoding its
//                     share of stripes sequentially)
//   encoding ends .. generators stop; the run drains remaining transfers
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "erasure/codec.h"
#include "placement/policy.h"
#include "sim/network.h"

namespace ear::sim {

struct SimConfig {
  int racks = 20;
  int nodes_per_rack = 20;
  NetConfig net{};

  PlacementConfig placement{};  // default (14,10), r = 3, c = 1
  bool use_ear = true;

  Bytes block_size = 64_MB;

  // Write stream: Poisson arrivals, one block per request (§V-B).
  double write_rate = 1.0;  // requests/s
  // Background stream: Poisson arrivals of exponentially-sized transfers.
  double background_rate = 1.0;  // requests/s
  Bytes background_mean_size = 64_MB;
  double background_cross_fraction = 0.5;  // cross:intra = 1:1

  Seconds encode_start = 30.0;
  int encode_processes = 20;
  int stripes_per_process = 50;

  // Ablation: make RR pay for the BlockMover relocations it needs after
  // encoding (the paper notes it does NOT simulate this, over-estimating
  // RR; enabling this shows the extra gap).
  bool simulate_relocation = false;

  // Parity computation time per stripe, inserted between the downloads and
  // the uploads.  The validation experiment sets this to the measured
  // Reed-Solomon encode time of the testbed; 0 models compute as free.
  Seconds encode_compute_seconds = 0.0;

  // Chunk-pipelined encode: split each block into this many chunks and
  // overlap the stages the way the testbed's StagedPipeline does — chunk
  // c + 1 downloads while chunk c computes and chunk c - 1's parity uploads
  // (sim/encode_flow.h).  1 (default) is the serial download -> compute ->
  // upload model; > 1 lets Figure 13 sweeps predict the testbed's
  // pipelined numbers.
  int encode_pipeline_chunks = 1;

  // Distributed-encode DAGs (src/ecdag/): each remote rack XOR-combines its
  // data blocks locally and ships one partial per parity block across the
  // core switch instead of every raw block, mirroring
  // CfsConfig::ecdag_enable on the testbed.  The gather of each rack runs
  // as a two-level flow (leaf -> aggregator, then aggregator -> encoder).
  // Modelled at whole-block granularity: leave encode_pipeline_chunks at 1.
  bool ecdag_enable = false;

  // Post-encode repair drill: after encoding completes, this many
  // single-block failures are drawn uniformly over the encoded stripes and
  // each one's repair traffic is replayed through the network — the
  // cheapest RepairPlan of `codec_family` decides how many bytes every
  // helper ships (sub-block ranges for Clay/Hitchhiker, a local group for
  // LRC, k full blocks for scalar RS).  0 (default) skips the drill: the
  // pre-codec simulation, exactly.  run() throws std::invalid_argument
  // when a drawn stripe has a block on every node (no rebuild target).
  int repair_drill_blocks = 0;
  erasure::CodecFamily codec_family = erasure::CodecFamily::kRS;

  uint64_t seed = 1;
};

struct SimResult {
  Seconds encode_begin = 0;
  Seconds encode_end = 0;
  int stripes_encoded = 0;

  // Total data encoded (k * block_size per stripe) / encoding duration.
  double encode_throughput_mbps = 0;
  // Write payload completed during the encoding window / its duration.
  double write_throughput_mbps = 0;

  Summary write_response_before;  // arrivals before encoding started
  Summary write_response_during;  // arrivals while encoding ran

  // (time, cumulative stripes) curve — Figure 12.
  std::vector<std::pair<Seconds, int>> stripe_completions;

  int64_t cross_rack_bytes = 0;
  int64_t intra_rack_bytes = 0;
  int64_t encoding_cross_rack_downloads = 0;  // data blocks fetched cross-rack

  // RR availability repair work (EAR: always zero).
  int64_t relocations = 0;
  int64_t relocation_bytes = 0;

  // EAR layout-retry statistics (Theorem 1); 0 for RR.
  double mean_layout_iterations = 0;

  int writes_completed = 0;

  // Repair drill (when SimConfig::repair_drill_blocks > 0).
  int repairs_simulated = 0;
  int64_t repair_bytes = 0;          // network bytes the repair plans moved
  Seconds repair_drill_seconds = 0;  // drill duration in virtual time
};

class ClusterSim {
 public:
  explicit ClusterSim(const SimConfig& config);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  // Runs the whole scenario to completion and returns the metrics.
  SimResult run();

 private:
  void generate_write();
  void schedule_next_write();
  void generate_background();
  void schedule_next_background();
  // Encoding process `proc` encodes the next stripe, or retires.
  void start_stripe(int proc);
  // The relocation ablation and completion of stripe `index`.
  void finish_stripe(int proc, size_t index);
  void on_all_encoding_done();
  void run_repair_drill();

  SimConfig config_;
  Topology topo_;
  Engine engine_;
  Network network_;
  std::unique_ptr<PlacementPolicy> policy_;
  Rng rng_;

  std::vector<StripeId> stripes_;          // stripes to encode
  std::vector<EncodePlan> plans_;          // parallel to stripes_
  size_t next_stripe_index_ = 0;
  int processes_running_ = 0;
  bool encoding_done_ = false;
  bool generators_stopped_ = false;

  BlockId next_block_id_ = 0;

  SimResult result_;
};

}  // namespace ear::sim
