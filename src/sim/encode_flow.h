// The simulated stripe encode (paper §II-A, §V-B): gather the k data
// blocks at the encoder, compute the parity, upload the n - k parity
// blocks, run on the flow network as the testbed's chunk ladder
// (datapath::StagedPipeline; RapidRAID-style overlap, arXiv:1207.6744):
//
//   * chunk c's gather starts once chunk c - 1's gather is done;
//   * compute takes gathered chunks in order, compute_seconds / chunks each;
//   * parity uploads trail compute in order, one chunk at a time.
//
// Chunk c + 1 gathers while chunk c computes and chunk c - 1 uploads, so a
// stripe costs about max(gather, compute, upload) instead of their sum.
// One chunk is the serial download -> compute -> upload model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ecdag/dag.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace ear::sim {

// One unit of a chunk's gather: a disk read of the chunk at `disk`, or
// (disk == kInvalidNode) a stream of hop levels.  A level's transfers run
// in parallel; the next level starts once the whole level has delivered.
struct GatherItem {
  NodeId disk = kInvalidNode;
  std::vector<std::vector<ecdag::Hop>> levels;
};

struct EncodeFlow {
  NodeId encoder = kInvalidNode;
  std::vector<GatherItem> gather;  // non-empty; issued in order per chunk
  std::vector<NodeId> parity;      // upload targets; one on the encoder is free
  Bytes block_size = 0;
  int chunks = 1;
  Seconds compute_seconds = 0;  // per stripe, split evenly over the chunks
  // Track of the sim.encode.{download,compute,upload} spans; negative
  // leaves the run untraced.
  int trace_track = -1;
  int64_t trace_stripe = 0;
};

// The star: a disk read per source on the encoder, a one-hop stream per
// remote source, in source order.
std::vector<GatherItem> direct_gather(const std::vector<NodeId>& sources,
                                      NodeId encoder);

// The ecdag rack tree for a dense code: a rack with more data blocks than
// parity outputs sums them at an aggregator and ships one partial per
// parity block.  plan_flows' local inputs come first, as disk reads where
// they live, then one item per gather stream: its leaf -> aggregator level,
// then its aggregator -> encoder level (a store-and-forward approximation
// of the testbed executor's per-chunk relay).
std::vector<GatherItem> ecdag_gather(const std::vector<NodeId>& sources,
                                     const std::vector<NodeId>& parity,
                                     NodeId encoder, const Topology& topo);

// Starts `flow` now; `done` runs once the last parity chunk has landed.
void run_encode_flow(Engine& engine, Network& network, EncodeFlow flow,
                     std::function<void()> done);

}  // namespace ear::sim
