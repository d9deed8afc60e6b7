// Encoding-aware replication (EAR) — the paper's contribution (§III).
//
// Invariants maintained per stripe:
//  * every data block keeps its first replica in the stripe's core rack, so
//    an encoder in the core rack downloads zero data blocks across racks;
//  * after each block's replicas are placed, the flow graph of §III-B admits
//    a maximum flow equal to the number of blocks placed so far, i.e. a
//    system of "kept" replicas exists with <= 1 block per node and <= c
//    blocks per rack — so encoding never needs relocation;
//  * replica draws are otherwise uniformly random (same layout shape as RR),
//    re-drawn until the flow constraint holds (§III-C, Theorem 1).
//
// With config.target_racks = R' > 0, the §III-D variant is used: each stripe
// picks R' target racks (core rack included) and all post-encode blocks must
// live there, trading rack-level fault tolerance for lower cross-rack
// recovery traffic.
#pragma once

#include <unordered_map>

#include "placement/policy.h"

namespace ear {

class EncodingAwareReplication final : public PlacementPolicy {
 public:
  EncodingAwareReplication(const Topology& topo, const PlacementConfig& config,
                           uint64_t seed);

  std::string name() const override { return "EAR"; }
  const PlacementConfig& config() const override { return config_; }
  const Topology& topology() const override { return *topo_; }

  BlockPlacement place_block(BlockId block,
                             std::optional<NodeId> writer) override;
  std::vector<StripeId> sealed_stripes() const override;
  const StripeInfo& stripe(StripeId id) const override;
  EncodePlan plan_encoding(StripeId id) override;

  // Target racks of a stripe (empty when config.target_racks == 0).
  const std::vector<RackId>& stripe_target_racks(StripeId id) const;

  // Total replica-layout draws across all place_block calls (Theorem 1
  // measurements).
  int64_t total_layout_iterations() const { return total_iterations_; }
  int64_t total_blocks_placed() const { return total_blocks_; }

 private:
  StripeId open_stripe_for_core_rack(RackId core_rack);

  const Topology* topo_;
  PlacementConfig config_;
  Rng rng_;

  std::unordered_map<StripeId, StripeInfo> stripes_;
  std::unordered_map<StripeId, std::vector<RackId>> target_racks_;
  std::unordered_map<RackId, StripeId> open_stripes_;  // core rack -> stripe
  StripeId next_stripe_id_ = 0;
  std::vector<StripeId> sealed_;
  int64_t total_iterations_ = 0;
  int64_t total_blocks_ = 0;
};

// Flow-graph feasibility check of §III-B, exposed for tests and analysis.
//
// Computes the maximum flow of the graph
//   S -> block(cap 1) -> replica node(cap 1 into its rack) -> rack(cap c) -> T
// restricted to `eligible_racks` (empty = all racks).  If `matching` is
// non-null and the max flow equals the number of blocks, *matching receives
// the kept node of each block.
int ear_stripe_max_flow(const Topology& topo, int c,
                        const std::vector<std::vector<NodeId>>& replicas,
                        const std::vector<RackId>& eligible_racks,
                        std::vector<NodeId>* matching = nullptr);

}  // namespace ear
