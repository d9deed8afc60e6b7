// Random replication (RR), the HDFS default policy (paper §II-A, §II-B).
//
// Each block's replica set is drawn independently: first replica on the
// writer (or a random node), remaining replicas per the HDFS rule.  Stripes
// are formed by arrival order — the RaidNode simply groups every k
// consecutive data blocks (inter-file encoding, §IV-A) — so nothing relates
// the replica layouts of blocks that will share a stripe.  This is exactly
// what causes RR's cross-rack downloads and post-encoding relocations.
#pragma once

#include <unordered_map>

#include "placement/policy.h"

namespace ear {

class RandomReplication final : public PlacementPolicy {
 public:
  RandomReplication(const Topology& topo, const PlacementConfig& config,
                    uint64_t seed);

  std::string name() const override { return "RR"; }
  const PlacementConfig& config() const override { return config_; }
  const Topology& topology() const override { return *topo_; }

  BlockPlacement place_block(BlockId block,
                             std::optional<NodeId> writer) override;
  std::vector<StripeId> sealed_stripes() const override;
  const StripeInfo& stripe(StripeId id) const override;
  EncodePlan plan_encoding(StripeId id) override;

 private:
  const Topology* topo_;
  PlacementConfig config_;
  Rng rng_;

  std::unordered_map<StripeId, StripeInfo> stripes_;
  StripeId open_stripe_ = kInvalidStripe;  // stripe currently accumulating
  StripeId next_stripe_id_ = 0;
  std::vector<StripeId> sealed_;
};

}  // namespace ear
