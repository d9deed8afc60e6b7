// Replica placement policy interface (paper §II-A / §III).
//
// A policy is driven block-by-block: the CFS calls place_block() for every
// new block written, and the policy both chooses the replica nodes and
// assembles blocks into stripes of k for later encoding.  Once a stripe is
// sealed, plan_encoding() decides the encoder node, the surviving replica of
// each data block, and the parity block locations.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "placement/types.h"
#include "topology/topology.h"

namespace ear {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual std::string name() const = 0;
  virtual const PlacementConfig& config() const = 0;
  virtual const Topology& topology() const = 0;

  // Places the replicas of a new block and assigns it to a stripe under
  // assembly.  `writer` is the node issuing the write (HDFS places the first
  // replica locally when possible); nullopt means a remote client.
  virtual BlockPlacement place_block(
      BlockId block, std::optional<NodeId> writer = std::nullopt) = 0;

  // Stripes that have accumulated k blocks and may be encoded.
  virtual std::vector<StripeId> sealed_stripes() const = 0;

  virtual const StripeInfo& stripe(StripeId id) const = 0;

  // Builds the full encoding plan for a sealed stripe.  For EAR the plan is
  // relocation-free by construction; for RR the caller may need
  // PlacementMonitor + BlockMover afterwards.
  virtual EncodePlan plan_encoding(StripeId id) = 0;

 protected:
  // Counts how many data blocks the encoder must fetch from outside its own
  // rack, given one replica set per block.
  static int count_cross_rack_downloads(
      const Topology& topo, NodeId encoder,
      const std::vector<std::vector<NodeId>>& replicas);
};

// Factory helpers.
std::unique_ptr<PlacementPolicy> make_random_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed);
std::unique_ptr<PlacementPolicy> make_encoding_aware_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed);

}  // namespace ear
