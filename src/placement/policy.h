// Replica placement policy interface (paper §II-A / §III).
//
// A policy is driven block-by-block: the CFS calls place_block() for every
// new block written, and the policy both chooses the replica nodes and
// assembles blocks into stripes of k for later encoding.  Once a stripe is
// sealed, plan_encoding() decides the encoder node, the surviving replica of
// each data block, and the parity block locations.
#pragma once

#include <functional>
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

  // True for a node that is down.  An empty test means every node is up.
  using NodeDown = std::function<bool(NodeId)>;

  // Builds the full encoding plan for a sealed stripe from `replicas`, the
  // current copies of its data blocks (parallel to stripe(id).blocks: the
  // NameNode's locations, copies re-replication added included), avoiding
  // the nodes `down` names.  The encoder, every kept copy and every parity
  // node are up.  For EAR the plan is relocation-free by construction;
  // for RR the caller may need PlacementMonitor + BlockMover afterwards.
  // Throws std::runtime_error when no live layout exists (a data block
  // has no live copy, or EAR's live copies admit no kept-replica
  // matching).  With every node up and `replicas` equal to the placement
  // record, the plan and every RNG draw are the same as the record's.
  virtual EncodePlan plan_encoding(
      StripeId id, const std::vector<std::vector<NodeId>>& replicas,
      const NodeDown& down) = 0;

  // The plan of a cluster with no failures: the placement record, every
  // node up.
  EncodePlan plan_encoding(StripeId id) {
    return plan_encoding(id, stripe(id).replicas, {});
  }

  // The rack a lost copy of data block `index` of the unencoded stripe `id`
  // (the copy was on node `lost`) must be re-replicated in for the
  // stripe's plan to keep what placement promised, given the live copies
  // `live` of its placed blocks (parallel to stripe(id).blocks);
  // kInvalidRack when any rack will do.  RR promises nothing.
  virtual RackId restore_rack(
      StripeId /*id*/, int /*index*/, NodeId /*lost*/,
      const std::vector<std::vector<NodeId>>& /*live*/) const {
    return kInvalidRack;
  }

 protected:
  // Counts how many data blocks the encoder must fetch from outside its own
  // rack, given one replica set per block.
  static int count_cross_rack_downloads(
      const Topology& topo, NodeId encoder,
      const std::vector<std::vector<NodeId>>& replicas);

  // `replicas` without the copies on nodes `down` names.
  static std::vector<std::vector<NodeId>> live_copies(
      const std::vector<std::vector<NodeId>>& replicas, const NodeDown& down);

  // Draws a uniformly random node of `rack` (every node of the cluster when
  // `rack` is kInvalidRack), re-drawing down ones; kInvalidNode when every
  // such node is down.  With every node up this is one draw, the same as
  // random_node_in_rack / random_node.
  static NodeId draw_live_node(const Topology& topo, RackId rack,
                               const NodeDown& down, Rng& rng);
};

// Factory helpers.
std::unique_ptr<PlacementPolicy> make_random_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed);
std::unique_ptr<PlacementPolicy> make_encoding_aware_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed);

}  // namespace ear
