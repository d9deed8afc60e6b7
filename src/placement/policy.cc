#include "placement/policy.h"

#include <algorithm>

#include "placement/replica_layout.h"

namespace ear {

int PlacementPolicy::count_cross_rack_downloads(
    const Topology& topo, NodeId encoder,
    const std::vector<std::vector<NodeId>>& replicas) {
  const RackId encoder_rack = topo.rack_of(encoder);
  int cross = 0;
  for (const auto& nodes : replicas) {
    bool local = false;
    for (const NodeId n : nodes) {
      if (topo.rack_of(n) == encoder_rack) {
        local = true;
        break;
      }
    }
    if (!local) ++cross;
  }
  return cross;
}

std::vector<std::vector<NodeId>> PlacementPolicy::live_copies(
    const std::vector<std::vector<NodeId>>& replicas, const NodeDown& down) {
  std::vector<std::vector<NodeId>> live = replicas;
  if (down) {
    for (auto& nodes : live) std::erase_if(nodes, down);
  }
  return live;
}

NodeId PlacementPolicy::draw_live_node(const Topology& topo, RackId rack,
                                       const NodeDown& down, Rng& rng) {
  const bool anywhere = rack == kInvalidRack;
  const auto draw = [&] {
    return anywhere ? random_node(topo, rng)
                    : random_node_in_rack(topo, rack, rng);
  };
  if (!down) return draw();
  const NodeId first = anywhere ? 0 : topo.rack_first_node(rack);
  const NodeId end =
      first + (anywhere ? topo.node_count() : topo.rack_size(rack));
  bool any_up = false;
  for (NodeId n = first; n < end && !any_up; ++n) any_up = !down(n);
  if (!any_up) return kInvalidNode;
  NodeId node;
  do {
    node = draw();
  } while (down(node));
  return node;
}

}  // namespace ear
