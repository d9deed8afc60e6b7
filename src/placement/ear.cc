#include "placement/ear.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "flow/maxflow.h"
#include "placement/replica_layout.h"

namespace ear {

namespace {

// After this many uniform re-draws we switch to directed draws that force
// the secondary rack to each eligible rack in turn (still guaranteeing
// termination for feasible configs).  Theorem 1 bounds the expected number
// of uniform draws by (R-1)/(R-1-(i-1)/c), so 256 is far beyond the tail.
constexpr int kUniformRetries = 256;

}  // namespace

int ear_stripe_max_flow(const Topology& topo, int c,
                        const std::vector<std::vector<NodeId>>& replicas,
                        const std::vector<RackId>& eligible_racks,
                        std::vector<NodeId>* matching) {
  const int block_count = static_cast<int>(replicas.size());
  if (block_count == 0) {
    if (matching) matching->clear();
    return 0;
  }

  std::vector<bool> rack_eligible(static_cast<size_t>(topo.rack_count()),
                                  eligible_racks.empty());
  for (const RackId r : eligible_racks) {
    rack_eligible[static_cast<size_t>(r)] = true;
  }

  // Dense vertex numbering: S, blocks, then replica nodes and racks on
  // demand.
  std::unordered_map<NodeId, int> node_vertex;
  std::unordered_map<RackId, int> rack_vertex;
  int vertex_count = 1 + block_count;  // S + blocks
  for (const auto& nodes : replicas) {
    for (const NodeId n : nodes) {
      if (!rack_eligible[static_cast<size_t>(topo.rack_of(n))]) continue;
      if (node_vertex.emplace(n, 0).second) ++vertex_count;
      if (rack_vertex.emplace(topo.rack_of(n), 0).second) ++vertex_count;
    }
  }
  const int s = 0;
  const int t = vertex_count;
  ++vertex_count;

  int next = 1 + block_count;
  for (auto& [node, v] : node_vertex) v = next++;
  for (auto& [rack, v] : rack_vertex) v = next++;

  flow::MaxFlow mf(vertex_count);
  // block -> node edge ids, for matching extraction.
  std::vector<std::vector<std::pair<int, NodeId>>> block_edges(
      static_cast<size_t>(block_count));

  for (int b = 0; b < block_count; ++b) {
    mf.add_edge(s, 1 + b, 1);
    for (const NodeId n : replicas[static_cast<size_t>(b)]) {
      const auto it = node_vertex.find(n);
      if (it == node_vertex.end()) continue;  // ineligible rack
      const int edge = mf.add_edge(1 + b, it->second, 1);
      block_edges[static_cast<size_t>(b)].emplace_back(edge, n);
    }
  }
  for (const auto& [node, v] : node_vertex) {
    mf.add_edge(v, rack_vertex.at(topo.rack_of(node)), 1);
  }
  for (const auto& [rack, v] : rack_vertex) {
    (void)rack;
    mf.add_edge(v, t, c);
  }

  const auto max_flow = static_cast<int>(mf.solve(s, t));

  if (matching && max_flow == block_count) {
    matching->assign(static_cast<size_t>(block_count), kInvalidNode);
    for (int b = 0; b < block_count; ++b) {
      for (const auto& [edge, node] : block_edges[static_cast<size_t>(b)]) {
        if (mf.edge_flow(edge) > 0) {
          (*matching)[static_cast<size_t>(b)] = node;
          break;
        }
      }
      assert((*matching)[static_cast<size_t>(b)] != kInvalidNode);
    }
  }
  return max_flow;
}

EncodingAwareReplication::EncodingAwareReplication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed)
    : topo_(&topo), config_(config), rng_(seed) {
  const int n = config.code.n;
  const int c = config.c;
  if (c < 1) throw std::invalid_argument("EAR: c must be >= 1");
  // §III-B: a stripe of n blocks spread <= c per rack needs R >= n / c racks.
  const int racks_available =
      config.target_racks > 0 ? config.target_racks : topo.rack_count();
  if (racks_available * c < n) {
    throw std::invalid_argument(
        "EAR: (target) racks * c must be >= n to place a stripe");
  }
  if (config.target_racks > topo.rack_count()) {
    throw std::invalid_argument("EAR: target_racks exceeds rack count");
  }
  // Each rack must be able to host c stripe blocks on distinct nodes and
  // r-1 secondary replicas.
  for (RackId r = 0; r < topo.rack_count(); ++r) {
    if (topo.rack_size(r) < std::max(c, config.replication - 1)) {
      throw std::invalid_argument("EAR: rack too small for c / replication");
    }
  }
}

StripeId EncodingAwareReplication::open_stripe_for_core_rack(
    RackId core_rack) {
  const auto it = open_stripes_.find(core_rack);
  if (it != open_stripes_.end()) return it->second;

  StripeInfo info;
  info.id = next_stripe_id_++;
  info.core_rack = core_rack;
  const StripeId id = info.id;
  stripes_.emplace(id, std::move(info));
  open_stripes_.emplace(core_rack, id);

  // §III-D: pick R' target racks for the stripe, always including the core
  // rack, uniformly at random otherwise.
  std::vector<RackId> targets;
  if (config_.target_racks > 0) {
    targets.push_back(core_rack);
    std::vector<RackId> others;
    for (RackId r = 0; r < topo_->rack_count(); ++r) {
      if (r != core_rack) others.push_back(r);
    }
    rng_.shuffle(others);
    others.resize(static_cast<size_t>(config_.target_racks - 1));
    targets.insert(targets.end(), others.begin(), others.end());
  }
  target_racks_.emplace(id, std::move(targets));
  return id;
}

BlockPlacement EncodingAwareReplication::place_block(
    BlockId block, std::optional<NodeId> writer) {
  // The rack of the first replica becomes (or joins) the core rack (§III-A):
  // "for each data block to be written, the rack that stores the first
  // replica will become the core rack that includes the data block."
  NodeId first = writer.value_or(random_node(*topo_, rng_));
  const RackId core_rack = topo_->rack_of(first);
  const StripeId stripe_id = open_stripe_for_core_rack(core_rack);
  StripeInfo& s = stripes_.at(stripe_id);
  const std::vector<RackId>& targets = target_racks_.at(stripe_id);

  // §III-C: draw the remaining replicas randomly, re-drawing until the flow
  // graph admits a full matching.  After kUniformRetries uniform draws,
  // direct the secondary rack at each eligible rack in turn.
  BlockPlacement placement;
  placement.block = block;
  placement.stripe = stripe_id;

  std::vector<RackId> directed_racks;  // lazily built fallback order
  int attempt = 0;
  while (true) {
    ++attempt;
    // When the writer does not pin the first replica, re-drawing its node
    // within the core rack gives the layout loop another degree of freedom
    // (essential for r = 1, where there are no secondaries to re-draw).
    if (attempt > 1 && !writer.has_value()) {
      first = random_node_in_rack(*topo_, core_rack, rng_);
    }
    std::vector<NodeId> candidate;
    if (attempt <= kUniformRetries || config_.one_replica_per_rack) {
      candidate = draw_secondary_replicas(
          *topo_, config_, first, rng_, targets.empty() ? nullptr : &targets);
    } else {
      if (directed_racks.empty()) {
        for (const RackId r :
             targets.empty() ? [&] {
               std::vector<RackId> all;
               for (RackId r2 = 0; r2 < topo_->rack_count(); ++r2)
                 all.push_back(r2);
               return all;
             }()
                             : targets) {
          if (r != core_rack) directed_racks.push_back(r);
        }
        rng_.shuffle(directed_racks);
      }
      const size_t idx = static_cast<size_t>(attempt - kUniformRetries - 1);
      if (idx >= directed_racks.size()) {
        throw std::runtime_error(
            "EAR: no feasible replica layout exists for this configuration");
      }
      const RackId forced = directed_racks[idx];
      candidate.push_back(first);
      const auto picks = rng_.sample_without_replacement(
          static_cast<size_t>(topo_->rack_size(forced)),
          static_cast<size_t>(config_.replication - 1));
      for (const size_t off : picks) {
        candidate.push_back(topo_->rack_first_node(forced) +
                            static_cast<NodeId>(off));
      }
    }

    s.blocks.push_back(block);
    s.replicas.push_back(candidate);
    const int flow = ear_stripe_max_flow(*topo_, config_.c, s.replicas,
                                         targets, nullptr);
    if (flow == static_cast<int>(s.blocks.size())) {
      placement.replicas = std::move(candidate);
      break;
    }
    s.blocks.pop_back();
    s.replicas.pop_back();
    if (config_.one_replica_per_rack && attempt > kUniformRetries * 16) {
      throw std::runtime_error(
          "EAR: no feasible one-replica-per-rack layout found");
    }
  }

  placement.iterations = attempt;
  total_iterations_ += attempt;
  ++total_blocks_;

  if (s.sealed(config_.code.k)) {
    sealed_.push_back(stripe_id);
    open_stripes_.erase(core_rack);
  }
  return placement;
}

std::vector<StripeId> EncodingAwareReplication::sealed_stripes() const {
  return sealed_;
}

const StripeInfo& EncodingAwareReplication::stripe(StripeId id) const {
  return stripes_.at(id);
}

RackId EncodingAwareReplication::restore_rack(
    StripeId id, int index, NodeId lost,
    const std::vector<std::vector<NodeId>>& live) const {
  const StripeInfo& s = stripes_.at(id);
  const RackId rack = topo_->rack_of(lost);
  // The encoder downloads nothing across racks while every data block has
  // a live copy in the core rack.
  const std::vector<NodeId>& copies = live.at(static_cast<size_t>(index));
  if (rack == s.core_rack &&
      std::none_of(copies.begin(), copies.end(), [&](NodeId n) {
        return topo_->rack_of(n) == s.core_rack;
      })) {
    return rack;
  }
  // A new copy only adds edges to the flow graph: a matching the live
  // copies admit survives wherever it goes.
  const int flow =
      ear_stripe_max_flow(*topo_, config_.c, live, target_racks_.at(id));
  return flow == static_cast<int>(live.size()) ? kInvalidRack : rack;
}

const std::vector<RackId>& EncodingAwareReplication::stripe_target_racks(
    StripeId id) const {
  return target_racks_.at(id);
}

EncodePlan EncodingAwareReplication::plan_encoding(
    StripeId id, const std::vector<std::vector<NodeId>>& replicas,
    const NodeDown& down) {
  const StripeInfo& s = stripes_.at(id);
  assert(s.sealed(config_.code.k));
  const int k = config_.code.k;
  const int m = config_.code.m();
  assert(static_cast<int>(replicas.size()) == k);
  const std::vector<RackId>& targets = target_racks_.at(id);
  const std::vector<std::vector<NodeId>> live = live_copies(replicas, down);
  const auto is_down = [&down](NodeId n) { return down && down(n); };

  EncodePlan plan;
  plan.stripe = id;
  // The encoder runs inside the core rack (§III-A); every data block keeps
  // a copy there while the rack has a live node (re-replication restores a
  // lost one in its rack, failure/repair.h), so no data block crosses
  // racks.  With the whole core rack down, any live node encodes.
  plan.encoder = draw_live_node(*topo_, s.core_rack, down, rng_);
  if (plan.encoder == kInvalidNode) {
    plan.encoder = draw_live_node(*topo_, kInvalidRack, down, rng_);
  }
  if (plan.encoder == kInvalidNode) {
    throw std::runtime_error("EAR: no live node to encode stripe " +
                             std::to_string(id));
  }
  plan.cross_rack_downloads =
      count_cross_rack_downloads(*topo_, plan.encoder, live);

  // Kept replicas come from the maximum matching (§III-B) over the live
  // copies.  The placement loop guaranteed one over the placed copies; a
  // failure can take it away, and then the stripe waits for repair.
  const int flow =
      ear_stripe_max_flow(*topo_, config_.c, live, targets, &plan.kept);
  if (flow != k) {
    throw std::runtime_error(
        "EAR: the live copies of stripe " + std::to_string(id) +
        " admit no kept-replica layout");
  }

  std::vector<int> rack_load(static_cast<size_t>(topo_->rack_count()), 0);
  std::vector<bool> node_used(static_cast<size_t>(topo_->node_count()), false);
  for (const NodeId n : plan.kept) {
    ++rack_load[static_cast<size_t>(topo_->rack_of(n))];
    node_used[static_cast<size_t>(n)] = true;
  }

  const auto rack_eligible = [&](RackId r) {
    return targets.empty() ||
           std::find(targets.begin(), targets.end(), r) != targets.end();
  };

  // Locality post-pass (§III-D): when c > 1 the core rack can absorb parity
  // blocks, turning their uploads intra-rack.  Re-match blocks kept in the
  // core rack to alternative live replicas in other eligible racks with
  // spare capacity, freeing core slots for up to m parity blocks.
  if (config_.c > 1) {
    int wanted_free = m;
    for (int i = 0; i < k && wanted_free > 0; ++i) {
      const NodeId kept = plan.kept[static_cast<size_t>(i)];
      if (topo_->rack_of(kept) != s.core_rack) continue;
      for (const NodeId alt : live[static_cast<size_t>(i)]) {
        const RackId alt_rack = topo_->rack_of(alt);
        if (alt == kept || alt_rack == s.core_rack) continue;
        if (!rack_eligible(alt_rack)) continue;
        if (node_used[static_cast<size_t>(alt)]) continue;
        if (rack_load[static_cast<size_t>(alt_rack)] >= config_.c) continue;
        // Move the kept replica out of the core rack.
        plan.kept[static_cast<size_t>(i)] = alt;
        node_used[static_cast<size_t>(kept)] = false;
        node_used[static_cast<size_t>(alt)] = true;
        --rack_load[static_cast<size_t>(s.core_rack)];
        ++rack_load[static_cast<size_t>(alt_rack)];
        --wanted_free;
        break;
      }
    }
  }

  // Deletion list reflects the (possibly adjusted) matching.
  for (int i = 0; i < k; ++i) {
    for (const NodeId n : s.replicas[static_cast<size_t>(i)]) {
      if (n != plan.kept[static_cast<size_t>(i)]) {
        plan.deletions.emplace_back(i, n);
      }
    }
  }

  // Parity blocks go to racks that still have fewer than c blocks of this
  // stripe, on live nodes not already holding a stripe block (§III-B),
  // preferring the encoder's rack so the upload stays intra-rack.
  std::vector<RackId> eligible =
      targets.empty()
          ? [&] {
              std::vector<RackId> all;
              for (RackId r = 0; r < topo_->rack_count(); ++r)
                all.push_back(r);
              return all;
            }()
          : targets;

  const RackId encoder_rack = topo_->rack_of(plan.encoder);
  const auto usable = [&](NodeId n) {
    return !node_used[static_cast<size_t>(n)] && !is_down(n);
  };
  for (int j = 0; j < m; ++j) {
    // Prefer the encoder's rack (intra-rack upload) while it has spare
    // capacity, otherwise a random eligible rack with spare capacity and a
    // free live node.
    const auto rack_open = [&](RackId r) {
      if (rack_load[static_cast<size_t>(r)] >= config_.c) return false;
      const std::vector<NodeId> nodes = topo_->nodes_in_rack(r);
      return std::any_of(nodes.begin(), nodes.end(), usable);
    };
    std::vector<RackId> open;
    if (rack_eligible(encoder_rack) && rack_open(encoder_rack)) {
      open.push_back(encoder_rack);
    } else {
      for (const RackId r : eligible) {
        if (rack_open(r)) open.push_back(r);
      }
    }
    if (open.empty()) {
      throw std::runtime_error("EAR: no rack left for a parity block");
    }
    const RackId rack = open[rng_.index(open.size())];
    std::vector<NodeId> free = topo_->nodes_in_rack(rack);
    std::erase_if(free, [&](NodeId n) { return !usable(n); });
    const NodeId node = free[rng_.index(free.size())];
    node_used[static_cast<size_t>(node)] = true;
    ++rack_load[static_cast<size_t>(rack)];
    plan.parity.push_back(node);
    if (rack != encoder_rack) ++plan.cross_rack_parity_uploads;
  }
  return plan;
}

std::unique_ptr<PlacementPolicy> make_encoding_aware_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed) {
  return std::make_unique<EncodingAwareReplication>(topo, config, seed);
}

}  // namespace ear
