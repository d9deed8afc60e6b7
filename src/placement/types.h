// Shared vocabulary types for replica placement (paper §II, §III).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/topology.h"

namespace ear {

using BlockId = int64_t;
using StripeId = int64_t;

inline constexpr BlockId kInvalidBlock = -1;
inline constexpr StripeId kInvalidStripe = -1;

// Erasure code parameters: a stripe has k data blocks and n - k parity
// blocks; any k of the n blocks reconstruct the data (§II-A).
struct CodeParams {
  int n = 14;
  int k = 10;

  int m() const { return n - k; }
};

// Placement policy configuration shared by RR and EAR.
struct PlacementConfig {
  CodeParams code;

  // Replication factor r before encoding (3 in HDFS, 2 in the paper's
  // 12-machine testbed where each rack has a single node).
  int replication = 3;

  // How the r replicas spread over racks:
  //  false — HDFS default: first replica in one rack, replicas 2..r on
  //          distinct nodes of a single different rack (§II-A).
  //  true  — each replica in its own rack (Figure 13(f) variant).
  bool one_replica_per_rack = false;

  // EAR only: parameter c of §III-B — the maximum number of blocks of an
  // encoded stripe allowed in a single rack.  The stripe then tolerates
  // floor((n - k) / c) rack failures.  c = 1 reproduces Facebook's
  // n-blocks-in-n-racks policy.
  int c = 1;

  // EAR only: R' of §III-D — number of target racks that must hold all data
  // and parity blocks of a stripe after encoding.  0 means "all racks".
  // Requires target_racks >= ceil(n / c).
  int target_racks = 0;
};

// Where the r replicas of one block were put.  replicas[0] is the "first"
// replica (the core-rack copy under EAR).
struct BlockPlacement {
  BlockId block = kInvalidBlock;
  StripeId stripe = kInvalidStripe;
  std::vector<NodeId> replicas;
  // Number of layout re-draws EAR needed for this block (Theorem 1); always
  // 1 for RR.
  int iterations = 1;
};

// Assembled stripe state before encoding.
struct StripeInfo {
  StripeId id = kInvalidStripe;
  RackId core_rack = kInvalidRack;  // kInvalidRack for RR
  std::vector<BlockId> blocks;      // size <= k
  std::vector<std::vector<NodeId>> replicas;  // parallel to blocks

  bool sealed(int k) const { return static_cast<int>(blocks.size()) == k; }
};

// Complete plan for encoding one sealed stripe (§II-A's three-step encoding
// operation plus the replica-retirement decision).
struct EncodePlan {
  StripeId stripe = kInvalidStripe;
  NodeId encoder = kInvalidNode;

  // kept[i]: node that keeps the surviving replica of data block i.
  std::vector<NodeId> kept;
  // parity[j]: node that stores parity block j.
  std::vector<NodeId> parity;

  // Replica copies deleted after encoding: (block index, node), the
  // placement record's copies but the kept one.  Read by tests only: with
  // failures the kept copy may be one re-replication added, and MiniCfs
  // retires every copy the NameNode lists at the encode's commit but the
  // kept one (NamespaceShards::commit_encoded_stripe).
  std::vector<std::pair<int, NodeId>> deletions;

  // Data blocks the encoder must download from another rack (0 under EAR by
  // construction; ~k(1 - 2/R) under RR, §II-B).
  int cross_rack_downloads = 0;
  // Parity uploads that leave the encoder's rack.
  int cross_rack_parity_uploads = 0;
};

}  // namespace ear
