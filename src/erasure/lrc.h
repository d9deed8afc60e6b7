// Local Repairable Codes (LRC) — the Azure-style code family the paper's
// related-work section discusses as the main alternative direction for
// cutting recovery traffic (Huang et al., "Erasure Coding in Windows Azure
// Storage").
//
// An LRC(k, l, g) stripe has n = k + l + g blocks:
//   * k data blocks, split into l equal local groups,
//   * l local parities, one per group (XOR of the group's data blocks),
//   * g global parities (Cauchy combinations of all k data blocks).
//
// The draw: a single lost block is repaired from its local group —
// k/l blocks read instead of k — while bursts of up to g+1 failures remain
// decodable in most patterns (LRC is not MDS; decode reports failure when a
// pattern is information-theoretically unrecoverable for this construction).
//
// Block indexing: 0..k-1 data, k..k+l-1 local parities, k+l..n-1 global
// parities.
#pragma once

#include <vector>

#include "erasure/matrix.h"
#include "erasure/rs.h"

namespace ear::erasure {

class LRCCode {
 public:
  // Requires l >= 1, k % l == 0, g >= 0, and n <= 255.
  LRCCode(int k, int local_groups, int global_parities);

  int k() const { return k_; }
  int l() const { return l_; }
  int g() const { return g_; }
  int n() const { return k_ + l_ + g_; }
  int group_size() const { return k_ / l_; }

  // Local group of a block (data or local parity); -1 for global parities.
  int group_of(int block_id) const;

  // Full (n x k) generator: rows 0..k-1 identity, then local, then global.
  const Matrix& generator() const { return generator_; }

  // Computes the l + g parity blocks from the k data blocks.
  void encode(const std::vector<BlockView>& data,
              const std::vector<MutBlockView>& parity) const;

  // Parity bytes [offset, offset + len) from the same window of every data
  // block; encode() is one full-size window.
  void encode_chunk(const std::vector<BlockView>& data,
                    const std::vector<MutBlockView>& parity, size_t offset,
                    size_t len) const;

  // Blocks to read for the cheapest repair of a single lost block:
  // the lost block's local group (group_size blocks) for data and local
  // parities, k data blocks for a global parity.
  std::vector<int> repair_plan(int lost_id) const;

  // Repairs one lost block from exactly the blocks of repair_plan().
  // `sources[i]` is the content of block repair_plan()[i].
  void repair(int lost_id, const std::vector<BlockView>& sources,
              MutBlockView out) const;

  // General reconstruction: recovers `wanted_ids` from any available subset
  // whose generator rows span the data space.  Returns false when the
  // erasure pattern is unrecoverable for this construction.
  bool reconstruct(const std::vector<int>& available_ids,
                   const std::vector<BlockView>& available,
                   const std::vector<int>& wanted_ids,
                   const std::vector<MutBlockView>& out) const;

 private:
  int k_;
  int l_;
  int g_;
  Matrix generator_;
  Matrix parity_coeffs_;  // rows k..n-1 of the generator (cached)
};

}  // namespace ear::erasure
