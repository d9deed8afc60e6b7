// Systematic (n, k) Reed-Solomon codec over GF(2^8).
//
// A stripe holds n = k + m blocks: k original data blocks plus m parity
// blocks.  Any k of the n blocks suffice to reconstruct all k data blocks
// (the MDS property).  Two generator constructions are provided:
//
//  * kVandermonde — the construction used by HDFS-RAID / Jerasure: an n x k
//    Vandermonde matrix post-multiplied by the inverse of its top k x k
//    square, yielding a systematic generator whose every k-row subset is
//    nonsingular.
//  * kCauchy — generator [I ; C] with C a Cauchy matrix; every square
//    submatrix of a Cauchy matrix is nonsingular, which gives the MDS
//    property directly.
//
// Block indices: 0..k-1 are data blocks, k..n-1 are parity blocks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "erasure/matrix.h"

namespace ear::erasure {

enum class Construction { kVandermonde, kCauchy };

class RSCode {
 public:
  // Requires 1 <= k < n <= 255 (n - k <= 128 for Cauchy index disjointness).
  RSCode(int n, int k, Construction construction = Construction::kCauchy);

  int n() const { return n_; }
  int k() const { return k_; }
  int m() const { return n_ - k_; }
  Construction construction() const { return construction_; }

  // Full n x k systematic generator (top k rows are the identity).
  const Matrix& generator() const { return generator_; }
  // Its bottom m rows: parity r is sum_i parity_coeffs()(r, i) * data[i].
  const Matrix& parity_coeffs() const { return parity_coeffs_; }

  // Computes the m parity blocks from the k data blocks.  All blocks must
  // have equal size; parity blocks are overwritten.
  void encode(const std::vector<BlockView>& data,
              const std::vector<MutBlockView>& parity) const;

  // Incremental window API for the staged data-path pipeline: computes
  // parity bytes [offset, offset + len) from the same window of every data
  // block.  GF(2^8) row operations are bytewise, so encoding a block
  // window-by-window is byte-identical to one encode() over the whole
  // block.  encode() itself is one full-size window.
  void encode_chunk(const std::vector<BlockView>& data,
                    const std::vector<MutBlockView>& parity, size_t offset,
                    size_t len) const;

  // Precomputes the decode coefficient matrix mapping the k available
  // blocks to `wanted_ids`, so a chunked reconstruction inverts the
  // generator once, not once per window.  Returns false iff the decode
  // matrix is singular (a defect for a correct MDS construction); when
  // `why` is non-null it then receives a diagnostic naming the exact
  // `available_ids` the caller passed, so the failure is actionable
  // instead of a bare boolean.
  bool plan_reconstruct(const std::vector<int>& available_ids,
                        const std::vector<int>& wanted_ids, Matrix* coeffs,
                        std::string* why = nullptr) const;

  // Applies a plan_reconstruct() plan to one window of the available
  // blocks; chunked decode is byte-identical to a one-shot reconstruct().
  static void decode_chunk(const Matrix& coeffs,
                           const std::vector<BlockView>& available,
                           const std::vector<MutBlockView>& out,
                           size_t offset, size_t len);

  // Reconstructs the blocks listed in `wanted_ids` (any mix of data and
  // parity indices) from any k available blocks.  `available_ids` must list
  // k distinct block indices in [0, n); `available[i]` is the content of
  // block `available_ids[i]`.  Returns false iff the decode matrix is
  // singular, which cannot happen for a correct MDS construction and is
  // treated as a defect, not an expected error.  On failure `why` (when
  // non-null) carries the offending `available_ids`.
  bool reconstruct(const std::vector<int>& available_ids,
                   const std::vector<BlockView>& available,
                   const std::vector<int>& wanted_ids,
                   const std::vector<MutBlockView>& out,
                   std::string* why = nullptr) const;

  // Convenience wrapper: recover all k data blocks from any k available
  // blocks.
  bool decode_data(const std::vector<int>& available_ids,
                   const std::vector<BlockView>& available,
                   const std::vector<MutBlockView>& data_out) const;

 private:
  int n_;
  int k_;
  Construction construction_;
  Matrix generator_;      // n x k, rows 0..k-1 form the identity
  Matrix parity_coeffs_;  // bottom m rows of the generator (cached)
};

}  // namespace ear::erasure
