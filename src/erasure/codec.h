// ErasureCodec — the sub-packetized codec interface every byte-moving layer
// codes against (see DESIGN.md "Vector codecs").
//
// A scalar codec (RS/LRC/CRS) treats a block as one symbol: repairing one
// block fetches k full blocks.  Vector codes split every block into `alpha`
// equal sub-blocks and repair a single lost block from *sub-ranges* of the
// helpers — Clay/MSR coupled-layer codes fetch (n-1) * alpha/q sub-blocks
// (vs k * alpha for RS) and Hitchhiker piggyback codes roughly half a block
// from each helper.  ErasureCodec makes sub-packetization first-class:
//
//   * alpha()        — sub-blocks per block (1 for scalar codes);
//   * encode_chunk() — windowed encode, offsets sub-block-relative, so the
//     staged pipeline streams vector codes exactly like scalar ones;
//   * plan_repair()  — a RepairPlan naming, per helper block, the sub-block
//     indices to fetch plus a dense GF(2^8) coefficient schedule mapping
//     the fetched units to the lost block's alpha sub-blocks;
//   * reconstruct()  — whole-block fallback for patterns the cheap plan
//     cannot serve (multi-failures, insufficient helpers).
//
// Invariant: for the scalar adapters alpha() == 1 and every code path
// (encode, plan execution, reconstruct) is byte-identical to calling the
// wrapped RSCode/LRCCode/CRSCode directly — consumers switched from RSCode
// to ErasureCodec must not change a single output byte at alpha == 1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "erasure/crs.h"
#include "erasure/lrc.h"
#include "erasure/matrix.h"
#include "erasure/rs.h"

namespace ear::erasure {

// Stripe codec family, chosen by CfsConfig and SimConfig.
enum class CodecFamily : uint8_t {
  kRS = 0,
  kLRC = 1,
  kCRS = 2,
  kClay = 3,
  kHitchhiker = 4,
};

const char* family_name(CodecFamily family);

// A contiguous byte range inside one stored block.
struct SubRange {
  Bytes offset = 0;
  Bytes len = 0;
};

// One helper block of a RepairPlan: which sub-blocks to fetch from it.
struct RepairSource {
  int id = -1;                  // stripe position of the helper block
  std::vector<int> sub_blocks;  // ascending sub-block indices to fetch

  // The byte ranges to read from the stored block, adjacent sub-blocks
  // coalesced (a scalar source collapses to one [0, block_size) range).
  std::vector<SubRange> ranges(Bytes block_size, int alpha) const;
  Bytes bytes(Bytes block_size, int alpha) const {
    return static_cast<Bytes>(sub_blocks.size()) *
           (block_size / static_cast<Bytes>(alpha));
  }
};

// Recipe for rebuilding one lost block: fetch the named sub-blocks of each
// source, then out_sub[r] = sum_u coeffs(r, u) * unit[u], where the units
// are the fetched sub-blocks in source order (sources[0].sub_blocks first).
struct RepairPlan {
  int lost_id = -1;
  int alpha = 1;
  std::vector<RepairSource> sources;
  Matrix coeffs;  // alpha rows x total_units() cols

  int total_units() const;
  Bytes bytes_read(Bytes block_size) const;  // network bytes the plan moves
};

class ErasureCodec {
 public:
  virtual ~ErasureCodec() = default;

  virtual CodecFamily family() const = 0;
  const char* name() const { return family_name(family()); }
  virtual int n() const = 0;
  virtual int k() const = 0;
  int m() const { return n() - k(); }
  // Sub-blocks per block; block sizes handed to this codec must be
  // divisible by alpha().
  virtual int alpha() const { return 1; }
  Bytes sub_block_size(Bytes block_size) const {
    return block_size / static_cast<Bytes>(alpha());
  }

  // Computes parity bytes [offset, offset + len) *of every sub-block* from
  // the matching windows of the data blocks (offset/len are sub-block
  // relative; at alpha == 1 this is the classic whole-block window).  Every
  // codec here is bytewise within a sub-block position, so chunked encoding
  // is byte-identical to one full-window call.
  virtual void encode_chunk(const std::vector<BlockView>& data,
                            const std::vector<MutBlockView>& parity,
                            size_t offset, size_t len) const = 0;
  void encode(const std::vector<BlockView>& data,
              const std::vector<MutBlockView>& parity) const;

  // The (m * alpha) x (k * alpha) generator over sub-block units: parity
  // unit (j, z) = row j * alpha + z over data units i * alpha + y.  Feeds
  // the ecdag builder per-sub-block coefficient rows.  Returns false for
  // families that cannot express one (CRS bit-matrix packets).
  virtual bool encode_schedule(Matrix* /*out*/) const { return false; }

  // Cheapest single-block repair given the live block ids.  Returns false
  // when the family has no schedule-driven plan for this pattern (callers
  // fall back to reconstruct() over k full blocks).
  virtual bool plan_repair(int lost_id, const std::vector<int>& available_ids,
                           RepairPlan* plan) const = 0;

  // Whole-block reconstruction of `wanted_ids` from the available blocks.
  // Returns false when the pattern is unrecoverable; `why` (when non-null)
  // then names the available ids.
  virtual bool reconstruct(const std::vector<int>& available_ids,
                           const std::vector<BlockView>& available,
                           const std::vector<int>& wanted_ids,
                           const std::vector<MutBlockView>& out,
                           std::string* why = nullptr) const = 0;

  // Applies one window of a RepairPlan: units[u] is the u-th fetched
  // sub-block (full sub-block view, plan order); rebuilds bytes
  // [offset, offset + len) of every sub-block of the lost block into
  // `out_block` (a full block view).  Zero coefficients are skipped.
  static void apply_plan_chunk(const RepairPlan& plan,
                               const std::vector<BlockView>& units,
                               MutBlockView out_block, size_t offset,
                               size_t len);
  static void apply_plan(const RepairPlan& plan,
                         const std::vector<BlockView>& units,
                         MutBlockView out_block);
};

// ---------------------------------------------------------------- scalar
// Adapters making the seed codecs the alpha == 1 special case.

class RsCodec final : public ErasureCodec {
 public:
  RsCodec(int n, int k, Construction construction = Construction::kCauchy)
      : code_(n, k, construction) {}

  CodecFamily family() const override { return CodecFamily::kRS; }
  int n() const override { return code_.n(); }
  int k() const override { return code_.k(); }
  const RSCode& rs() const { return code_; }

  void encode_chunk(const std::vector<BlockView>& data,
                    const std::vector<MutBlockView>& parity, size_t offset,
                    size_t len) const override {
    code_.encode_chunk(data, parity, offset, len);
  }
  bool encode_schedule(Matrix* out) const override;
  bool plan_repair(int lost_id, const std::vector<int>& available_ids,
                   RepairPlan* plan) const override;
  bool reconstruct(const std::vector<int>& available_ids,
                   const std::vector<BlockView>& available,
                   const std::vector<int>& wanted_ids,
                   const std::vector<MutBlockView>& out,
                   std::string* why = nullptr) const override {
    return code_.reconstruct(available_ids, available, wanted_ids, out, why);
  }

 private:
  RSCode code_;
};

class LrcCodec final : public ErasureCodec {
 public:
  // LRC(k, l, g) with n = k + l + g; ids 0..k-1 data, then local, then
  // global parities — MiniCfs treats all n - k trailing ids as parity.
  LrcCodec(int k, int local_groups, int global_parities)
      : code_(k, local_groups, global_parities) {}

  CodecFamily family() const override { return CodecFamily::kLRC; }
  int n() const override { return code_.n(); }
  int k() const override { return code_.k(); }
  const LRCCode& lrc() const { return code_; }

  void encode_chunk(const std::vector<BlockView>& data,
                    const std::vector<MutBlockView>& parity, size_t offset,
                    size_t len) const override {
    code_.encode_chunk(data, parity, offset, len);
  }
  bool encode_schedule(Matrix* out) const override;
  bool plan_repair(int lost_id, const std::vector<int>& available_ids,
                   RepairPlan* plan) const override;
  bool reconstruct(const std::vector<int>& available_ids,
                   const std::vector<BlockView>& available,
                   const std::vector<int>& wanted_ids,
                   const std::vector<MutBlockView>& out,
                   std::string* why = nullptr) const override;

 private:
  LRCCode code_;
};

class CrsCodec final : public ErasureCodec {
 public:
  CrsCodec(int n, int k) : code_(n, k) {}

  CodecFamily family() const override { return CodecFamily::kCRS; }
  int n() const override { return code_.n(); }
  int k() const override { return code_.k(); }
  const CRSCode& crs() const { return code_; }

  // CRS packets span the whole block, so only the full window is
  // encodable; the bit-matrix schedule is not expressible as byte-wise
  // GF(2^8) rows, hence no encode_schedule / plan_repair.
  void encode_chunk(const std::vector<BlockView>& data,
                    const std::vector<MutBlockView>& parity, size_t offset,
                    size_t len) const override;
  bool plan_repair(int lost_id, const std::vector<int>& available_ids,
                   RepairPlan* plan) const override;
  bool reconstruct(const std::vector<int>& available_ids,
                   const std::vector<BlockView>& available,
                   const std::vector<int>& wanted_ids,
                   const std::vector<MutBlockView>& out,
                   std::string* why = nullptr) const override;

 private:
  CRSCode code_;
};

// Builds a codec from the (n, k) the cluster configs carry.  kLRC splits
// the m parities as l = 2 local groups + g = m - 2 globals (requires
// k % 2 == 0 and m >= 3); kCRS is not constructible here (packet codes
// never ran under MiniCfs).  Throws std::invalid_argument on parameters
// the family cannot satisfy.
std::unique_ptr<ErasureCodec> make_codec(
    CodecFamily family, int n, int k,
    Construction construction = Construction::kCauchy);

}  // namespace ear::erasure
