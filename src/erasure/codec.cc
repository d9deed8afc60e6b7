#include "erasure/codec.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "erasure/clay.h"
#include "erasure/hitchhiker.h"

namespace ear::erasure {

const char* family_name(CodecFamily family) {
  switch (family) {
    case CodecFamily::kRS:
      return "rs";
    case CodecFamily::kLRC:
      return "lrc";
    case CodecFamily::kCRS:
      return "crs";
    case CodecFamily::kClay:
      return "clay";
    case CodecFamily::kHitchhiker:
      return "hitchhiker";
  }
  return "unknown";
}

std::vector<SubRange> RepairSource::ranges(Bytes block_size, int alpha) const {
  const Bytes sub = block_size / static_cast<Bytes>(alpha);
  std::vector<SubRange> out;
  for (const int z : sub_blocks) {
    const Bytes offset = static_cast<Bytes>(z) * sub;
    if (!out.empty() && out.back().offset + out.back().len == offset) {
      out.back().len += sub;  // coalesce adjacent sub-blocks into one read
    } else {
      out.push_back({offset, sub});
    }
  }
  return out;
}

int RepairPlan::total_units() const {
  int units = 0;
  for (const RepairSource& s : sources) {
    units += static_cast<int>(s.sub_blocks.size());
  }
  return units;
}

Bytes RepairPlan::bytes_read(Bytes block_size) const {
  Bytes total = 0;
  for (const RepairSource& s : sources) total += s.bytes(block_size, alpha);
  return total;
}

void ErasureCodec::encode(const std::vector<BlockView>& data,
                          const std::vector<MutBlockView>& parity) const {
  const size_t size = data.empty() ? 0 : data.front().size();
  encode_chunk(data, parity, 0, size / static_cast<size_t>(alpha()));
}

void ErasureCodec::apply_plan_chunk(const RepairPlan& plan,
                                    const std::vector<BlockView>& units,
                                    MutBlockView out_block, size_t offset,
                                    size_t len) {
  assert(static_cast<int>(units.size()) == plan.total_units());
  assert(plan.coeffs.rows() == plan.alpha);
  assert(plan.coeffs.cols() == plan.total_units());
  const size_t sub = out_block.size() / static_cast<size_t>(plan.alpha);
  std::vector<MutBlockView> outs;
  outs.reserve(static_cast<size_t>(plan.alpha));
  for (int r = 0; r < plan.alpha; ++r) {
    outs.push_back(out_block.subspan(static_cast<size_t>(r) * sub, sub));
  }
  apply_rows(plan.coeffs, units, outs, offset, len);
}

void ErasureCodec::apply_plan(const RepairPlan& plan,
                              const std::vector<BlockView>& units,
                              MutBlockView out_block) {
  apply_plan_chunk(plan, units, out_block,
                   0, units.empty() ? 0 : units.front().size());
}

// -------------------------------------------------------------------- RS

bool RsCodec::encode_schedule(Matrix* out) const {
  Matrix rows(m(), k());
  for (int j = 0; j < m(); ++j) {
    for (int i = 0; i < k(); ++i) {
      rows.at(j, i) = code_.generator().at(k() + j, i);
    }
  }
  *out = rows;
  return true;
}

bool RsCodec::plan_repair(int lost_id, const std::vector<int>& available_ids,
                          RepairPlan* plan) const {
  if (static_cast<int>(available_ids.size()) < k()) return false;
  std::vector<int> chosen(available_ids.begin(),
                          available_ids.begin() + k());
  Matrix coeffs;
  if (!code_.plan_reconstruct(chosen, {lost_id}, &coeffs)) return false;
  plan->lost_id = lost_id;
  plan->alpha = 1;
  plan->sources.clear();
  for (const int id : chosen) plan->sources.push_back({id, {0}});
  plan->coeffs = coeffs;
  return true;
}

// ------------------------------------------------------------------- LRC

bool LrcCodec::encode_schedule(Matrix* out) const {
  Matrix rows(m(), k());
  for (int j = 0; j < m(); ++j) {
    for (int i = 0; i < k(); ++i) {
      rows.at(j, i) = code_.generator().at(k() + j, i);
    }
  }
  *out = rows;
  return true;
}

bool LrcCodec::plan_repair(int lost_id, const std::vector<int>& available_ids,
                           RepairPlan* plan) const {
  const std::vector<int> needed = code_.repair_plan(lost_id);
  for (const int id : needed) {
    if (std::find(available_ids.begin(), available_ids.end(), id) ==
        available_ids.end()) {
      return false;  // the cheap plan needs every named source live
    }
  }
  // Local repair (data or local parity): XOR of the group; global parity:
  // its generator row over the k data blocks.
  Matrix coeffs(1, static_cast<int>(needed.size()));
  const bool global = lost_id >= code_.k() + code_.l();
  for (size_t s = 0; s < needed.size(); ++s) {
    coeffs.at(0, static_cast<int>(s)) =
        global ? code_.generator().at(lost_id, needed[s]) : uint8_t{1};
  }
  plan->lost_id = lost_id;
  plan->alpha = 1;
  plan->sources.clear();
  for (const int id : needed) plan->sources.push_back({id, {0}});
  plan->coeffs = coeffs;
  return true;
}

bool LrcCodec::reconstruct(const std::vector<int>& available_ids,
                           const std::vector<BlockView>& available,
                           const std::vector<int>& wanted_ids,
                           const std::vector<MutBlockView>& out,
                           std::string* why) const {
  if (code_.reconstruct(available_ids, available, wanted_ids, out)) {
    return true;
  }
  if (why != nullptr) {
    std::string ids;
    for (const int id : available_ids) {
      if (!ids.empty()) ids += ",";
      ids += std::to_string(id);
    }
    *why = "unrecoverable LRC(" + std::to_string(code_.k()) + "," +
           std::to_string(code_.l()) + "," + std::to_string(code_.g()) +
           ") pattern for available_ids=[" + ids + "]";
  }
  return false;
}

// ------------------------------------------------------------------- CRS

void CrsCodec::encode_chunk(const std::vector<BlockView>& data,
                            const std::vector<MutBlockView>& parity,
                            size_t offset, size_t len) const {
  assert(offset == 0 && (data.empty() || len == data.front().size()) &&
         "CRS packets span the whole block; only full-window encode");
  (void)offset;
  (void)len;
  code_.encode(data, parity);
}

bool CrsCodec::plan_repair(int, const std::vector<int>&, RepairPlan*) const {
  return false;  // packet schedule is bit-matrix XOR; no byte-wise rows
}

bool CrsCodec::reconstruct(const std::vector<int>& available_ids,
                           const std::vector<BlockView>& available,
                           const std::vector<int>& wanted_ids,
                           const std::vector<MutBlockView>& out,
                           std::string* why) const {
  if (code_.reconstruct(available_ids, available, wanted_ids, out)) {
    return true;
  }
  if (why != nullptr) {
    std::string ids;
    for (const int id : available_ids) {
      if (!ids.empty()) ids += ",";
      ids += std::to_string(id);
    }
    *why = "CRS(" + std::to_string(code_.n()) + "," +
           std::to_string(code_.k()) +
           ") reconstruction failed for available_ids=[" + ids + "]";
  }
  return false;
}

// --------------------------------------------------------------- factory

std::unique_ptr<ErasureCodec> make_codec(CodecFamily family, int n, int k,
                                         Construction construction) {
  switch (family) {
    case CodecFamily::kRS:
      return std::make_unique<RsCodec>(n, k, construction);
    case CodecFamily::kLRC: {
      const int m = n - k;
      if (m < 3 || k % 2 != 0) {
        throw std::invalid_argument(
            "LRC needs n - k >= 3 and even k for the (l=2, g=m-2) split");
      }
      return std::make_unique<LrcCodec>(k, 2, m - 2);
    }
    case CodecFamily::kCRS:
      throw std::invalid_argument(
          "CRS is a packet code; not constructible as a cluster codec");
    case CodecFamily::kClay:
      return std::make_unique<ClayCode>(n, k, construction);
    case CodecFamily::kHitchhiker:
      return std::make_unique<HitchhikerCode>(n, k, construction);
  }
  throw std::invalid_argument("unknown codec family");
}

}  // namespace ear::erasure
