#include "erasure/lrc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "gf256/gf256.h"

namespace ear::erasure {

namespace {

Matrix make_lrc_generator(int k, int l, int g) {
  // Validate here: this runs before the constructor body.
  if (l < 1 || k < 1 || k % l != 0) {
    throw std::invalid_argument("LRC: k must divide evenly into l groups");
  }
  if (g < 0 || k + l + g > 255) {
    throw std::invalid_argument("LRC: invalid parity counts");
  }
  const int n = k + l + g;
  Matrix gen(n, k);
  for (int r = 0; r < k; ++r) gen.at(r, r) = 1;

  // Local parities: XOR of each group.
  const int group = k / l;
  for (int j = 0; j < l; ++j) {
    for (int c = j * group; c < (j + 1) * group; ++c) {
      gen.at(k + j, c) = 1;
    }
  }

  // Global parities: Cauchy rows over all data blocks.
  const Matrix cauchy = Matrix::cauchy(std::max(g, 1), k);
  for (int j = 0; j < g; ++j) {
    for (int c = 0; c < k; ++c) {
      gen.at(k + l + j, c) = cauchy.at(j, c);
    }
  }
  return gen;
}

// Greedy Gaussian elimination: returns indices of k linearly independent
// rows of `rows` (in scan order), or an empty vector if rank < k.
std::vector<int> independent_rows(const Matrix& rows, int k) {
  std::vector<std::vector<uint8_t>> pivots;  // reduced rows
  std::vector<int> pivot_cols;
  std::vector<int> chosen;

  for (int r = 0; r < rows.rows() && static_cast<int>(chosen.size()) < k;
       ++r) {
    std::vector<uint8_t> row(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) row[static_cast<size_t>(c)] = rows.at(r, c);

    // Reduce by existing pivots.
    for (size_t p = 0; p < pivots.size(); ++p) {
      const uint8_t factor = row[static_cast<size_t>(pivot_cols[p])];
      if (factor == 0) continue;
      for (int c = 0; c < k; ++c) {
        row[static_cast<size_t>(c)] = gf::add(
            row[static_cast<size_t>(c)],
            gf::mul(factor, pivots[p][static_cast<size_t>(c)]));
      }
    }

    // Find the new pivot column.
    int col = -1;
    for (int c = 0; c < k; ++c) {
      if (row[static_cast<size_t>(c)] != 0) {
        col = c;
        break;
      }
    }
    if (col < 0) continue;  // dependent row

    // Normalize so the pivot element is 1, then keep the pivot set in
    // reduced form (zero at every other pivot's column) so one reduction
    // pass per candidate suffices.
    const uint8_t inv = gf::inv(row[static_cast<size_t>(col)]);
    for (int c = 0; c < k; ++c) {
      row[static_cast<size_t>(c)] = gf::mul(row[static_cast<size_t>(c)], inv);
    }
    for (auto& pivot : pivots) {
      const uint8_t factor = pivot[static_cast<size_t>(col)];
      if (factor == 0) continue;
      for (int c = 0; c < k; ++c) {
        pivot[static_cast<size_t>(c)] =
            gf::add(pivot[static_cast<size_t>(c)],
                    gf::mul(factor, row[static_cast<size_t>(c)]));
      }
    }
    pivots.push_back(std::move(row));
    pivot_cols.push_back(col);
    chosen.push_back(r);
  }
  if (static_cast<int>(chosen.size()) < k) chosen.clear();
  return chosen;
}

}  // namespace

LRCCode::LRCCode(int k, int local_groups, int global_parities)
    : k_(k), l_(local_groups), g_(global_parities),
      generator_(make_lrc_generator(k, local_groups, global_parities)) {
  if (l_ < 1 || k_ % l_ != 0) {
    throw std::invalid_argument("LRC: k must divide evenly into l groups");
  }
  if (g_ < 0 || n() > 255) {
    throw std::invalid_argument("LRC: invalid parity counts");
  }
  std::vector<int> parity_rows;
  for (int r = k_; r < n(); ++r) parity_rows.push_back(r);
  parity_coeffs_ = generator_.select_rows(parity_rows);
}

int LRCCode::group_of(int block_id) const {
  assert(block_id >= 0 && block_id < n());
  if (block_id < k_) return block_id / group_size();
  if (block_id < k_ + l_) return block_id - k_;
  return -1;
}

void LRCCode::encode(const std::vector<BlockView>& data,
                     const std::vector<MutBlockView>& parity) const {
  encode_chunk(data, parity, 0, data.front().size());
}

void LRCCode::encode_chunk(const std::vector<BlockView>& data,
                           const std::vector<MutBlockView>& parity,
                           size_t offset, size_t len) const {
  assert(static_cast<int>(data.size()) == k_);
  assert(static_cast<int>(parity.size()) == l_ + g_);
  apply_rows(parity_coeffs_, data, parity, offset, len);
}

std::vector<int> LRCCode::repair_plan(int lost_id) const {
  assert(lost_id >= 0 && lost_id < n());
  std::vector<int> plan;
  const int group = group_of(lost_id);
  if (group >= 0) {
    // Read the rest of the local group plus its local parity.
    for (int d = group * group_size(); d < (group + 1) * group_size(); ++d) {
      if (d != lost_id) plan.push_back(d);
    }
    if (lost_id != k_ + group) plan.push_back(k_ + group);
    return plan;
  }
  // Global parity: recompute from all data blocks.
  for (int d = 0; d < k_; ++d) plan.push_back(d);
  return plan;
}

void LRCCode::repair(int lost_id, const std::vector<BlockView>& sources,
                     MutBlockView out) const {
  const std::vector<int> plan = repair_plan(lost_id);
  assert(sources.size() == plan.size());

  if (group_of(lost_id) >= 0) {
    // XOR relation: lost = sum of the rest of the group (incl. parity).
    std::fill(out.begin(), out.end(), uint8_t{0});
    for (const BlockView& src : sources) gf::xor_add(src, out);
    return;
  }
  // Global parity: re-encode its generator row over the data blocks.
  apply_rows(generator_.select_rows({lost_id}), sources, {out}, 0,
             out.size());
}

bool LRCCode::reconstruct(const std::vector<int>& available_ids,
                          const std::vector<BlockView>& available,
                          const std::vector<int>& wanted_ids,
                          const std::vector<MutBlockView>& out) const {
  assert(available.size() == available_ids.size());
  assert(wanted_ids.size() == out.size());

  const Matrix rows = generator_.select_rows(available_ids);
  const std::vector<int> chosen = independent_rows(rows, k_);
  if (chosen.empty()) return false;

  std::vector<int> chosen_ids;
  std::vector<BlockView> chosen_blocks;
  for (const int idx : chosen) {
    chosen_ids.push_back(available_ids[static_cast<size_t>(idx)]);
    chosen_blocks.push_back(available[static_cast<size_t>(idx)]);
  }
  const Matrix decode = generator_.select_rows(chosen_ids).inverted();
  if (decode.rows() == 0) return false;
  const Matrix coeffs = generator_.select_rows(wanted_ids).multiply(decode);
  apply_rows(coeffs, chosen_blocks, out, 0, chosen_blocks.front().size());
  return true;
}

}  // namespace ear::erasure
