#include "erasure/hitchhiker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "gf256/gf256.h"

namespace ear::erasure {

HitchhikerCode::HitchhikerCode(int n, int k, Construction construction)
    : base_(n, k, construction) {
  if (n - k < 2) {
    throw std::invalid_argument(
        "Hitchhiker needs n - k >= 2 (one clean parity plus piggybacked)");
  }
  // Contiguous groups as even as possible: data i joins group i*(m-1)/k.
  groups_.resize(static_cast<size_t>(m() - 1));
  for (int i = 0; i < k; ++i) {
    groups_[static_cast<size_t>(i * (m() - 1) / k)].push_back(i);
  }
}

int HitchhikerCode::group_of(int data_id) const {
  return data_id * (m() - 1) / k();
}

void HitchhikerCode::encode_chunk(const std::vector<BlockView>& data,
                                  const std::vector<MutBlockView>& parity,
                                  size_t offset, size_t len) const {
  assert(static_cast<int>(data.size()) == k());
  assert(static_cast<int>(parity.size()) == m());
  const size_t sub = data.front().size() / 2;
  assert(data.front().size() % 2 == 0);

  // a-half: f(a); b-half: f(b), then the group piggybacks for j >= 1.
  const Matrix& f = base_.parity_coeffs();
  for (int half = 0; half < 2; ++half) {
    apply_rows(f, data, parity, static_cast<size_t>(half) * sub + offset, len);
  }
  for (int j = 1; j < m(); ++j) {
    MutBlockView out =
        parity[static_cast<size_t>(j)].subspan(sub + offset, len);
    for (const int i : groups_[static_cast<size_t>(j - 1)]) {
      gf::xor_add(data[static_cast<size_t>(i)].subspan(offset, len), out);
    }
  }
}

bool HitchhikerCode::encode_schedule(Matrix* out) const {
  // Units: data block i contributes columns 2i (a-half) and 2i+1 (b-half);
  // parity j rows 2j and 2j+1.
  Matrix rows(2 * m(), 2 * k());
  for (int j = 0; j < m(); ++j) {
    for (int i = 0; i < k(); ++i) {
      rows.at(2 * j, 2 * i) = gen(j, i);
      rows.at(2 * j + 1, 2 * i + 1) = gen(j, i);
    }
    if (j >= 1) {
      for (const int i : groups_[static_cast<size_t>(j - 1)]) {
        rows.at(2 * j + 1, 2 * i) = gf::add(rows.at(2 * j + 1, 2 * i), 1);
      }
    }
  }
  *out = rows;
  return true;
}

bool HitchhikerCode::plan_repair(int lost_id,
                                 const std::vector<int>& available_ids,
                                 RepairPlan* plan) const {
  if (lost_id < 0 || lost_id >= n()) return false;
  std::vector<bool> present(static_cast<size_t>(n()), false);
  for (const int id : available_ids) {
    if (id >= 0 && id < n()) present[static_cast<size_t>(id)] = true;
  }
  const auto have = [&present](int id) {
    return present[static_cast<size_t>(id)];
  };

  if (lost_id >= k()) {
    // Parity: no piggyback shortcut; re-encode from the k data blocks.
    for (int i = 0; i < k(); ++i) {
      if (!have(i)) return false;
    }
    const int j = lost_id - k();
    plan->lost_id = lost_id;
    plan->alpha = 2;
    plan->sources.clear();
    Matrix coeffs(2, 2 * k());
    for (int i = 0; i < k(); ++i) {
      plan->sources.push_back({i, {0, 1}});
      coeffs.at(0, 2 * i) = gen(j, i);
      coeffs.at(1, 2 * i + 1) = gen(j, i);
    }
    if (j >= 1) {
      for (const int i : groups_[static_cast<size_t>(j - 1)]) {
        coeffs.at(1, 2 * i) = gf::add(coeffs.at(1, 2 * i), 1);
      }
    }
    plan->coeffs = std::move(coeffs);
    return true;
  }

  // Lost data block i in group S_j (parity index j = group + 1): fetch the
  // b-halves of every other data block and parity 0 (decode substripe b),
  // parity j's b-half and the a-halves of S_j \ {i} (peel the piggyback).
  const int j = group_of(lost_id) + 1;
  const auto& group = groups_[static_cast<size_t>(j - 1)];
  for (int i = 0; i < k(); ++i) {
    if (i != lost_id && !have(i)) return false;
  }
  if (!have(k()) || !have(k() + j)) return false;

  // Substripe-b decode plan over positions {data != lost} + {parity 0}.
  std::vector<int> b_ids;
  for (int i = 0; i < k(); ++i) {
    if (i != lost_id) b_ids.push_back(i);
  }
  b_ids.push_back(k());
  Matrix b_rows;  // row 0: b_lost; row 1: f_j(b)
  if (!base_.plan_reconstruct(b_ids, {lost_id, k() + j}, &b_rows)) {
    return false;
  }

  // Sources in ascending id order; units in source order (a before b).
  plan->lost_id = lost_id;
  plan->alpha = 2;
  plan->sources.clear();
  std::vector<int> a_unit(static_cast<size_t>(n()), -1);
  std::vector<int> b_unit(static_cast<size_t>(n()), -1);
  int unit = 0;
  for (int id = 0; id < n(); ++id) {
    if (id == lost_id) continue;
    const bool in_group =
        id < k() && std::find(group.begin(), group.end(), id) != group.end();
    if (id < k()) {
      RepairSource src{id, {}};
      if (in_group) {
        src.sub_blocks = {0, 1};
        a_unit[static_cast<size_t>(id)] = unit++;
      } else {
        src.sub_blocks = {1};
      }
      b_unit[static_cast<size_t>(id)] = unit++;
      plan->sources.push_back(std::move(src));
    } else if (id == k() || id == k() + j) {
      b_unit[static_cast<size_t>(id)] = unit++;
      plan->sources.push_back({id, {1}});
    }
  }

  Matrix coeffs(2, unit);
  // Row 1 (b-half): the substripe-b decode row for b_lost.
  for (size_t s = 0; s < b_ids.size(); ++s) {
    coeffs.at(1, b_unit[static_cast<size_t>(b_ids[s])]) =
        b_rows.at(0, static_cast<int>(s));
  }
  // Row 0 (a-half): parity_j.b + f_j(b) + XOR of the group's other a's.
  coeffs.at(0, b_unit[static_cast<size_t>(k() + j)]) = 1;
  for (size_t s = 0; s < b_ids.size(); ++s) {
    const int u = b_unit[static_cast<size_t>(b_ids[s])];
    coeffs.at(0, u) = gf::add(coeffs.at(0, u), b_rows.at(1, static_cast<int>(s)));
  }
  for (const int i : group) {
    if (i != lost_id) {
      const int u = a_unit[static_cast<size_t>(i)];
      coeffs.at(0, u) = gf::add(coeffs.at(0, u), 1);
    }
  }
  plan->coeffs = std::move(coeffs);
  return true;
}

bool HitchhikerCode::reconstruct(const std::vector<int>& available_ids,
                                 const std::vector<BlockView>& available,
                                 const std::vector<int>& wanted_ids,
                                 const std::vector<MutBlockView>& out,
                                 std::string* why) const {
  assert(available.size() == available_ids.size());
  assert(wanted_ids.size() == out.size());
  if (static_cast<int>(available_ids.size()) < k()) {
    if (why != nullptr) {
      *why = "Hitchhiker(" + std::to_string(n()) + "," +
             std::to_string(k()) + ") needs k available blocks, got " +
             std::to_string(available_ids.size());
    }
    return false;
  }
  const std::vector<int> chosen(available_ids.begin(),
                                available_ids.begin() + k());
  const size_t size = available.front().size();
  assert(size % 2 == 0);
  const size_t sub = size / 2;

  // Substripe a is a clean RS codeword (every parity's a-half is f_j(a)):
  // decode all data a-halves first.
  std::vector<BlockView> a_views;
  for (int s = 0; s < k(); ++s) {
    a_views.push_back(available[static_cast<size_t>(s)].subspan(0, sub));
  }
  std::vector<std::vector<uint8_t>> a_data(
      static_cast<size_t>(k()), std::vector<uint8_t>(sub));
  std::vector<MutBlockView> a_out(a_data.begin(), a_data.end());
  std::vector<int> all_data(static_cast<size_t>(k()));
  for (int i = 0; i < k(); ++i) all_data[static_cast<size_t>(i)] = i;
  if (!base_.reconstruct(chosen, a_views, all_data, a_out, why)) return false;

  // Peel the piggybacks off the available parity b-halves, then decode
  // substripe b from the same k positions.
  std::vector<std::vector<uint8_t>> piggy(
      static_cast<size_t>(m()), std::vector<uint8_t>(sub, 0));
  for (int j = 1; j < m(); ++j) {
    for (const int i : groups_[static_cast<size_t>(j - 1)]) {
      gf::xor_add(a_data[static_cast<size_t>(i)],
                  piggy[static_cast<size_t>(j)]);
    }
  }
  std::vector<std::vector<uint8_t>> b_cleaned;  // keeps spans alive
  b_cleaned.reserve(static_cast<size_t>(k()));  // no reallocation: spans stay valid
  std::vector<BlockView> b_views;
  for (int s = 0; s < k(); ++s) {
    const int id = chosen[static_cast<size_t>(s)];
    const BlockView b = available[static_cast<size_t>(s)].subspan(sub, sub);
    if (id < k()) {
      b_views.push_back(b);
    } else {
      std::vector<uint8_t> cleaned(b.begin(), b.end());
      gf::xor_add(piggy[static_cast<size_t>(id - k())], cleaned);
      b_cleaned.push_back(std::move(cleaned));
      b_views.push_back(b_cleaned.back());
    }
  }
  std::vector<std::vector<uint8_t>> b_data(
      static_cast<size_t>(k()), std::vector<uint8_t>(sub));
  std::vector<MutBlockView> b_out(b_data.begin(), b_data.end());
  if (!base_.reconstruct(chosen, b_views, all_data, b_out, why)) return false;

  // Assemble the wanted blocks from the decoded data substripes.
  std::vector<BlockView> a_in(a_data.begin(), a_data.end());
  std::vector<BlockView> b_in(b_data.begin(), b_data.end());
  std::vector<int> parity_rows;
  std::vector<MutBlockView> parity_out;
  for (size_t w = 0; w < wanted_ids.size(); ++w) {
    const int id = wanted_ids[w];
    MutBlockView dst = out[w];
    assert(dst.size() == size);
    if (id < k()) {
      std::copy(a_data[static_cast<size_t>(id)].begin(),
                a_data[static_cast<size_t>(id)].end(), dst.begin());
      std::copy(b_data[static_cast<size_t>(id)].begin(),
                b_data[static_cast<size_t>(id)].end(),
                dst.begin() + static_cast<ptrdiff_t>(sub));
    } else {
      parity_rows.push_back(id - k());
      parity_out.push_back(dst);
    }
  }
  if (!parity_rows.empty()) {
    // Re-encode the wanted parities from the decoded data, one apply_rows
    // per half, then put the piggybacks back on their b-halves.
    const Matrix f = base_.parity_coeffs().select_rows(parity_rows);
    const auto halves = [&parity_out, sub](size_t at) {
      std::vector<MutBlockView> h;
      for (const MutBlockView dst : parity_out) {
        h.push_back(dst.subspan(at, sub));
      }
      return h;
    };
    apply_rows(f, a_in, halves(0), 0, sub);
    const std::vector<MutBlockView> b_halves = halves(sub);
    apply_rows(f, b_in, b_halves, 0, sub);
    for (size_t p = 0; p < parity_rows.size(); ++p) {
      const int j = parity_rows[p];
      if (j >= 1) gf::xor_add(piggy[static_cast<size_t>(j)], b_halves[p]);
    }
  }
  return true;
}

}  // namespace ear::erasure
