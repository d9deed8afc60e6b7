#include "erasure/clay.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "gf256/gf256.h"

namespace ear::erasure {

namespace {

// dst += c * src over symbolic coefficient vectors.
void add_scaled(std::vector<uint8_t>& dst, uint8_t c,
                const std::vector<uint8_t>& src) {
  assert(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= gf::mul(c, src[i]);
}

void scale(std::vector<uint8_t>& vec, uint8_t c) {
  for (auto& b : vec) b = gf::mul(c, b);
}

int checked_q(int n, int k) {
  if (k < 1 || n <= k) throw std::invalid_argument("Clay needs 1 <= k < n");
  if (n - k < 2) {
    throw std::invalid_argument("Clay needs n - k >= 2 (pairwise coupling)");
  }
  return n - k;
}

int checked_alpha(int q, int t, int ext_n) {
  if (ext_n > 255) {
    throw std::invalid_argument("Clay extended code exceeds GF(2^8) ids");
  }
  int alpha = 1;
  for (int i = 0; i < t; ++i) {
    alpha *= q;
    if (alpha > 256) {
      throw std::invalid_argument(
          "Clay sub-packetization q^ceil(n/q) exceeds 256");
    }
  }
  return alpha;
}

}  // namespace

ClayCode::ClayCode(int n, int k, Construction construction)
    : n_(n),
      k_(k),
      q_(checked_q(n, k)),
      t_((n + q_ - 1) / q_),
      ext_n_(q_ * t_),
      ext_k_(ext_n_ - q_),
      alpha_(checked_alpha(q_, t_, ext_n_)),
      gamma_(2),
      inv_det_(gf::inv(gf::add(1, gf::mul(gamma_, gamma_)))),
      base_(ext_n_, ext_k_, construction) {}

int ClayCode::zdigit(int z, int y) const {
  int p = 1;
  for (int i = 0; i < y; ++i) p *= q_;
  return (z / p) % q_;
}

int ClayCode::zset(int z, int y, int x) const {
  int p = 1;
  for (int i = 0; i < y; ++i) p *= q_;
  return z + (x - zdigit(z, y)) * p;
}

std::vector<std::vector<ClayCode::Vec>> ClayCode::decode_layered(
    const std::vector<bool>& erased,
    const std::vector<std::vector<Vec>>& c_in, int veclen) const {
  std::vector<int> erased_ids, avail_ids;
  for (int v = 0; v < ext_n_; ++v) {
    (erased[static_cast<size_t>(v)] ? erased_ids : avail_ids).push_back(v);
  }
  assert(static_cast<int>(erased_ids.size()) <= q_);
  assert(static_cast<int>(avail_ids.size()) >= ext_k_);
  const std::vector<int> chosen(avail_ids.begin(),
                                avail_ids.begin() + ext_k_);
  Matrix pd;  // one plane-decode matrix serves every plane
  const bool ok = base_.plan_reconstruct(chosen, erased_ids, &pd);
  assert(ok && "base MDS plane decode cannot be singular");
  if (!ok) return {};

  // Planes ordered by intersection score: symbols whose partner plane has
  // one fewer erased unpaired symbol are uncoupled via the already-decoded
  // partner, so ascending order makes every dependency available.
  std::vector<int> order(static_cast<size_t>(alpha_));
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> score(static_cast<size_t>(alpha_), 0);
  for (int z = 0; z < alpha_; ++z) {
    for (const int e : erased_ids) {
      if (zdigit(z, node_y(e)) == node_x(e)) ++score[static_cast<size_t>(z)];
    }
  }
  std::stable_sort(order.begin(), order.end(), [&score](int a, int b) {
    return score[static_cast<size_t>(a)] < score[static_cast<size_t>(b)];
  });

  std::vector<std::vector<Vec>> U(
      static_cast<size_t>(alpha_),
      std::vector<Vec>(static_cast<size_t>(ext_n_)));
  for (const int z : order) {
    auto& Uz = U[static_cast<size_t>(z)];
    for (const int v : avail_ids) {
      const int x = node_x(v), y = node_y(v);
      const Vec& cv = c_in[static_cast<size_t>(v)][static_cast<size_t>(z)];
      if (zdigit(z, y) == x) {
        Uz[static_cast<size_t>(v)] = cv;  // unpaired: C == U
        continue;
      }
      const int p = y * q_ + zdigit(z, y);
      const int w = zset(z, y, x);
      if (!erased[static_cast<size_t>(p)]) {
        // Both coupled symbols known: invert the 2x2 pair transform.
        Vec u = cv;
        add_scaled(u, gamma_,
                   c_in[static_cast<size_t>(p)][static_cast<size_t>(w)]);
        scale(u, inv_det_);
        Uz[static_cast<size_t>(v)] = std::move(u);
      } else {
        // Partner erased: its plane w has a lower intersection score and is
        // fully decoded, so U = C + gamma * U_partner.
        Vec u = cv;
        add_scaled(u, gamma_, U[static_cast<size_t>(w)][static_cast<size_t>(p)]);
        Uz[static_cast<size_t>(v)] = std::move(u);
      }
    }
    for (int r = 0; r < static_cast<int>(erased_ids.size()); ++r) {
      Vec u(static_cast<size_t>(veclen), 0);
      for (int j = 0; j < ext_k_; ++j) {
        add_scaled(u, pd.at(r, j),
                   Uz[static_cast<size_t>(chosen[static_cast<size_t>(j)])]);
      }
      Uz[static_cast<size_t>(erased_ids[static_cast<size_t>(r)])] =
          std::move(u);
    }
  }

  // Re-couple: C at the erased nodes from the fully known U workspace.
  std::vector<std::vector<Vec>> out(
      erased_ids.size(), std::vector<Vec>(static_cast<size_t>(alpha_)));
  for (size_t r = 0; r < erased_ids.size(); ++r) {
    const int v = erased_ids[r];
    const int x = node_x(v), y = node_y(v);
    for (int z = 0; z < alpha_; ++z) {
      Vec c = U[static_cast<size_t>(z)][static_cast<size_t>(v)];
      if (zdigit(z, y) != x) {
        const int p = y * q_ + zdigit(z, y);
        const int w = zset(z, y, x);
        add_scaled(c, gamma_,
                   U[static_cast<size_t>(w)][static_cast<size_t>(p)]);
      }
      out[r][static_cast<size_t>(z)] = std::move(c);
    }
  }
  return out;
}

const ClayCode::Sparse& ClayCode::encode_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!encode_rows_.rows.empty()) return encode_rows_;

  const int veclen = k_ * alpha_;
  std::vector<bool> erased(static_cast<size_t>(ext_n_), false);
  for (int v = ext_k_; v < ext_n_; ++v) erased[static_cast<size_t>(v)] = true;
  std::vector<std::vector<Vec>> c_in(
      static_cast<size_t>(ext_n_),
      std::vector<Vec>(static_cast<size_t>(alpha_),
                       Vec(static_cast<size_t>(veclen), 0)));
  for (int i = 0; i < k_; ++i) {
    for (int z = 0; z < alpha_; ++z) {
      c_in[static_cast<size_t>(i)][static_cast<size_t>(z)]
          [static_cast<size_t>(i * alpha_ + z)] = 1;
    }
  }
  const auto cout = decode_layered(erased, c_in, veclen);

  Sparse rows;
  rows.cols = veclen;
  rows.rows.resize(static_cast<size_t>(m() * alpha_));
  for (int j = 0; j < m(); ++j) {
    for (int z = 0; z < alpha_; ++z) {
      auto& terms = rows.rows[static_cast<size_t>(j * alpha_ + z)];
      const Vec& row = cout[static_cast<size_t>(j)][static_cast<size_t>(z)];
      for (int u = 0; u < veclen; ++u) {
        if (row[static_cast<size_t>(u)] != 0) {
          terms.emplace_back(u, row[static_cast<size_t>(u)]);
        }
      }
    }
  }
  encode_rows_ = std::move(rows);
  return encode_rows_;
}

void ClayCode::apply_sparse(const Sparse& rows,
                            const std::vector<BlockView>& units,
                            const std::vector<MutBlockView>& outs,
                            size_t offset, size_t len) const {
  assert(outs.size() == rows.rows.size());
  // Each sparse row becomes one multi-source kernel sweep over its units.
  // Deliberately not one apply_rows/mul_rows call: the encode rows of
  // neighbouring sub-block planes read different units, so a fused 4-row
  // group loads ~3.3x the units any one row needs (Clay(14,10): 30.6 live
  // terms per row, 101.5 per group) and multiplies every one into all four
  // rows.  Measured with the gfni kernel on a 4-vCPU AVX-512 VM, densified
  // fused encode ran at 0.5 GB/s against 1.9 GB/s for these per-row sweeps
  // (4.6 vs 8.2 GB/s at Clay(8,6)).  Clay's repair plans have near-identical
  // row supports and do go through the fused path
  // (ErasureCodec::apply_plan_chunk).
  std::vector<const uint8_t*> srcs;
  std::vector<uint8_t> coeffs;
  for (size_t r = 0; r < rows.rows.size(); ++r) {
    MutBlockView out = outs[r].subspan(offset, len);
    srcs.clear();
    coeffs.clear();
    srcs.reserve(rows.rows[r].size());
    coeffs.reserve(rows.rows[r].size());
    for (const auto& [u, coeff] : rows.rows[r]) {
      srcs.push_back(units[static_cast<size_t>(u)].subspan(offset, len).data());
      coeffs.push_back(coeff);
    }
    gf::mul_add_multi(srcs, coeffs, out, /*accumulate=*/false);
  }
}

void ClayCode::encode_chunk(const std::vector<BlockView>& data,
                            const std::vector<MutBlockView>& parity,
                            size_t offset, size_t len) const {
  assert(static_cast<int>(data.size()) == k_);
  assert(static_cast<int>(parity.size()) == m());
  const size_t sub = data.front().size() / static_cast<size_t>(alpha_);
  assert(data.front().size() % static_cast<size_t>(alpha_) == 0);

  std::vector<BlockView> units;
  units.reserve(static_cast<size_t>(k_ * alpha_));
  for (int i = 0; i < k_; ++i) {
    for (int z = 0; z < alpha_; ++z) {
      units.push_back(data[static_cast<size_t>(i)].subspan(
          static_cast<size_t>(z) * sub, sub));
    }
  }
  std::vector<MutBlockView> outs;
  outs.reserve(static_cast<size_t>(m() * alpha_));
  for (int j = 0; j < m(); ++j) {
    for (int z = 0; z < alpha_; ++z) {
      outs.push_back(parity[static_cast<size_t>(j)].subspan(
          static_cast<size_t>(z) * sub, sub));
    }
  }
  apply_sparse(encode_rows(), units, outs, offset, len);
}

bool ClayCode::encode_schedule(Matrix* out) const {
  const Sparse& rows = encode_rows();
  Matrix dense(m() * alpha_, rows.cols);
  for (size_t r = 0; r < rows.rows.size(); ++r) {
    for (const auto& [u, coeff] : rows.rows[r]) {
      dense.at(static_cast<int>(r), u) = coeff;
    }
  }
  *out = dense;
  return true;
}

bool ClayCode::plan_repair(int lost_id,
                           const std::vector<int>& available_ids,
                           RepairPlan* plan) const {
  if (lost_id < 0 || lost_id >= n_) return false;
  // The MSR repair contacts every surviving block (d = n - 1 helpers).
  std::vector<bool> present(static_cast<size_t>(n_), false);
  for (const int id : available_ids) {
    if (id >= 0 && id < n_) present[static_cast<size_t>(id)] = true;
  }
  for (int id = 0; id < n_; ++id) {
    if (id != lost_id && !present[static_cast<size_t>(id)]) return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = plans_.find(lost_id); it != plans_.end()) {
    *plan = it->second;
    return true;
  }

  const int beta = alpha_ / q_;
  const int v0 = node_of(lost_id);
  const int x0 = node_x(v0), y0 = node_y(v0);

  // Repair planes: those whose y0-digit selects the lost node's column row.
  std::vector<int> zr;
  std::vector<int> zr_index(static_cast<size_t>(alpha_), -1);
  for (int z = 0; z < alpha_; ++z) {
    if (zdigit(z, y0) == x0) {
      zr_index[static_cast<size_t>(z)] = static_cast<int>(zr.size());
      zr.push_back(z);
    }
  }
  assert(static_cast<int>(zr.size()) == beta);

  // Units: helpers in ascending id order, beta repair-plane sub-blocks each.
  std::vector<int> helpers;
  std::vector<int> helper_index(static_cast<size_t>(ext_n_), -1);
  for (int id = 0; id < n_; ++id) {
    if (id == lost_id) continue;
    helper_index[static_cast<size_t>(node_of(id))] =
        static_cast<int>(helpers.size());
    helpers.push_back(id);
  }
  const int veclen = static_cast<int>(helpers.size()) * beta;
  const auto cvec = [&](int v, int z) {
    Vec vec(static_cast<size_t>(veclen), 0);
    const int h = helper_index[static_cast<size_t>(v)];
    if (h >= 0) {  // virtual blocks contribute the zero vector
      vec[static_cast<size_t>(h * beta +
                              zr_index[static_cast<size_t>(z)])] = 1;
    }
    return vec;
  };

  // Per repair plane: uncouple the helper columns, then MDS-decode the
  // plane for the whole lost column's U symbols.
  std::vector<int> avail_nodes, wanted_nodes;
  for (int v = 0; v < ext_n_; ++v) {
    (node_y(v) == y0 ? wanted_nodes : avail_nodes).push_back(v);
  }
  Matrix pd;
  const bool ok = base_.plan_reconstruct(avail_nodes, wanted_nodes, &pd);
  assert(ok && "base MDS plane decode cannot be singular");
  if (!ok) return false;

  std::vector<std::vector<Vec>> u_col(
      zr.size(), std::vector<Vec>(static_cast<size_t>(q_)));
  for (size_t zi = 0; zi < zr.size(); ++zi) {
    const int z = zr[zi];
    std::vector<Vec> u_avail;
    u_avail.reserve(avail_nodes.size());
    for (const int v : avail_nodes) {
      const int x = node_x(v), y = node_y(v);
      if (zdigit(z, y) == x) {
        u_avail.push_back(cvec(v, z));
        continue;
      }
      const int p = y * q_ + zdigit(z, y);
      const int w = zset(z, y, x);  // stays a repair plane (digit y0 fixed)
      Vec u = cvec(v, z);
      add_scaled(u, gamma_, cvec(p, w));
      scale(u, inv_det_);
      u_avail.push_back(std::move(u));
    }
    for (int xi = 0; xi < q_; ++xi) {
      Vec u(static_cast<size_t>(veclen), 0);
      for (size_t j = 0; j < u_avail.size(); ++j) {
        add_scaled(u, pd.at(xi, static_cast<int>(j)), u_avail[j]);
      }
      u_col[zi][static_cast<size_t>(xi)] = std::move(u);
    }
  }

  // Assemble the lost block's alpha rows: repair planes re-couple to C
  // directly (the lost symbol is unpaired there); the other planes recover
  // U via the coupling partner fetched from the helper in the lost column.
  Matrix coeffs(alpha_, veclen);
  const uint8_t inv_gamma = gf::inv(gamma_);
  for (int z = 0; z < alpha_; ++z) {
    Vec row(static_cast<size_t>(veclen), 0);
    if (zr_index[static_cast<size_t>(z)] >= 0) {
      row = u_col[static_cast<size_t>(
          zr_index[static_cast<size_t>(z)])][static_cast<size_t>(x0)];
    } else {
      const int x = zdigit(z, y0);
      const int w = zset(z, y0, x0);
      const int zi = zr_index[static_cast<size_t>(w)];
      const int p = y0 * q_ + x;
      // C(v0; z) = gamma^-1 * C(p; w) + (gamma^-1 + gamma) * U(p; w)
      add_scaled(row, inv_gamma, cvec(p, w));
      add_scaled(row, gf::add(inv_gamma, gamma_),
                 u_col[static_cast<size_t>(zi)][static_cast<size_t>(x)]);
    }
    for (int u = 0; u < veclen; ++u) {
      coeffs.at(z, u) = row[static_cast<size_t>(u)];
    }
  }

  RepairPlan built;
  built.lost_id = lost_id;
  built.alpha = alpha_;
  for (const int h : helpers) built.sources.push_back({h, zr});
  built.coeffs = std::move(coeffs);
  plans_[lost_id] = built;
  *plan = std::move(built);
  return true;
}

bool ClayCode::reconstruct(const std::vector<int>& available_ids,
                           const std::vector<BlockView>& available,
                           const std::vector<int>& wanted_ids,
                           const std::vector<MutBlockView>& out,
                           std::string* why) const {
  assert(available.size() == available_ids.size());
  assert(wanted_ids.size() == out.size());
  if (static_cast<int>(available_ids.size()) < k_) {
    if (why != nullptr) {
      *why = "Clay(" + std::to_string(n_) + "," + std::to_string(k_) +
             ") needs k available blocks, got " +
             std::to_string(available_ids.size());
    }
    return false;
  }

  // Deterministic choice: the k lowest available ids.
  std::vector<size_t> order(available_ids.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return available_ids[a] < available_ids[b];
  });
  std::vector<int> chosen;
  std::vector<BlockView> chosen_views;
  for (int j = 0; j < k_; ++j) {
    chosen.push_back(available_ids[order[static_cast<size_t>(j)]]);
    chosen_views.push_back(available[order[static_cast<size_t>(j)]]);
  }

  Sparse rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto key = std::make_pair(chosen, wanted_ids);
    if (const auto it = reconstruct_cache_.find(key);
        it != reconstruct_cache_.end()) {
      rows = it->second;
    } else {
      const int veclen = k_ * alpha_;
      std::vector<bool> erased(static_cast<size_t>(ext_n_), false);
      std::vector<int> chosen_index(static_cast<size_t>(ext_n_), -1);
      for (int id = 0; id < n_; ++id) {
        erased[static_cast<size_t>(node_of(id))] = true;
      }
      for (size_t j = 0; j < chosen.size(); ++j) {
        const int v = node_of(chosen[j]);
        erased[static_cast<size_t>(v)] = false;
        chosen_index[static_cast<size_t>(v)] = static_cast<int>(j);
      }
      std::vector<std::vector<Vec>> c_in(
          static_cast<size_t>(ext_n_),
          std::vector<Vec>(static_cast<size_t>(alpha_),
                           Vec(static_cast<size_t>(veclen), 0)));
      for (size_t j = 0; j < chosen.size(); ++j) {
        const int v = node_of(chosen[j]);
        for (int z = 0; z < alpha_; ++z) {
          c_in[static_cast<size_t>(v)][static_cast<size_t>(z)]
              [j * static_cast<size_t>(alpha_) + static_cast<size_t>(z)] = 1;
        }
      }
      const auto cout = decode_layered(erased, c_in, veclen);
      std::vector<int> erased_ids;
      for (int v = 0; v < ext_n_; ++v) {
        if (erased[static_cast<size_t>(v)]) erased_ids.push_back(v);
      }

      rows.cols = veclen;
      for (const int wanted : wanted_ids) {
        const int v = node_of(wanted);
        if (chosen_index[static_cast<size_t>(v)] >= 0) {
          const int j = chosen_index[static_cast<size_t>(v)];
          for (int z = 0; z < alpha_; ++z) {
            rows.rows.push_back({{j * alpha_ + z, uint8_t{1}}});
          }
          continue;
        }
        const auto it = std::find(erased_ids.begin(), erased_ids.end(), v);
        assert(it != erased_ids.end());
        const size_t r = static_cast<size_t>(it - erased_ids.begin());
        for (int z = 0; z < alpha_; ++z) {
          std::vector<std::pair<int, uint8_t>> terms;
          const Vec& row = cout[r][static_cast<size_t>(z)];
          for (int u = 0; u < veclen; ++u) {
            if (row[static_cast<size_t>(u)] != 0) {
              terms.emplace_back(u, row[static_cast<size_t>(u)]);
            }
          }
          rows.rows.push_back(std::move(terms));
        }
      }
      if (reconstruct_cache_.size() >= 32) reconstruct_cache_.clear();
      reconstruct_cache_[key] = rows;
    }
  }

  const size_t size = chosen_views.front().size();
  assert(size % static_cast<size_t>(alpha_) == 0);
  const size_t sub = size / static_cast<size_t>(alpha_);
  std::vector<BlockView> units;
  units.reserve(chosen_views.size() * static_cast<size_t>(alpha_));
  for (const BlockView v : chosen_views) {
    for (int z = 0; z < alpha_; ++z) {
      units.push_back(v.subspan(static_cast<size_t>(z) * sub, sub));
    }
  }
  std::vector<MutBlockView> outs;
  outs.reserve(out.size() * static_cast<size_t>(alpha_));
  for (const MutBlockView v : out) {
    for (int z = 0; z < alpha_; ++z) {
      outs.push_back(v.subspan(static_cast<size_t>(z) * sub, sub));
    }
  }
  apply_sparse(rows, units, outs, 0, sub);
  return true;
}

}  // namespace ear::erasure
