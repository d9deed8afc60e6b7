#include "erasure/rs.h"

#include <cassert>

namespace ear::erasure {

namespace {

Matrix make_generator(int n, int k, Construction construction) {
  if (construction == Construction::kCauchy) {
    Matrix g(n, k);
    for (int r = 0; r < k; ++r) g.at(r, r) = 1;
    const Matrix c = Matrix::cauchy(n - k, k);
    for (int r = 0; r < n - k; ++r) {
      for (int col = 0; col < k; ++col) {
        g.at(k + r, col) = c.at(r, col);
      }
    }
    return g;
  }

  // Vandermonde: systematize V by post-multiplying with inv(top k x k).
  const Matrix v = Matrix::vandermonde(n, k);
  std::vector<int> top(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) top[static_cast<size_t>(i)] = i;
  const Matrix head_inv = v.select_rows(top).inverted();
  assert(head_inv.rows() == k && "top Vandermonde square must be invertible");
  return v.multiply(head_inv);
}

}  // namespace

RSCode::RSCode(int n, int k, Construction construction)
    : n_(n), k_(k), construction_(construction),
      generator_(make_generator(n, k, construction)) {
  assert(k >= 1 && k < n && n <= 255);
  std::vector<int> parity_rows;
  parity_rows.reserve(static_cast<size_t>(m()));
  for (int r = k_; r < n_; ++r) parity_rows.push_back(r);
  parity_coeffs_ = generator_.select_rows(parity_rows);
}

void RSCode::encode(const std::vector<BlockView>& data,
                    const std::vector<MutBlockView>& parity) const {
  assert(static_cast<int>(data.size()) == k_);
  const size_t size = data.empty() ? 0 : data.front().size();
  encode_chunk(data, parity, 0, size);
}

void RSCode::encode_chunk(const std::vector<BlockView>& data,
                          const std::vector<MutBlockView>& parity,
                          size_t offset, size_t len) const {
  assert(static_cast<int>(data.size()) == k_);
  assert(static_cast<int>(parity.size()) == m());
  apply_rows(parity_coeffs_, data, parity, offset, len);
}

bool RSCode::plan_reconstruct(const std::vector<int>& available_ids,
                              const std::vector<int>& wanted_ids,
                              Matrix* coeffs, std::string* why) const {
  assert(static_cast<int>(available_ids.size()) == k_);

  // Rows of the generator for the available blocks map the original data to
  // the available blocks; inverting recovers data coefficients.
  const Matrix decode = generator_.select_rows(available_ids).inverted();
  if (decode.rows() == 0) {
    if (why != nullptr) {
      std::string ids;
      for (const int id : available_ids) {
        if (!ids.empty()) ids += ",";
        ids += std::to_string(id);
      }
      *why = "singular RS(" + std::to_string(n_) + "," + std::to_string(k_) +
             (construction_ == Construction::kCauchy ? ",cauchy" : ",vandermonde") +
             ") decode matrix for available_ids=[" + ids + "]";
    }
    return false;
  }

  // wanted = G[wanted_rows] * decode * available.
  *coeffs = generator_.select_rows(wanted_ids).multiply(decode);
  return true;
}

void RSCode::decode_chunk(const Matrix& coeffs,
                          const std::vector<BlockView>& available,
                          const std::vector<MutBlockView>& out,
                          size_t offset, size_t len) {
  apply_rows(coeffs, available, out, offset, len);
}

bool RSCode::reconstruct(const std::vector<int>& available_ids,
                         const std::vector<BlockView>& available,
                         const std::vector<int>& wanted_ids,
                         const std::vector<MutBlockView>& out,
                         std::string* why) const {
  assert(available.size() == available_ids.size());
  assert(wanted_ids.size() == out.size());
  Matrix coeffs;
  if (!plan_reconstruct(available_ids, wanted_ids, &coeffs, why)) return false;
  const size_t size = available.empty() ? 0 : available.front().size();
  decode_chunk(coeffs, available, out, 0, size);
  return true;
}

bool RSCode::decode_data(const std::vector<int>& available_ids,
                         const std::vector<BlockView>& available,
                         const std::vector<MutBlockView>& data_out) const {
  assert(static_cast<int>(data_out.size()) == k_);
  std::vector<int> wanted(static_cast<size_t>(k_));
  for (int i = 0; i < k_; ++i) wanted[static_cast<size_t>(i)] = i;
  return reconstruct(available_ids, available, wanted, data_out);
}

}  // namespace ear::erasure
