// Dense matrices over GF(2^8) used to build and invert Reed-Solomon
// generator matrices, and `apply_rows`, which applies one to blocks.  Sizes
// here are tiny (n, k <= a few dozen), so clarity wins over blocking/tiling.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace ear::erasure {

using BlockView = std::span<const uint8_t>;
using MutBlockView = std::span<uint8_t>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, 0) {
    assert(rows >= 0 && cols >= 0);
  }

  static Matrix identity(int n);

  // Vandermonde matrix V[i][j] = alpha^(i*j), i in [0, rows), j in [0, cols).
  // Any `cols` rows form a square Vandermonde with distinct evaluation
  // points, hence are nonsingular.
  static Matrix vandermonde(int rows, int cols);

  // Cauchy matrix C[i][j] = 1 / (x_i + y_j) with x_i = i, y_j = rows + j.
  // Every square submatrix of a Cauchy matrix is nonsingular.
  static Matrix cauchy(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  uint8_t at(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  uint8_t& at(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  const uint8_t* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  Matrix multiply(const Matrix& rhs) const;

  // Returns the inverse, or an empty (0x0) matrix if singular.
  Matrix inverted() const;

  bool is_identity() const;

  // Matrix formed from the given subset of rows (in the given order).
  Matrix select_rows(const std::vector<int>& row_ids) const;

  bool operator==(const Matrix& other) const = default;

  std::string to_string() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<uint8_t> data_;
};

// dst[r][offset, offset + len) = sum_c coeffs(r, c) * src[c][offset,
// offset + len) for every row r, as one gf::mul_rows call: the fused kernel
// streams every source once for several rows, and zero coefficients (local
// parities, sparse repair schedules) are skipped inside it.  Every codec's
// byte-wise encode, decode and repair row application goes through here.
void apply_rows(const Matrix& coeffs, const std::vector<BlockView>& src,
                const std::vector<MutBlockView>& dst, size_t offset,
                size_t len);

}  // namespace ear::erasure
