#include "erasure/matrix.h"

#include <cstdio>

#include "gf256/gf256.h"

namespace ear::erasure {

Matrix Matrix::identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::vandermonde(int rows, int cols) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.at(r, c) = gf::pow(gf::exp_alpha(static_cast<unsigned>(r)),
                           static_cast<unsigned>(c));
    }
  }
  return m;
}

Matrix Matrix::cauchy(int rows, int cols) {
  assert(rows + cols <= gf::kFieldSize);
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto x = static_cast<uint8_t>(r);
      const auto y = static_cast<uint8_t>(rows + c);
      m.at(r, c) = gf::inv(gf::add(x, y));
    }
  }
  return m;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < rhs.cols_; ++j) {
      uint8_t acc = 0;
      for (int t = 0; t < cols_; ++t) {
        acc = gf::add(acc, gf::mul(at(i, t), rhs.at(t, j)));
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

Matrix Matrix::inverted() const {
  assert(rows_ == cols_);
  const int n = rows_;
  Matrix aug = *this;
  Matrix inv = identity(n);

  for (int col = 0; col < n; ++col) {
    // Find a pivot row.
    int pivot = -1;
    for (int r = col; r < n; ++r) {
      if (aug.at(r, col) != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) return Matrix();  // singular

    if (pivot != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(aug.at(pivot, c), aug.at(col, c));
        std::swap(inv.at(pivot, c), inv.at(col, c));
      }
    }

    // Scale the pivot row so the pivot element becomes 1.
    const uint8_t scale = gf::inv(aug.at(col, col));
    if (scale != 1) {
      for (int c = 0; c < n; ++c) {
        aug.at(col, c) = gf::mul(aug.at(col, c), scale);
        inv.at(col, c) = gf::mul(inv.at(col, c), scale);
      }
    }

    // Eliminate the column from every other row.
    for (int r = 0; r < n; ++r) {
      if (r == col) continue;
      const uint8_t factor = aug.at(r, col);
      if (factor == 0) continue;
      for (int c = 0; c < n; ++c) {
        aug.at(r, c) = gf::add(aug.at(r, c), gf::mul(factor, aug.at(col, c)));
        inv.at(r, c) = gf::add(inv.at(r, c), gf::mul(factor, inv.at(col, c)));
      }
    }
  }
  return inv;
}

bool Matrix::is_identity() const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (at(r, c) != (r == c ? 1 : 0)) return false;
    }
  }
  return true;
}

Matrix Matrix::select_rows(const std::vector<int>& row_ids) const {
  Matrix out(static_cast<int>(row_ids.size()), cols_);
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const int r = row_ids[i];
    assert(r >= 0 && r < rows_);
    for (int c = 0; c < cols_; ++c) {
      out.at(static_cast<int>(i), c) = at(r, c);
    }
  }
  return out;
}

std::string Matrix::to_string() const {
  std::string out;
  char buf[8];
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "%3d ", at(r, c));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

void apply_rows(const Matrix& coeffs, const std::vector<BlockView>& src,
                const std::vector<MutBlockView>& dst, size_t offset,
                size_t len) {
  assert(static_cast<size_t>(coeffs.rows()) == dst.size());
  assert(static_cast<size_t>(coeffs.cols()) == src.size());
  std::vector<const uint8_t*> srcs;
  srcs.reserve(src.size());
  for (const BlockView s : src) {
    assert(offset + len <= s.size());
    srcs.push_back(s.data() + offset);
  }
  std::vector<uint8_t*> dsts;
  dsts.reserve(dst.size());
  for (const MutBlockView d : dst) {
    assert(offset + len <= d.size());
    dsts.push_back(d.data() + offset);
  }
  gf::mul_rows(dsts, srcs,
               {coeffs.row(0), static_cast<size_t>(coeffs.rows()) *
                                   static_cast<size_t>(coeffs.cols())},
               len);
}

}  // namespace ear::erasure
