#include "ml/nn/matrix.hpp"

#include <algorithm>

#include "util/simd.hpp"

namespace mobirescue::ml {

namespace {

// Block sizes for the cache-blocked kernels: a kBlockK x kBlockJ tile of B
// (64 * 256 doubles = 128 KiB upper bound, typically far less) stays hot
// while rows of A stream through it. k advances in ascending order within
// and across blocks, so blocking never reorders any element's accumulation.
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockJ = 256;

/// One tile of c += a * b covering rows [0, m), k range [k0, k1) and
/// column range [j0, j1). Rows are register-blocked four at a time: each
/// loaded brow vector feeds four output rows, quartering the B-tile
/// traffic. Every c element still accumulates its k terms in ascending
/// order, so the register blocking is bit-exact against the plain loop.
/// Runtime-dispatched to a 4-wide AVX2 body where available: lanes are
/// independent c elements and no FMA is enabled, so both clones give the
/// same bits (util/simd.hpp).
MR_TARGET_CLONES
void GemmTile(const double* __restrict a, const double* __restrict b,
              double* __restrict c, std::size_t m, std::size_t k,
              std::size_t n, std::size_t k0, std::size_t k1, std::size_t j0,
              std::size_t j1) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* __restrict a0 = a + i * k;
    const double* __restrict a1 = a0 + k;
    const double* __restrict a2 = a1 + k;
    const double* __restrict a3 = a2 + k;
    double* __restrict c0 = c + i * n;
    double* __restrict c1 = c0 + n;
    double* __restrict c2 = c1 + n;
    double* __restrict c3 = c2 + n;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const double v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
      const double* __restrict brow = b + kk * n;
      for (std::size_t j = j0; j < j1; ++j) {
        const double bj = brow[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < m; ++i) {
    const double* __restrict arow = a + i * k;
    double* __restrict crow = c + i * n;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const double av = arow[kk];
      const double* __restrict brow = b + kk * n;
      for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

/// c (m x n) += a (m x k) * b (k x n), all row-major contiguous.
void GemmAccumulate(const double* __restrict a, const double* __restrict b,
                    double* __restrict c, std::size_t m, std::size_t k,
                    std::size_t n) {
  if (k <= kBlockK && n <= kBlockJ) {
    // Small-matrix fast path: a single tile; skip the blocking loops.
    GemmTile(a, b, c, m, k, n, 0, k, 0, n);
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
    const std::size_t j1 = std::min(n, j0 + kBlockJ);
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t k1 = std::min(k, k0 + kBlockK);
      GemmTile(a, b, c, m, k, n, k0, k1, j0, j1);
    }
  }
}

/// c (ca x n) += a^T * b where a is (r x ca) and b is (r x n), row-major.
/// The transposed operand is walked row by row (contiguous) and scattered
/// into c with a contiguous j inner loop — no strided column reads.
/// AVX2-cloned like GemmTile, with the same bit-exactness argument.
MR_TARGET_CLONES
void GemmTransAAccumulate(const double* __restrict a,
                          const double* __restrict b, double* __restrict c,
                          std::size_t r, std::size_t ca, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
    const std::size_t j1 = std::min(n, j0 + kBlockJ);
    for (std::size_t t = 0; t < r; ++t) {
      const double* __restrict arow = a + t * ca;
      const double* __restrict brow = b + t * n;
      for (std::size_t i = 0; i < ca; ++i) {
        const double av = arow[i];
        double* __restrict crow = c + i * n;
        for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace

void Matrix::CheckShape(std::size_t rows, std::size_t cols) const {
  if (rows_ != rows || cols_ != cols) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
}

Matrix Matrix::MatMul(const Matrix& other) const {
  if (cols_ != other.rows_) throw std::invalid_argument("MatMul: shapes");
  Matrix out(rows_, other.cols_);
  GemmAccumulate(data_.data(), other.data_.data(), out.data_.data(), rows_,
                 cols_, other.cols_);
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  if (rows_ != other.rows_) {
    throw std::invalid_argument("TransposedMatMul: shapes");
  }
  Matrix out(cols_, other.cols_);
  GemmTransAAccumulate(data_.data(), other.data_.data(), out.data_.data(),
                       rows_, cols_, other.cols_);
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  if (cols_ != other.cols_) {
    throw std::invalid_argument("MatMulTransposed: shapes");
  }
  Matrix out(rows_, other.rows_);
  const double* __restrict a = data_.data();
  const double* __restrict b = other.data_.data();
  double* __restrict c = out.data_.data();
  const std::size_t k = cols_, n = other.rows_;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* __restrict arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const double* __restrict brow = b + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[i * n + j] = acc;
    }
  }
  return out;
}

void Matrix::AddRowVector(const Matrix& row) {
  if (row.rows_ != 1 || row.cols_ != cols_) {
    throw std::invalid_argument("AddRowVector: shapes");
  }
  const double* __restrict r = row.data_.data();
  for (std::size_t i = 0; i < rows_; ++i) {
    double* __restrict out = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += r[j];
  }
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  other.CheckShape(rows_, cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] *= other.data_[i];
  }
  return out;
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out(0, j) += (*this)(i, j);
    }
  }
  return out;
}

}  // namespace mobirescue::ml
