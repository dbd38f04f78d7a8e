#include "la/csr_matrix.h"

#include <algorithm>

#include "la/backend.h"

namespace ppfr::la {
namespace {
// Dense elements per backend chunk in FromDense's two row passes.
constexpr int64_t kFromDenseGrain = 1 << 15;
// Multiply-adds (bounded by nnz · x.cols()) per chunk of the sparse-RHS
// product, the dense SpMM's threading cutoff.
constexpr int64_t kSparseProductChunkWork = 32 * 1024;
}  // namespace

std::vector<int64_t> NnzBalancedRowBounds(const std::vector<int64_t>& row_ptr,
                                          int64_t num_rows, int64_t num_chunks) {
  PPFR_CHECK_GE(num_chunks, 1);
  PPFR_CHECK_GE(static_cast<int64_t>(row_ptr.size()), num_rows + 1);
  const int64_t nnz = row_ptr[static_cast<size_t>(num_rows)];
  std::vector<int64_t> bounds(static_cast<size_t>(num_chunks) + 1, 0);
  bounds[static_cast<size_t>(num_chunks)] = num_rows;
  for (int64_t c = 1; c < num_chunks; ++c) {
    const int64_t target = c * nnz / num_chunks;
    const auto it = std::lower_bound(row_ptr.begin(),
                                     row_ptr.begin() + num_rows + 1, target);
    const int64_t row = std::min<int64_t>(it - row_ptr.begin(), num_rows);
    bounds[static_cast<size_t>(c)] = std::max(bounds[static_cast<size_t>(c - 1)], row);
  }
  return bounds;
}

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols, std::vector<Triplet> triplets) {
  CsrMatrix m(rows, cols);
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    PPFR_CHECK_GE(t.row, 0);
    PPFR_CHECK_LT(t.row, rows);
    PPFR_CHECK_GE(t.col, 0);
    PPFR_CHECK_LT(t.col, cols);
    double v = 0.0;
    size_t j = i;
    while (j < triplets.size() && triplets[j].row == t.row && triplets[j].col == t.col) {
      v += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(t.col);
    m.values_.push_back(v);
    m.row_ptr_[t.row + 1]++;
    i = j;
  }
  // Deduplicated per-row counts -> prefix sums, in place.
  for (int r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.RegisterArenaBytes();
  return m;
}

CsrMatrix CsrMatrix::FromSortedRows(int rows, int cols, std::vector<int64_t> row_ptr,
                                     std::vector<int> col_idx,
                                     std::vector<double> values) {
  PPFR_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), static_cast<int64_t>(rows) + 1);
  PPFR_CHECK_EQ(row_ptr.front(), 0);
  PPFR_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  PPFR_CHECK_EQ(col_idx.size(), values.size());
  for (int r = 0; r < rows; ++r) {
    PPFR_DCHECK_LE(row_ptr[r], row_ptr[r + 1]);
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      PPFR_DCHECK_GE(col_idx[k], k == row_ptr[r] ? 0 : col_idx[k - 1] + 1);
      PPFR_DCHECK_LT(col_idx[k], cols);
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.RegisterArenaBytes();
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  CsrMatrix m(dense.rows(), dense.cols());
  const Backend& backend = ActiveBackend();
  const int64_t grain = std::max<int64_t>(1, kFromDenseGrain / std::max(dense.cols(), 1));
  // Count each row's nonzeros, prefix-sum the counts, then fill the rows:
  // both passes write disjoint rows, so the result does not depend on the
  // thread count. `== 0.0` drops -0.0 too and keeps NaN.
  backend.Apply(dense.rows(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const double* row = dense.row(static_cast<int>(r));
      int64_t count = 0;
      for (int c = 0; c < dense.cols(); ++c) count += row[c] != 0.0;
      m.row_ptr_[r + 1] = count;
    }
  });
  for (int r = 0; r < dense.rows(); ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.col_idx_.resize(static_cast<size_t>(m.row_ptr_.back()));
  m.values_.resize(m.col_idx_.size());
  backend.Apply(dense.rows(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const double* row = dense.row(static_cast<int>(r));
      int64_t k = m.row_ptr_[r];
      for (int c = 0; c < dense.cols(); ++c) {
        if (row[c] == 0.0) continue;
        m.col_idx_[k] = c;
        m.values_[k++] = row[c];
      }
    }
  });
  m.RegisterArenaBytes();
  return m;
}

Matrix CsrMatrix::Multiply(const Matrix& x) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  Matrix out(rows_, x.cols());
  MultiplyAccum(x, 1.0, &out);
  return out;
}

Matrix CsrMatrix::Multiply(const CsrMatrix& x) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  Matrix out(rows_, x.cols());
  const Backend& backend = ActiveBackend();
  const int64_t num_chunks = std::clamp<int64_t>(nnz() * x.cols() / kSparseProductChunkWork, 1,
                                                 backend.num_threads());
  const std::vector<int64_t> bounds = NnzBalancedRowBounds(row_ptr_, rows_, num_chunks);
  backend.Apply(num_chunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t r = bounds[c0]; r < bounds[c1]; ++r) {
      double* out_row = out.row(static_cast<int>(r));
      for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const double w = values_[k];
        for (int64_t e = x.row_ptr_[col_idx_[k]]; e < x.row_ptr_[col_idx_[k] + 1]; ++e) {
          out_row[x.col_idx_[e]] = MulAdd(w, x.values_[e], out_row[x.col_idx_[e]]);
        }
      }
    }
  });
  return out;
}

void CsrMatrix::MultiplyAccum(const Matrix& x, double alpha, Matrix* out) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  PPFR_CHECK_EQ(out->rows(), rows_);
  PPFR_CHECK_EQ(out->cols(), x.cols());
  ActiveBackend().SpmmAccum(*this, x, alpha, out);
}

void CsrMatrix::MultiplyAccumRows(const Matrix& x, double alpha, Matrix* out,
                                  const std::vector<int>& rows,
                                  const std::vector<uint8_t>& x_row_nonzero) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  PPFR_CHECK_EQ(out->rows(), rows_);
  PPFR_CHECK_EQ(out->cols(), x.cols());
  if (!x_row_nonzero.empty()) {
    PPFR_CHECK_GE(static_cast<int>(x_row_nonzero.size()), x.rows());
  }
  ActiveBackend().SpmmAccumRows(*this, x, alpha, out, rows, x_row_nonzero);
}

CsrMatrix CsrMatrix::Transposed() const {
  // Values move unchanged. A triplet transpose re-sums each from +0, which
  // differs only for a -0 value, and neither FromTriplets nor FromDense
  // stores one.
  std::vector<int64_t> t_row_ptr(static_cast<size_t>(cols_) + 1, 0);
  for (int c : col_idx_) ++t_row_ptr[static_cast<size_t>(c) + 1];
  for (int c = 0; c < cols_; ++c) t_row_ptr[c + 1] += t_row_ptr[c];
  std::vector<int64_t> next(t_row_ptr.begin(), t_row_ptr.end() - 1);
  std::vector<int> t_col_idx(col_idx_.size());
  std::vector<double> t_values(values_.size());
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int64_t dst = next[col_idx_[k]]++;
      t_col_idx[dst] = r;
      t_values[dst] = values_[k];
    }
  }
  return FromSortedRows(cols_, rows_, std::move(t_row_ptr), std::move(t_col_idx),
                        std::move(t_values));
}

double CsrMatrix::At(int row, int col) const {
  PPFR_CHECK_GE(row, 0);
  PPFR_CHECK_LT(row, rows_);
  const auto begin = col_idx_.begin() + row_ptr_[row];
  const auto end = col_idx_.begin() + row_ptr_[row + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[it - col_idx_.begin()];
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) += values_[k];
    }
  }
  return out;
}

}  // namespace ppfr::la
