#ifndef PPFR_LA_CSR_MATRIX_H_
#define PPFR_LA_CSR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace ppfr::la {

// A single (row, col, value) entry used to build sparse matrices.
struct Triplet {
  int row;
  int col;
  double value;
};

// Chunk boundaries over [0, num_rows) balanced on cumulative nnz: returns
// num_chunks+1 non-decreasing row indices with bounds.front()==0 and
// bounds.back()==num_rows, each interior boundary placed (via lower_bound on
// the prefix-sum row_ptr) so every chunk carries ~nnz/num_chunks entries.
// Shared by the parallel SpMM kernel and the fused edge-softmax forward so a
// few hub rows in a power-law graph can't serialise one chunk.
std::vector<int64_t> NnzBalancedRowBounds(const std::vector<int64_t>& row_ptr,
                                          int64_t num_rows, int64_t num_chunks);

// Compressed-sparse-row matrix of doubles. Used for normalised adjacency
// operators (Â), similarity matrices S and their Laplacians — all of which
// are multiplied against dense embedding matrices during training.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) {}
  CsrMatrix(int rows, int cols) : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {
    RegisterArenaBytes();
  }

  // Builds from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix FromTriplets(int rows, int cols, std::vector<Triplet> triplets);
  // Adopts CSR arrays that are already in canonical form: row_ptr has rows+1
  // non-decreasing entries from 0 to nnz, and each row's columns are strictly
  // increasing and in range. The same matrix FromTriplets builds from those
  // entries, without the sort.
  static CsrMatrix FromSortedRows(int rows, int cols, std::vector<int64_t> row_ptr,
                                  std::vector<int> col_idx, std::vector<double> values);
  // The entries of a dense matrix that compare != 0.0 (so -0.0 is dropped and
  // NaN kept), row-major. Rows are counted and filled on the active
  // backend's threads; the result is the same at any thread count.
  static CsrMatrix FromDense(const Matrix& dense);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  // out = this * x (SpMM). Shapes: (r,c) x (c,n) -> (r,n).
  Matrix Multiply(const Matrix& x) const;

  // out = this * x for a sparse x, dense (r,n): each output row starts at +0
  // and takes out[f] = MulAdd(w, v, out[f]) for each of its nonzeros w in
  // CSR order and each nonzero (f, v) of x's row. Rows run on the active
  // backend's threads in nnz-balanced chunks; the bits do not depend on the
  // thread count. Bit for bit Multiply(x.ToDense()) on either backend
  // whenever every w is finite and no accumulator underflows to -0: the
  // dense product's extra terms MulAdd(w, 0, acc) return acc exactly unless
  // w·0 is NaN or acc is -0. NaN and ±inf in x are entries like any other.
  Matrix Multiply(const CsrMatrix& x) const;

  // out += alpha * (this * x), into a preallocated (r,n) matrix.
  void MultiplyAccum(const Matrix& x, double alpha, Matrix* out) const;

  // Row-subset variant: accumulates only the output rows listed in `rows`
  // (distinct indices, each computed exactly as MultiplyAccum would).
  // Dispatches through the active backend: the autograd row-support
  // machinery usually passes the small nonzero-row support of a seeded
  // backward pass, which stays on the serial path, while large supports get
  // threshold-gated threading and register-held output columns.
  //
  // `x_row_nonzero` (sized >= x.rows(), or empty for "unknown") marks the
  // rows of x that may be nonzero; entries pointing at an unmarked row are
  // skipped. A skipped entry only ever contributes an exact ±0 product, so
  // the result is bitwise identical to the unmasked computation — the mask
  // just avoids streaming known-zero rows through the cache.
  void MultiplyAccumRows(const Matrix& x, double alpha, Matrix* out,
                         const std::vector<int>& rows,
                         const std::vector<uint8_t>& x_row_nonzero = {}) const;

  // A counting-sort transpose: entries reach each transposed row in source
  // row order, which is already sorted, so nothing is sorted or merged.
  CsrMatrix Transposed() const;

  // Entry lookup by binary search within the row; 0.0 when absent.
  double At(int row, int col) const;

  // Converts to dense (small matrices / tests only).
  Matrix ToDense() const;

 private:
  // Re-registers this matrix's buffer bytes with the la arena counters; call
  // after any step that (re)sizes the three buffers.
  void RegisterArenaBytes() {
    arena_.Set(static_cast<int64_t>(row_ptr_.size() * sizeof(int64_t) +
                                    col_idx_.size() * sizeof(int) +
                                    values_.size() * sizeof(double)));
  }

  int rows_;
  int cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int> col_idx_;  // sorted within each row
  std::vector<double> values_;
  // Last member: default copy/move/destroy keep the arena counters in sync.
  internal::ArenaRegistration arena_;
};

}  // namespace ppfr::la

#endif  // PPFR_LA_CSR_MATRIX_H_
