#ifndef PPFR_LA_MATRIX_H_
#define PPFR_LA_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace ppfr::la {

// Row-major dense matrix of doubles. The GNN stack works in double precision
// because the influence-function machinery (HVP + conjugate gradient) needs
// the numerical headroom.
// Bumped once per dense buffer allocation: shape construction and copy
// construction with a nonzero size. (Copy ASSIGNMENT is uncounted — the
// destination vector may reuse its capacity, so it is not reliably an
// allocation.) The influence-engine bench uses the delta to demonstrate that
// tape replay/pooling keeps the hot loop allocation-free; relaxed ordering
// because only totals matter.
int64_t MatrixAllocCount();

// Byte-level arena accounting across the dense-matrix and CSR buffers:
// `ArenaBytesInUse` is the logical bytes currently registered (buffer sizes,
// not allocator capacities), `ArenaPeakBytes` the high-water mark since the
// last `ResetArenaPeakBytes` (which rebases the peak to the current level).
// The scale bench's "bounded-peak-memory" claim is measured against this
// peak per stage; relaxed atomics because only totals matter.
int64_t ArenaBytesInUse();
int64_t ArenaPeakBytes();
void ResetArenaPeakBytes();

// Process peak resident set (VmHWM) in bytes, read from /proc/self/status;
// 0 where the kernel does not expose it. Unlike the arena counters this
// includes code, allocator slack and every non-matrix allocation, so the two
// together separate "our data structures" from "everything else".
int64_t ProcessPeakRssBytes();

namespace internal {
void BumpMatrixAllocCount();

// Tracks one object's registered share of the process arena-byte counters.
// Embed as the LAST member and call Set(bytes) whenever the owning object's
// buffer sizes change; copies re-register the source's share, moves transfer
// it, destruction releases it — so the default special members of the owner
// keep the global counters consistent.
class ArenaRegistration {
 public:
  ArenaRegistration() = default;
  ArenaRegistration(const ArenaRegistration& other) { Set(other.bytes_); }
  ArenaRegistration& operator=(const ArenaRegistration& other) {
    Set(other.bytes_);
    return *this;
  }
  ArenaRegistration(ArenaRegistration&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  ArenaRegistration& operator=(ArenaRegistration&& other) noexcept {
    if (this != &other) {
      Set(0);
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~ArenaRegistration() { Set(0); }

  void Set(int64_t bytes);

 private:
  int64_t bytes_ = 0;
};
}  // namespace internal

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
    PPFR_CHECK_GE(rows, 0);
    PPFR_CHECK_GE(cols, 0);
    if (!data_.empty()) internal::BumpMatrixAllocCount();
    arena_.Set(static_cast<int64_t>(data_.size()) * sizeof(double));
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    if (!data_.empty()) internal::BumpMatrixAllocCount();
    arena_.Set(static_cast<int64_t>(data_.size()) * sizeof(double));
  }
  Matrix& operator=(const Matrix& other) = default;
  // Declaring the counting copy constructor suppresses the implicit move
  // members; restore them (moves transfer a buffer, they don't allocate).
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }

  double& operator()(int r, int c) {
    CheckIndex(r, c);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    CheckIndex(r, c);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(int r) {
    CheckRow(r);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const double* row(int r) const {
    CheckRow(r);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(double value);
  void Zero() { Fill(0.0); }
  // Copies `other`'s contents into this matrix without reallocating (shapes
  // must already match) — the tape replay arena's refill primitive.
  void CopyDataFrom(const Matrix& other);

  // this += alpha * other (shapes must match).
  void Axpy(double alpha, const Matrix& other);
  // this *= alpha.
  void Scale(double alpha);

  double SumAll() const;
  double FrobeniusNorm() const;
  double MaxAbs() const;

  std::string DebugString(int max_rows = 6, int max_cols = 8) const;

 private:
  // Debug-build bounds checks (free in release). Out-of-range access used to
  // silently read/corrupt neighbouring rows.
  void CheckIndex(int r, int c) const {
    PPFR_DCHECK_GE(r, 0) << "row index out of range for " << rows_ << "x" << cols_;
    PPFR_DCHECK_LT(r, rows_) << "row index out of range for " << rows_ << "x" << cols_;
    PPFR_DCHECK_GE(c, 0) << "col index out of range for " << rows_ << "x" << cols_;
    PPFR_DCHECK_LT(c, cols_) << "col index out of range for " << rows_ << "x" << cols_;
  }
  void CheckRow(int r) const {
    PPFR_DCHECK_GE(r, 0) << "row index out of range for " << rows_ << "x" << cols_;
    PPFR_DCHECK_LT(r, rows_) << "row index out of range for " << rows_ << "x" << cols_;
  }

  int rows_;
  int cols_;
  std::vector<double> data_;
  // Last member: its default copy/move/destroy semantics keep the global
  // arena-byte counters consistent with `data_` (see ArenaRegistration).
  internal::ArenaRegistration arena_;
};

// out = a * b (dense GEMM). Shapes: (m,k) x (k,n) -> (m,n).
Matrix MatMul(const Matrix& a, const Matrix& b);

// out = aᵀ * b. Shapes: (k,m) x (k,n) -> (m,n).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

// out = a * bᵀ. Shapes: (m,k) x (n,k) -> (m,n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

Matrix Transpose(const Matrix& a);

// Elementwise helpers.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);

// Frobenius inner product <a, b>.
double Dot(const Matrix& a, const Matrix& b);

// Row-subset GEMM accumulators used by the sparsity-propagating seeded
// backward (autograd row-support machinery). Both dispatch through the
// active backend: `rows` (distinct indices — a nonzero-row support) is
// usually tiny, so the serial loops stay the base path, but large supports
// (dense graphs) get threshold-gated threading and SIMD inner loops under
// the parallel/simd backends.
//
// out(r, :) += g(r, :) · bᵀ for r in rows.   g: (m,n), b: (k,n), out: (m,k).
void GemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                         const std::vector<int>& rows);
// out += Σ_{r in rows} a(r, :)ᵀ ⊗ g(r, :).   a: (m,k), g: (m,n), out: (k,n).
void GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                         const std::vector<int>& rows);

// Row-wise softmax (numerically stable).
Matrix SoftmaxRows(const Matrix& logits);

// Per-row argmax (ties resolved to the smallest index).
std::vector<int> ArgmaxRows(const Matrix& m);

}  // namespace ppfr::la

#endif  // PPFR_LA_MATRIX_H_
