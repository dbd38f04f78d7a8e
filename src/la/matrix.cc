#include "la/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "la/backend.h"

namespace ppfr::la {
namespace {
std::atomic<int64_t> g_matrix_alloc_count{0};
std::atomic<int64_t> g_arena_bytes{0};
std::atomic<int64_t> g_arena_peak_bytes{0};

// Lift the peak to at least `bytes` (CAS loop; contention is rare because
// peaks only move on growth).
void RaiseArenaPeak(int64_t bytes) {
  int64_t peak = g_arena_peak_bytes.load(std::memory_order_relaxed);
  while (bytes > peak &&
         !g_arena_peak_bytes.compare_exchange_weak(peak, bytes,
                                                   std::memory_order_relaxed)) {
  }
}
}  // namespace

int64_t MatrixAllocCount() { return g_matrix_alloc_count.load(std::memory_order_relaxed); }

int64_t ArenaBytesInUse() { return g_arena_bytes.load(std::memory_order_relaxed); }

int64_t ArenaPeakBytes() { return g_arena_peak_bytes.load(std::memory_order_relaxed); }

void ResetArenaPeakBytes() {
  // Rebase to the current level, not zero: the peak should never read below
  // what is live right now.
  g_arena_peak_bytes.store(g_arena_bytes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

int64_t ProcessPeakRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  int64_t kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

namespace internal {
void BumpMatrixAllocCount() {
  g_matrix_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

void ArenaRegistration::Set(int64_t bytes) {
  if (bytes == bytes_) return;
  const int64_t now =
      g_arena_bytes.fetch_add(bytes - bytes_, std::memory_order_relaxed) +
      (bytes - bytes_);
  bytes_ = bytes;
  RaiseArenaPeak(now);
}
}  // namespace internal

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const size_t cols = rows[0].size();
  for (size_t r = 0; r < rows.size(); ++r) {
    PPFR_CHECK_EQ(rows[r].size(), cols)
        << "Matrix::FromRows: ragged input — row " << r << " has " << rows[r].size()
        << " entries but row 0 has " << cols;
  }
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(cols));
  for (int r = 0; r < m.rows(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

void Matrix::Fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::CopyDataFrom(const Matrix& other) {
  PPFR_CHECK(SameShape(other));
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  PPFR_CHECK(SameShape(other));
  ActiveBackend().VAxpy(alpha, other.data(), data_.data(), size());
}

void Matrix::Scale(double alpha) {
  ActiveBackend().VScale(alpha, data_.data(), size());
}

double Matrix::SumAll() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::string Matrix::DebugString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")";
  for (int r = 0; r < std::min(rows_, max_rows); ++r) {
    os << "\n  [";
    for (int c = 0; c < std::min(cols_, max_cols); ++c) {
      os << (c ? ", " : "") << (*this)(r, c);
    }
    if (cols_ > max_cols) os << ", ...";
    os << "]";
  }
  if (rows_ > max_rows) os << "\n  ...";
  return os.str();
}

// The dense kernels below dispatch through the active compute backend
// (la/backend.h); this file only owns shape validation and allocation.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  PPFR_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  ActiveBackend().Gemm(a, b, &out);
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  PPFR_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  ActiveBackend().GemmTransA(a, b, &out);
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  PPFR_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  ActiveBackend().GemmTransB(a, b, &out);
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  ActiveBackend().Transpose(a, &out);
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  PPFR_CHECK(a.SameShape(b));
  Matrix out = a;
  out.Axpy(1.0, b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  PPFR_CHECK(a.SameShape(b));
  Matrix out = a;
  out.Axpy(-1.0, b);
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  PPFR_CHECK(a.SameShape(b));
  Matrix out(a.rows(), a.cols());
  ActiveBackend().Hadamard(a, b, &out);
  return out;
}

double Dot(const Matrix& a, const Matrix& b) {
  PPFR_CHECK(a.SameShape(b));
  return ActiveBackend().Dot(a, b);
}

void GemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                         const std::vector<int>& rows) {
  PPFR_CHECK_EQ(g.cols(), b.cols());
  PPFR_CHECK_EQ(out->rows(), g.rows());
  PPFR_CHECK_EQ(out->cols(), b.rows());
  ActiveBackend().GemmTransBAccumRows(g, b, out, rows);
}

void GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                         const std::vector<int>& rows) {
  PPFR_CHECK_EQ(a.rows(), g.rows());
  PPFR_CHECK_EQ(out->rows(), a.cols());
  PPFR_CHECK_EQ(out->cols(), g.cols());
  ActiveBackend().GemmTransAAccumRows(a, g, out, rows);
}

Matrix SoftmaxRows(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    const double* in = logits.row(r);
    double* o = out.row(r);
    double mx = in[0];
    for (int c = 1; c < logits.cols(); ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int c = 0; c < logits.cols(); ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    for (int c = 0; c < logits.cols(); ++c) o[c] /= sum;
  }
  return out;
}

std::vector<int> ArgmaxRows(const Matrix& m) {
  std::vector<int> out(m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    const double* row = m.row(r);
    int best = 0;
    for (int c = 1; c < m.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

}  // namespace ppfr::la
