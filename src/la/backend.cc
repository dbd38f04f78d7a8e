#include "la/backend.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"

namespace ppfr::la {
namespace {

// ---------------------------------------------------------------------------
// Naive kernels. These are the original seed loops: they are the
// ReferenceBackend (correctness oracle), and the ParallelBackend's narrow
// register tiles reproduce their rounding sequence bit for bit. Their
// multiply-adds go through MulAdd, like the tiles', so the two agree at every
// optimisation level, not only where the compiler contracts `c += a * b`.
// ---------------------------------------------------------------------------

void NaiveGemm(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Zero();
  // i-k-j loop order keeps the inner loop streaming over contiguous rows.
  for (int i = 0; i < a.rows(); ++i) {
    double* out_row = out->row(i);
    const double* a_row = a.row(i);
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a_row[k];
      if (aik == 0.0) continue;
      const double* b_row = b.row(k);
      for (int j = 0; j < b.cols(); ++j) out_row[j] = MulAdd(aik, b_row[j], out_row[j]);
    }
  }
}

void NaiveGemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Zero();
  for (int k = 0; k < a.rows(); ++k) {
    const double* a_row = a.row(k);
    const double* b_row = b.row(k);
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = a_row[i];
      if (aki == 0.0) continue;
      double* out_row = out->row(i);
      for (int j = 0; j < b.cols(); ++j) out_row[j] = MulAdd(aki, b_row[j], out_row[j]);
    }
  }
}

void NaiveGemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  for (int i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    double* out_row = out->row(i);
    for (int j = 0; j < b.rows(); ++j) {
      const double* b_row = b.row(j);
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) s = MulAdd(a_row[k], b_row[k], s);
      out_row[j] = s;
    }
  }
}

void NaiveTranspose(const Matrix& a, Matrix* out) {
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) (*out)(c, r) = a(r, c);
  }
}

void NaiveSpmmAccumRows(const CsrMatrix& a, const Matrix& x, double alpha, Matrix* out,
                        int64_t row_begin, int64_t row_end) {
  const int n = x.cols();
  const std::vector<int64_t>& row_ptr = a.row_ptr();
  const std::vector<int>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  for (int64_t r = row_begin; r < row_end; ++r) {
    double* out_row = out->row(static_cast<int>(r));
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double w = alpha * values[k];
      const double* x_row = x.row(col_idx[k]);
      for (int j = 0; j < n; ++j) out_row[j] = MulAdd(w, x_row[j], out_row[j]);
    }
  }
}

// Serial support-guided kernels: the original loops from matrix.cc /
// csr_matrix.cc, now the Backend base-class (and small-support) path. The
// supports a seeded backward produces are tiny, so these loops are the fast
// path; ParallelBackend only diverges above a work threshold.

void SerialGemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                               const std::vector<int>& rows) {
  for (int r : rows) {
    const double* g_row = g.row(r);
    double* out_row = out->row(r);
    for (int j = 0; j < b.rows(); ++j) {
      const double* b_row = b.row(j);
      double s = 0.0;
      for (int c = 0; c < g.cols(); ++c) s += g_row[c] * b_row[c];
      out_row[j] += s;
    }
  }
}

void SerialGemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                               const std::vector<int>& rows) {
  for (int r : rows) {
    const double* a_row = a.row(r);
    const double* g_row = g.row(r);
    for (int i = 0; i < a.cols(); ++i) {
      const double ari = a_row[i];
      if (ari == 0.0) continue;
      double* out_row = out->row(i);
      for (int j = 0; j < g.cols(); ++j) out_row[j] = MulAdd(ari, g_row[j], out_row[j]);
    }
  }
}

void SerialSpmmAccumRows(const CsrMatrix& a, const Matrix& x, double alpha,
                         Matrix* out, const std::vector<int>& rows,
                         const std::vector<uint8_t>& x_row_nonzero) {
  const bool masked = !x_row_nonzero.empty();
  const int n = x.cols();
  const std::vector<int64_t>& row_ptr = a.row_ptr();
  const std::vector<int>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  for (int r : rows) {
    PPFR_DCHECK_GE(r, 0);
    PPFR_DCHECK_LT(r, a.rows());
    double* out_row = out->row(r);
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const int c = col_idx[k];
      if (masked && !x_row_nonzero[c]) continue;
      const double w = alpha * values[k];
      const double* x_row = x.row(c);
      for (int j = 0; j < n; ++j) out_row[j] = MulAdd(w, x_row[j], out_row[j]);
    }
  }
}

// Register micro-tile (MR x NR accumulators) and cache panels: an MC x KC
// packed panel of A lives in L2, a KC x NR sliver of packed B streams from
// L1, and the KC x NC packed B panel sits in L3.
constexpr int kMr = 4;
constexpr int kNr = 8;
constexpr int kMc = 64;
constexpr int kKc = 256;
constexpr int kNc = 2048;

// Below these sizes the naive loops win (no packing / dispatch overhead).
constexpr int64_t kGemmSerialCutoff = 32 * 1024;   // m*n*k
constexpr int64_t kElementwiseCutoff = 32 * 1024;  // flat elements
constexpr int64_t kSpmmWorkCutoff = 32 * 1024;     // nnz * x.cols()
constexpr int64_t kReduceBlock = 4096;             // deterministic partial sums

void ScalarMicroKernel(const double* ap, const double* bp, int kb, double* out,
                       int64_t out_stride, int mr, int nr) {
  // The kMr*kNr accumulators live in registers, one array per tile row, and
  // the j loops are the vector dimension (auto-vectorized under -march=native).
  // GCC vectorises this shape only with the A values loaded into locals
  // first; a single 2-D array, or av[ir] read inside the loops, gets
  // shuffles or scalar fmas. Within one k panel each element is the
  // reference loop's MulAdd chain.
  static_assert(kMr == 4, "ScalarMicroKernel holds one accumulator array per tile row");
  double c0[kNr] = {}, c1[kNr] = {}, c2[kNr] = {}, c3[kNr] = {};
  for (int kk = 0; kk < kb; ++kk) {
    const double* av = ap + static_cast<size_t>(kk) * kMr;
    const double* bv = bp + static_cast<size_t>(kk) * kNr;
    const double a0 = av[0], a1 = av[1], a2 = av[2], a3 = av[3];
    for (int j = 0; j < kNr; ++j) c0[j] = MulAdd(a0, bv[j], c0[j]);
    for (int j = 0; j < kNr; ++j) c1[j] = MulAdd(a1, bv[j], c1[j]);
    for (int j = 0; j < kNr; ++j) c2[j] = MulAdd(a2, bv[j], c2[j]);
    for (int j = 0; j < kNr; ++j) c3[j] = MulAdd(a3, bv[j], c3[j]);
  }
  const double* const acc[kMr] = {c0, c1, c2, c3};
  for (int ir = 0; ir < mr; ++ir) {
    double* out_row = out + ir * out_stride;
    for (int jr = 0; jr < nr; ++jr) out_row[jr] += acc[ir][jr];
  }
}

double ScalarDot(const double* a, const double* b, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void ScalarAxpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = MulAdd(alpha, x[i], y[i]);
}

void ScalarScale(double alpha, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ScalarHadamard(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

// The fused leaves are literally the unfused compositions: that IS the
// bitwise definition of the fused contract.
double ScalarAxpyDot(double alpha, const double* x, double* y, int64_t n) {
  ScalarAxpy(alpha, x, y, n);
  return ScalarDot(y, y, n);
}

double ScalarXpayDot(double beta, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] + beta * y[i];
  return ScalarDot(y, y, n);
}

// The SpMM row leaf: out_row[0, n) += Σ_k (alpha·vals[k]) · x_row_k, k in
// CSR order, with the output held in locals across the whole nonzero list
// instead of reloaded and stored at every nonzero. Per element it is the
// repeated-ScalarAxpy sequence, the bitwise definition of the contract.
// Each 8-column block gets its own accumulator array: GCC keeps those in
// vector registers, where one long array gets spilled or shuffled.
template <int kBlocks>
void SpmmRowBlocks(const double* vals, const int* cols, int64_t nnz, double alpha,
                   const double* x, int64_t x_stride, double* out_row) {
  static_assert(kBlocks >= 1 && kBlocks <= 4);
  double a0[8], a1[8], a2[8], a3[8];
  for (int j = 0; j < 8; ++j) {
    a0[j] = out_row[j];
    if constexpr (kBlocks > 1) a1[j] = out_row[8 + j];
    if constexpr (kBlocks > 2) a2[j] = out_row[16 + j];
    if constexpr (kBlocks > 3) a3[j] = out_row[24 + j];
  }
  for (int64_t k = 0; k < nnz; ++k) {
    const double w = alpha * vals[k];
    const double* x_row = x + static_cast<size_t>(cols[k]) * x_stride;
    for (int j = 0; j < 8; ++j) a0[j] = MulAdd(w, x_row[j], a0[j]);
    if constexpr (kBlocks > 1) {
      for (int j = 0; j < 8; ++j) a1[j] = MulAdd(w, x_row[8 + j], a1[j]);
    }
    if constexpr (kBlocks > 2) {
      for (int j = 0; j < 8; ++j) a2[j] = MulAdd(w, x_row[16 + j], a2[j]);
    }
    if constexpr (kBlocks > 3) {
      for (int j = 0; j < 8; ++j) a3[j] = MulAdd(w, x_row[24 + j], a3[j]);
    }
  }
  for (int j = 0; j < 8; ++j) {
    out_row[j] = a0[j];
    if constexpr (kBlocks > 1) out_row[8 + j] = a1[j];
    if constexpr (kBlocks > 2) out_row[16 + j] = a2[j];
    if constexpr (kBlocks > 3) out_row[24 + j] = a3[j];
  }
}

// The same for a tail narrower than one block.
template <int W>
void SpmmRowTail(const double* vals, const int* cols, int64_t nnz, double alpha,
                 const double* x, int64_t x_stride, double* out_row) {
  double acc[W];
  for (int j = 0; j < W; ++j) acc[j] = out_row[j];
  for (int64_t k = 0; k < nnz; ++k) {
    const double w = alpha * vals[k];
    const double* x_row = x + static_cast<size_t>(cols[k]) * x_stride;
    for (int j = 0; j < W; ++j) acc[j] = MulAdd(w, x_row[j], acc[j]);
  }
  for (int j = 0; j < W; ++j) out_row[j] = acc[j];
}

using SpmmRowPart = void (*)(const double*, const int*, int64_t, double, const double*,
                             int64_t, double*);
constexpr SpmmRowPart kSpmmRowBlocks[5] = {nullptr, &SpmmRowBlocks<1>, &SpmmRowBlocks<2>,
                                           &SpmmRowBlocks<3>, &SpmmRowBlocks<4>};
constexpr SpmmRowPart kSpmmRowTails[8] = {
    nullptr,           &SpmmRowTail<1>, &SpmmRowTail<2>, &SpmmRowTail<3>,
    &SpmmRowTail<4>, &SpmmRowTail<5>, &SpmmRowTail<6>, &SpmmRowTail<7>};

// Up to 32 columns (every width the paper's models use) take one pass over
// the nonzeros, plus one for a tail; wider rows take one pass per 32.
void ScalarSpmmRow(const double* vals, const int* cols, int64_t nnz, double alpha,
                   const double* x, int64_t x_stride, double* out_row, int64_t n) {
  int64_t j = 0;
  while (n - j >= 8) {
    const int64_t blocks = std::min<int64_t>(4, (n - j) / 8);
    kSpmmRowBlocks[blocks](vals, cols, nnz, alpha, x + j, x_stride, out_row + j);
    j += 8 * blocks;
  }
  if (j < n) kSpmmRowTails[n - j](vals, cols, nnz, alpha, x + j, x_stride, out_row + j);
}

// Debug guard for the row-partitioned support kernels: partitioning the row
// list across workers is only race-free because support entries are distinct
// output rows. The serial paths tolerate duplicates, so this is checked only
// where the list is about to be split.
bool RowsDistinct(std::vector<int> rows) {
  std::sort(rows.begin(), rows.end());
  return std::adjacent_find(rows.begin(), rows.end()) == rows.end();
}

// ---------------------------------------------------------------------------
// Narrow register tiles: the ParallelBackend's path for every product below
// the blocked-GEMM cutoffs, which at the paper's sizes means every product
// with an output or inner side of 3-7 columns. A kMr x kNr block of outputs
// stays in locals across the inner dimension, against a right operand packed
// into zero-padded kNr-wide k-major panels.
//
// Each output element starts at +0 and takes one MulAdd per k in ascending
// order: the naive loops' rounding sequence. NaiveGemm and NaiveGemmTransA
// also skip zero multipliers. Here a zero multiplier adds ±0 to an
// accumulator that started at +0 and so is never -0, which leaves it
// unchanged: for finite operands the bits agree. A non-finite b under a zero
// multiplier gives NaN here, where the naive loops skip it.
// ---------------------------------------------------------------------------

// A tile operand: element (i, kk) is data[i·stride + row(kk)·k_stride], with
// row(kk) = k_rows[kk] when a row list is given and kk otherwise. One view
// serves a (row-major), aᵀ (column-major) and a row subset of either.
struct TileOperand {
  const double* data;
  int64_t stride;
  int64_t k_stride;
  const int* k_rows = nullptr;

  const double* KRow(int kk) const {
    return data + (k_rows != nullptr ? k_rows[kk] : kk) * k_stride;
  }
};

// Packs k-rows [k0, k0 + kc) and columns [j0, j0 + n) of a right operand
// (column j of k-row kk at KRow(kk) + j·stride: a row-major b, or bᵀ read in
// place) into ceil(n / kNr) zero-padded, k-major panels kNr columns wide: the
// layout the narrow tiles and the GEMM micro-kernel stream.
void PackPanels(const TileOperand& b, int k0, int kc, int j0, int n,
                std::vector<double>* panels) {
  const int num_panels = (n + kNr - 1) / kNr;
  panels->assign(static_cast<size_t>(num_panels) * kc * kNr, 0.0);
  for (int p = 0; p < num_panels; ++p) {
    double* dst = panels->data() + static_cast<size_t>(p) * kc * kNr;
    const int valid = std::min(kNr, n - p * kNr);
    for (int kk = 0; kk < kc; ++kk) {
      const double* src = b.KRow(k0 + kk) + (j0 + p * kNr) * b.stride;
      for (int j = 0; j < valid; ++j) dst[kk * kNr + j] = src[j * b.stride];
    }
  }
}

// out rows [i0, i0 + mr) x columns [0, nr) of one panel, overwritten or
// (accumulate) added to: accumulating starts each element's chain at its
// out value instead of +0. `a` has no row list. Rows past mr reuse the last
// valid row and are discarded, so the loop body never branches. One
// accumulator array per row (not a 2-D array) is what GCC keeps in vector
// registers; it vectorises a 2-D tile across rows, with shuffles.
void NarrowTile(const TileOperand& a, int i0, int mr, int k, const double* panel,
                double* out, int64_t out_stride, int nr, bool accumulate) {
  const auto row = [&](int ir) {
    return a.data + static_cast<int64_t>(i0 + std::min(ir, mr - 1)) * a.stride;
  };
  const double *r0 = row(0), *r1 = row(1), *r2 = row(2), *r3 = row(3);
  double c0[kNr] = {}, c1[kNr] = {}, c2[kNr] = {}, c3[kNr] = {};
  static_assert(kMr == 4, "NarrowTile holds one accumulator array per tile row");
  double* const acc[kMr] = {c0, c1, c2, c3};
  if (accumulate) {
    for (int ir = 0; ir < mr; ++ir) std::copy_n(out + ir * out_stride, nr, acc[ir]);
  }
  for (int kk = 0; kk < k; ++kk) {
    const double* bv = panel + static_cast<size_t>(kk) * kNr;
    const int64_t off = kk * a.k_stride;
    const double a0 = r0[off], a1 = r1[off], a2 = r2[off], a3 = r3[off];
    for (int j = 0; j < kNr; ++j) c0[j] = MulAdd(a0, bv[j], c0[j]);
    for (int j = 0; j < kNr; ++j) c1[j] = MulAdd(a1, bv[j], c1[j]);
    for (int j = 0; j < kNr; ++j) c2[j] = MulAdd(a2, bv[j], c2[j]);
    for (int j = 0; j < kNr; ++j) c3[j] = MulAdd(a3, bv[j], c3[j]);
  }
  for (int ir = 0; ir < mr; ++ir) std::copy_n(acc[ir], nr, out + ir * out_stride);
}

// out = a·b (out += a·b when accumulating) on the tiles; a is m x k and b is
// k x n. The inner dimension is walked in chunks of kKc, packing a chunk's
// panels (and, for a row list, gathering its rows of a) into scratch; every
// chunk after the first continues the chains from out, which keeps the bits
// and bounds the scratch. It runs on the calling thread, like the naive
// loops it replaces: a row split across the pool lost or tied on the
// paper's shapes and gained nothing measurable on the scale workloads
// (EXPERIMENTS.md, "Narrow training kernels").
void NarrowProduct(const TileOperand& a, int m, int k, const TileOperand& b, int n,
                   Matrix* out, bool accumulate = false) {
  if (m == 0 || n == 0) return;
  const int num_panels = (n + kNr - 1) / kNr;
  std::vector<double> panels, a_rows;
  int k0 = 0;
  do {
    const int kc = std::min(kKc, k - k0);
    PackPanels(b, k0, kc, 0, n, &panels);
    TileOperand left{a.data + k0 * a.k_stride, a.stride, a.k_stride};
    if (a.k_rows != nullptr) {
      a_rows.resize(static_cast<size_t>(kc) * m);
      for (int kk = 0; kk < kc; ++kk) {
        const double* src = a.KRow(k0 + kk);
        double* dst = a_rows.data() + static_cast<size_t>(kk) * m;
        for (int i = 0; i < m; ++i) dst[i] = src[i * a.stride];
      }
      left = {a_rows.data(), 1, m};
    }
    for (int i0 = 0; i0 < m; i0 += kMr) {
      const int mr = std::min(kMr, m - i0);
      for (int p = 0; p < num_panels; ++p) {
        const double* panel = panels.data() + static_cast<size_t>(p) * kc * kNr;
        NarrowTile(left, i0, mr, kc, panel, out->row(i0) + p * kNr, n,
                   std::min(kNr, n - p * kNr), accumulate || k0 > 0);
      }
    }
    k0 += kKc;
  } while (k0 < k);
}

// ---------------------------------------------------------------------------
// ReferenceBackend
// ---------------------------------------------------------------------------

class ReferenceBackend final : public Backend {
 public:
  std::string name() const override { return "reference"; }

  void Gemm(const Matrix& a, const Matrix& b, Matrix* out) const override {
    NaiveGemm(a, b, out);
  }
  void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) const override {
    NaiveGemmTransA(a, b, out);
  }
  void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) const override {
    NaiveGemmTransB(a, b, out);
  }
  void Transpose(const Matrix& a, Matrix* out) const override {
    NaiveTranspose(a, out);
  }
  void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const double* pa = a.data();
    const double* pb = b.data();
    double* po = out->data();
    for (int64_t i = 0; i < a.size(); ++i) po[i] = pa[i] * pb[i];
  }
  void SpmmAccum(const CsrMatrix& a, const Matrix& x, double alpha,
                 Matrix* out) const override {
    NaiveSpmmAccumRows(a, x, alpha, out, 0, a.rows());
  }
  void Apply(int64_t n, int64_t grain,
             const std::function<void(int64_t, int64_t)>& fn) const override {
    (void)grain;
    if (n > 0) fn(0, n);
  }
  double VDot(const double* a, const double* b, int64_t n) const override {
    return ScalarDot(a, b, n);
  }
  void VAxpy(double alpha, const double* x, double* y, int64_t n) const override {
    ScalarAxpy(alpha, x, y, n);
  }
  void VScale(double alpha, double* x, int64_t n) const override {
    ScalarScale(alpha, x, n);
  }
};

// ---------------------------------------------------------------------------
// ParallelBackend: cache-blocked GEMM with packed operands (GEBP scheme) and
// row-partitioned sparse/elementwise kernels on a shared thread pool, over
// the scalar leaf loops above.
//
// Determinism: for a fixed problem the floating-point summation order is
// independent of the thread count — GEMM assigns each output tile to exactly
// one thread and walks k in ascending panel order, SpMM partitions disjoint
// rows, and reductions sum fixed-size block partials in block order.
// ---------------------------------------------------------------------------

class ParallelBackend final : public Backend {
 public:
  explicit ParallelBackend(int num_threads) : pool_(num_threads) {}

  std::string name() const override { return "parallel"; }
  int num_threads() const override { return pool_.num_threads(); }

  // Below the work cutoff, or with an output narrower than the tile width or
  // a short inner side, packing whole panels costs more than it saves and the
  // narrow register tiles run instead.
  static bool Narrow(int64_t work, int n, int k) {
    return work < kGemmSerialCutoff || n < kNr || k < 8;
  }

  void Gemm(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const int m = a.rows(), k = a.cols(), n = b.cols();
    if (Narrow(static_cast<int64_t>(m) * n * k, n, k)) {
      NarrowProduct({a.data(), k, 1}, m, k, {b.data(), 1, n}, n, out);
      return;
    }
    BlockedGemm(a, b, out);
  }

  void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const int m = a.cols(), k = a.rows(), n = b.cols();
    if (Narrow(static_cast<int64_t>(m) * n * k, n, k)) {
      NarrowProduct({a.data(), 1, m}, m, k, {b.data(), 1, n}, n, out);
      return;
    }
    // aᵀ·b via an explicit transpose; the packed-GEMM throughput dwarfs the
    // one extra pass over a.
    Matrix at(a.cols(), a.rows());
    Transpose(a, &at);
    BlockedGemm(at, b, out);
  }

  void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const int m = a.rows(), k = a.cols(), n = b.rows();
    if (Narrow(static_cast<int64_t>(m) * n * k, n, k)) {
      // bᵀ read in place: its panels are packed from b's rows.
      NarrowProduct({a.data(), k, 1}, m, k, {b.data(), k, 1}, n, out);
      return;
    }
    Matrix bt(k, n);
    Transpose(b, &bt);
    BlockedGemm(a, bt, out);
  }

  void Transpose(const Matrix& a, Matrix* out) const override {
    constexpr int kTile = 32;
    if (a.size() < kElementwiseCutoff) {
      NaiveTranspose(a, out);
      return;
    }
    const int rows = a.rows(), cols = a.cols();
    const int64_t row_tiles = (rows + kTile - 1) / kTile;
    pool_.ParallelFor(0, row_tiles, 1, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const int r0 = static_cast<int>(t) * kTile;
        const int r1 = std::min(rows, r0 + kTile);
        for (int c0 = 0; c0 < cols; c0 += kTile) {
          const int c1 = std::min(cols, c0 + kTile);
          for (int r = r0; r < r1; ++r) {
            for (int c = c0; c < c1; ++c) (*out)(c, r) = a(r, c);
          }
        }
      }
    });
  }

  void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const double* pa = a.data();
    const double* pb = b.data();
    double* po = out->data();
    pool_.ParallelFor(0, a.size(), kElementwiseCutoff, [&](int64_t lo, int64_t hi) {
      ScalarHadamard(pa + lo, pb + lo, po + lo, hi - lo);
    });
  }

  void SpmmAccum(const CsrMatrix& a, const Matrix& x, double alpha,
                 Matrix* out) const override {
    const int64_t work = a.nnz() * x.cols();
    if (work < kSpmmWorkCutoff || a.rows() == 0) {
      SpmmRowRange(a, x, alpha, out, 0, a.rows());
      return;
    }
    // nnz-balanced row partition: chunk boundaries are chosen on cumulative
    // nnz (row_ptr is already the prefix sum), so a handful of high-degree
    // rows in a power-law graph can't serialise one chunk while the rest sit
    // idle. Each chunk still owns a disjoint, contiguous output-row range
    // and walks it in row order, so results are independent of both the
    // chunk count and the thread assignment.
    const int64_t num_chunks = std::min<int64_t>(
        pool_.num_threads(), std::max<int64_t>(1, work / kSpmmWorkCutoff));
    if (num_chunks <= 1) {
      SpmmRowRange(a, x, alpha, out, 0, a.rows());
      return;
    }
    const std::vector<int64_t> bounds =
        NnzBalancedRowBounds(a.row_ptr(), a.rows(), num_chunks);
    pool_.ParallelFor(0, num_chunks, 1, [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        SpmmRowRange(a, x, alpha, out, bounds[static_cast<size_t>(c)],
                     bounds[static_cast<size_t>(c + 1)]);
      }
    });
  }

  void Apply(int64_t n, int64_t grain,
             const std::function<void(int64_t, int64_t)>& fn) const override {
    pool_.ParallelFor(0, n, std::max<int64_t>(grain, 1), fn);
  }

  double VDot(const double* a, const double* b, int64_t n) const override {
    if (n < kElementwiseCutoff) return ScalarDot(a, b, n);
    // Fixed-size block partials summed in block order: the result does not
    // depend on how blocks were assigned to threads, and each block's range
    // is a function of n alone.
    const int64_t num_blocks = (n + kReduceBlock - 1) / kReduceBlock;
    std::vector<double> partial(static_cast<size_t>(num_blocks), 0.0);
    pool_.ParallelFor(0, num_blocks, 4, [&](int64_t b0, int64_t b1) {
      for (int64_t blk = b0; blk < b1; ++blk) {
        const int64_t lo = blk * kReduceBlock;
        const int64_t hi = std::min(n, lo + kReduceBlock);
        partial[static_cast<size_t>(blk)] = ScalarDot(a + lo, b + lo, hi - lo);
      }
    });
    double s = 0.0;
    for (double p : partial) s += p;
    return s;
  }

  void VAxpy(double alpha, const double* x, double* y, int64_t n) const override {
    pool_.ParallelFor(0, n, kElementwiseCutoff, [&](int64_t lo, int64_t hi) {
      ScalarAxpy(alpha, x + lo, y + lo, hi - lo);
    });
  }

  void VScale(double alpha, double* x, int64_t n) const override {
    pool_.ParallelFor(0, n, kElementwiseCutoff, [&](int64_t lo, int64_t hi) {
      ScalarScale(alpha, x + lo, hi - lo);
    });
  }

  // Fused CG steps. The update halves are elementwise and split-invariant,
  // so chunking them by reduce blocks (instead of VAxpy's coarser elementwise
  // grain) leaves every element bit-identical; the dot halves then follow
  // VDot's fixed-block partial scheme. Net effect: one pass over y, and the
  // same bits at every thread count. GCC compiles the ScalarDot inlined into
  // each leaf for its context (4-wide products summed in order, then a
  // 2-wide step and an fma-contracted scalar tail), so a returned dot can
  // differ in its last bits from a follow-up VDot(y, y) (see backend.h), and
  // the base class's compositions would move table4 and fig7 cells by up to
  // 3e-13. They stay until a change that moves bits on purpose.
  double VAxpyDot(double alpha, const double* x, double* y, int64_t n) const override {
    if (n < kElementwiseCutoff) return ScalarAxpyDot(alpha, x, y, n);
    return FusedReduce([&](int64_t lo, int64_t hi) {
      return ScalarAxpyDot(alpha, x + lo, y + lo, hi - lo);
    }, n);
  }

  double VDotAxpy(double beta, const double* x, double* y, int64_t n) const override {
    if (n < kElementwiseCutoff) return ScalarXpayDot(beta, x, y, n);
    return FusedReduce([&](int64_t lo, int64_t hi) {
      return ScalarXpayDot(beta, x + lo, y + lo, hi - lo);
    }, n);
  }

  // Support-guided kernels. `rows` entries are distinct (they are nonzero-row
  // supports), so partitioning the row list hands each worker disjoint output
  // rows. Per-element summation order never depends on the partition: the
  // TransB variant is a sum of whole-row dot products and the SpMM variant
  // walks k in CSR order within a row. The TransA variant, whose output rows
  // are shared across `rows`, runs on the narrow tiles on the calling thread.

  void GemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                           const std::vector<int>& rows) const override {
    const int64_t per_row = static_cast<int64_t>(b.rows()) * g.cols();
    const int64_t work = static_cast<int64_t>(rows.size()) * per_row;
    auto run = [&](int64_t lo, int64_t hi) {
      for (int64_t idx = lo; idx < hi; ++idx) {
        const int r = rows[static_cast<size_t>(idx)];
        const double* g_row = g.row(r);
        double* out_row = out->row(r);
        for (int j = 0; j < b.rows(); ++j) {
          out_row[j] += ScalarDot(g_row, b.row(j), g.cols());
        }
      }
    };
    if (work < kGemmSerialCutoff) {
      run(0, static_cast<int64_t>(rows.size()));
      return;
    }
    PPFR_DCHECK(RowsDistinct(rows))
        << "GemmTransBAccumRows: duplicate support rows would race when split";
    const int64_t grain =
        std::max<int64_t>(1, kGemmSerialCutoff / std::max<int64_t>(per_row, 1));
    pool_.ParallelFor(0, static_cast<int64_t>(rows.size()), grain, run);
  }

  // out += aᵀ·g on the narrow tiles, the row list indexing the inner
  // dimension: per element the serial loop's chain over `rows` in list
  // order, minus its zero skip (see the contract in backend.h).
  void GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                           const std::vector<int>& rows) const override {
    NarrowProduct({a.data(), 1, a.cols(), rows.data()}, a.cols(),
                  static_cast<int>(rows.size()), {g.data(), 1, g.cols(), rows.data()},
                  g.cols(), out, /*accumulate=*/true);
  }

  void SpmmAccumRows(const CsrMatrix& a, const Matrix& x, double alpha, Matrix* out,
                     const std::vector<int>& rows,
                     const std::vector<uint8_t>& x_row_nonzero) const override {
    const std::vector<int64_t>& row_ptr = a.row_ptr();
    int64_t nnz = 0;
    for (int r : rows) nnz += row_ptr[r + 1] - row_ptr[r];
    const int64_t work = nnz * x.cols();
    const bool masked = !x_row_nonzero.empty();
    const std::vector<int>& col_idx = a.col_idx();
    const std::vector<double>& values = a.values();
    const int n = x.cols();
    // Every row's nonzero list goes through the multi-column leaf (bitwise
    // the per-nonzero axpy sequence). A masked row first drops the entries
    // whose x row is marked zero, into the chunk's scratch lists. (Scratch
    // is per call, never thread_local: a pool worker's thread_local storage
    // would leak in a forked child, where the worker no longer exists.)
    auto run = [&](int64_t lo, int64_t hi) {
      std::vector<double> kept_vals;
      std::vector<int> kept_cols;
      for (int64_t idx = lo; idx < hi; ++idx) {
        const int r = rows[static_cast<size_t>(idx)];
        PPFR_DCHECK_GE(r, 0);
        PPFR_DCHECK_LT(r, a.rows());
        const double* vals = values.data() + row_ptr[r];
        const int* cols = col_idx.data() + row_ptr[r];
        int64_t count = row_ptr[r + 1] - row_ptr[r];
        if (masked) {
          kept_vals.clear();
          kept_cols.clear();
          for (int64_t k = 0; k < count; ++k) {
            if (!x_row_nonzero[cols[k]]) continue;
            kept_vals.push_back(vals[k]);
            kept_cols.push_back(cols[k]);
          }
          vals = kept_vals.data();
          cols = kept_cols.data();
          count = static_cast<int64_t>(kept_vals.size());
        }
        if (count > 0) {
          ScalarSpmmRow(vals, cols, count, alpha, x.data(), x.cols(), out->row(r), n);
        }
      }
    };
    if (work < kSpmmWorkCutoff || rows.empty()) {
      run(0, static_cast<int64_t>(rows.size()));
      return;
    }
    PPFR_DCHECK(RowsDistinct(rows))
        << "SpmmAccumRows: duplicate support rows would race when split";
    const int64_t per_row =
        std::max<int64_t>(1, work / static_cast<int64_t>(rows.size()));
    const int64_t grain = std::max<int64_t>(1, kSpmmWorkCutoff / per_row);
    pool_.ParallelFor(0, static_cast<int64_t>(rows.size()), grain, run);
  }

 private:
  // Runs a fused update+square-reduce leaf over the VDot reduce-block grid
  // and sums the partials in block order (the VDot determinism scheme).
  template <typename BlockFn>
  double FusedReduce(const BlockFn& block_fn, int64_t n) const {
    const int64_t num_blocks = (n + kReduceBlock - 1) / kReduceBlock;
    std::vector<double> partial(static_cast<size_t>(num_blocks), 0.0);
    pool_.ParallelFor(0, num_blocks, 4, [&](int64_t b0, int64_t b1) {
      for (int64_t blk = b0; blk < b1; ++blk) {
        const int64_t lo = blk * kReduceBlock;
        const int64_t hi = std::min(n, lo + kReduceBlock);
        partial[static_cast<size_t>(blk)] = block_fn(lo, hi);
      }
    });
    double s = 0.0;
    for (double p : partial) s += p;
    return s;
  }

  // out(r0:r1, :) += alpha * a(r0:r1, :) * x — one contiguous row range,
  // each row's whole nonzero list routed through the multi-column
  // ScalarSpmmRow leaf (bitwise the per-nonzero axpy sequence, with the
  // output columns held in registers across the nonzeros).
  void SpmmRowRange(const CsrMatrix& a, const Matrix& x, double alpha, Matrix* out,
                    int64_t row_begin, int64_t row_end) const {
    const int n = x.cols();
    const std::vector<int64_t>& row_ptr = a.row_ptr();
    const std::vector<int>& col_idx = a.col_idx();
    const std::vector<double>& values = a.values();
    for (int64_t r = row_begin; r < row_end; ++r) {
      const int64_t k0 = row_ptr[r], k1 = row_ptr[r + 1];
      if (k0 == k1) continue;
      ScalarSpmmRow(values.data() + k0, col_idx.data() + k0, k1 - k0, alpha, x.data(),
                    x.cols(), out->row(static_cast<int>(r)), n);
    }
  }

  // GEBP-blocked GEMM. B panels are packed transposed into NR-wide, k-major
  // slivers (so the micro-kernel streams both operands with unit stride), A
  // panels into MR-wide k-major slivers; both are zero-padded to full tiles
  // so the register kernel never branches on edges.
  void BlockedGemm(const Matrix& a, const Matrix& b, Matrix* out) const {
    const int m = a.rows(), k = a.cols(), n = b.cols();
    out->Zero();
    if (m == 0 || n == 0 || k == 0) return;

    std::vector<double> bpack;
    for (int jc = 0; jc < n; jc += kNc) {
      const int nc = std::min(kNc, n - jc);
      const int64_t num_p_panels = (nc + kNr - 1) / kNr;
      for (int kc = 0; kc < k; kc += kKc) {
        const int kb = std::min(kKc, k - kc);
        PackPanels({b.data(), 1, b.cols()}, kc, kb, jc, nc, &bpack);

        const int64_t num_ic_blocks = (m + kMc - 1) / kMc;
        if (num_ic_blocks >= pool_.num_threads() || num_ic_blocks >= num_p_panels) {
          // Tall m: partition row blocks across threads, each packing its own
          // A panels.
          pool_.ParallelFor(0, num_ic_blocks, 1, [&](int64_t blk0, int64_t blk1) {
            std::vector<double> apack;
            for (int64_t blk = blk0; blk < blk1; ++blk) {
              const int ic = static_cast<int>(blk) * kMc;
              const int mc = std::min(kMc, m - ic);
              const int mcp = PackA(a, ic, mc, kc, kb, &apack);
              for (int p = 0; p < num_p_panels; ++p) {
                const double* bp = bpack.data() + static_cast<size_t>(p) * kb * kNr;
                const int nr = std::min(kNr, nc - p * kNr);
                for (int q = 0; q < mcp / kMr; ++q) {
                  const double* ap = apack.data() + static_cast<size_t>(q) * kb * kMr;
                  ScalarMicroKernel(ap, bp, kb, out->row(ic + q * kMr) + jc + p * kNr,
                                    out->cols(), std::min(kMr, mc - q * kMr), nr);
                }
              }
            }
          });
        } else {
          // Skinny m (fewer row blocks than threads, e.g. weight-gradient
          // GEMMs where m is a hidden width): pack A once and partition the
          // B column panels across threads instead — each thread owns a
          // disjoint column range of out.
          std::vector<double> apack;
          for (int64_t blk = 0; blk < num_ic_blocks; ++blk) {
            const int ic = static_cast<int>(blk) * kMc;
            const int mc = std::min(kMc, m - ic);
            const int mcp = PackA(a, ic, mc, kc, kb, &apack);
            pool_.ParallelFor(0, num_p_panels, 1, [&](int64_t p0, int64_t p1) {
              for (int64_t p = p0; p < p1; ++p) {
                const double* bp = bpack.data() + static_cast<size_t>(p) * kb * kNr;
                const int nr = std::min(kNr, nc - static_cast<int>(p) * kNr);
                for (int q = 0; q < mcp / kMr; ++q) {
                  const double* ap = apack.data() + static_cast<size_t>(q) * kb * kMr;
                  ScalarMicroKernel(ap, bp, kb,
                                    out->row(ic + q * kMr) + jc + static_cast<int>(p) * kNr,
                                    out->cols(), std::min(kMr, mc - q * kMr), nr);
                }
              }
            });
          }
        }
      }
    }
  }

  // Packs the (ic, kc) panel of A into MR-wide k-major slivers, zero-padded
  // to full tiles. Returns the padded row count mcp.
  static int PackA(const Matrix& a, int ic, int mc, int kc, int kb,
                   std::vector<double>* apack) {
    const int mcp = static_cast<int>(RoundUp(mc, kMr));
    apack->assign(static_cast<size_t>(kb) * mcp, 0.0);
    for (int q = 0; q < mcp / kMr; ++q) {
      double* dst = apack->data() + static_cast<size_t>(q) * kb * kMr;
      const int valid = std::min(kMr, mc - q * kMr);
      for (int ir = 0; ir < valid; ++ir) {
        const double* a_row = a.row(ic + q * kMr + ir) + kc;
        for (int kk = 0; kk < kb; ++kk) dst[kk * kMr + ir] = a_row[kk];
      }
    }
    return mcp;
  }

  static int64_t RoundUp(int64_t v, int64_t multiple) {
    return (v + multiple - 1) / multiple * multiple;
  }

  mutable ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::unique_ptr<Backend>& BackendSlot() {
  static std::unique_ptr<Backend> slot;
  return slot;
}

// Worker-thread override installed by ThreadLocalBackendGuard.
thread_local Backend* t_backend_override = nullptr;

BackendKind g_active_kind = BackendKind::kParallel;
int g_active_threads = 0;  // requested value; 0 = hardware concurrency

// First-use initialisation from the environment. call_once makes a cold
// concurrent ActiveBackend() safe; swapping backends afterwards
// (SetActiveBackend) is an orchestration-thread-only operation, like the
// kernels themselves (see ThreadPool::ParallelFor).
std::once_flag g_env_init_once;

void InitFromEnvIfNeeded() {
  std::call_once(g_env_init_once, [] {
    if (BackendSlot() != nullptr) return;  // SetActiveBackend already ran
    BackendKind kind = BackendKind::kParallel;
    int threads = 0;
    if (const char* env = std::getenv("PPFR_LA_BACKEND")) {
      const std::string value(env);
      if (value == "reference") {
        kind = BackendKind::kReference;
      } else {
        PPFR_CHECK(value == "parallel" || value.empty())
            << "PPFR_LA_BACKEND must be 'reference' or 'parallel', got '" << value << "'";
      }
    }
    // Strict: "4x" or an out-of-int value dies naming the variable; empty is
    // unset and a value <= 0 means one thread per core.
    const char* threads_env = std::getenv("PPFR_LA_THREADS");
    if (threads_env != nullptr && *threads_env != '\0') {
      int64_t v = 0;
      PPFR_CHECK(ParseInt64Strict(threads_env, &v) &&
                 v >= std::numeric_limits<int>::min() &&
                 v <= std::numeric_limits<int>::max())
          << "PPFR_LA_THREADS must be an integer, got '" << threads_env << "'";
      threads = static_cast<int>(v);
    }
    SetActiveBackend(kind, threads);
  });
}

}  // namespace

void Backend::GemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                                  const std::vector<int>& rows) const {
  SerialGemmTransBAccumRows(g, b, out, rows);
}

void Backend::GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                                  const std::vector<int>& rows) const {
  SerialGemmTransAAccumRows(a, g, out, rows);
}

void Backend::SpmmAccumRows(const CsrMatrix& a, const Matrix& x, double alpha,
                            Matrix* out, const std::vector<int>& rows,
                            const std::vector<uint8_t>& x_row_nonzero) const {
  SerialSpmmAccumRows(a, x, alpha, out, rows, x_row_nonzero);
}

// Unfused compositions — the bitwise definition of the fused contracts
// (ReferenceBackend keeps these; ParallelBackend overrides them with
// single-pass loops, see backend.h for where their bits can differ).
double Backend::VAxpyDot(double alpha, const double* x, double* y, int64_t n) const {
  VAxpy(alpha, x, y, n);
  return VDot(y, y, n);
}

double Backend::VDotAxpy(double beta, const double* x, double* y, int64_t n) const {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] + beta * y[i];
  return VDot(y, y, n);
}

std::string BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kReference:
      return "reference";
    case BackendKind::kParallel:
      return "parallel";
  }
  return "unknown";
}

std::unique_ptr<Backend> MakeBackend(BackendKind kind, int num_threads) {
  switch (kind) {
    case BackendKind::kReference:
      return std::make_unique<ReferenceBackend>();
    case BackendKind::kParallel:
      return std::make_unique<ParallelBackend>(num_threads);
  }
  PPFR_CHECK(false) << "unknown backend kind";
  return nullptr;
}

Backend& ActiveBackend() {
  if (t_backend_override != nullptr) return *t_backend_override;
  InitFromEnvIfNeeded();
  return *BackendSlot();
}

ThreadLocalBackendGuard::ThreadLocalBackendGuard(Backend* backend)
    : previous_(t_backend_override) {
  t_backend_override = backend;
}

ThreadLocalBackendGuard::~ThreadLocalBackendGuard() { t_backend_override = previous_; }

BackendKind ActiveBackendKind() {
  InitFromEnvIfNeeded();
  return g_active_kind;
}

void SetActiveBackend(BackendKind kind, int num_threads) {
  BackendSlot() = MakeBackend(kind, num_threads);
  g_active_kind = kind;
  g_active_threads = num_threads;
}

void ConfigureBackendFromFlags(const Flags& flags) {
  InitFromEnvIfNeeded();
  BackendKind kind = g_active_kind;
  int threads = g_active_threads;
  if (flags.Has("la_backend")) {
    const std::string value = flags.GetString("la_backend", "");
    if (value == "reference") {
      kind = BackendKind::kReference;
    } else if (value == "parallel") {
      kind = BackendKind::kParallel;
    } else {
      PPFR_CHECK(false) << "--la_backend must be 'reference' or 'parallel', got '" << value
                        << "'";
    }
  }
  if (flags.Has("la_threads")) threads = flags.GetInt("la_threads", threads);
  // Avoid tearing down and respawning an identical thread pool when the
  // flags only restate the current configuration.
  if (kind != g_active_kind || threads != g_active_threads) {
    SetActiveBackend(kind, threads);
  }
}

ScopedBackend::ScopedBackend(BackendKind kind, int num_threads) {
  InitFromEnvIfNeeded();
  previous_kind_ = g_active_kind;
  previous_threads_ = g_active_threads;
  SetActiveBackend(kind, num_threads);
}

ScopedBackend::~ScopedBackend() { SetActiveBackend(previous_kind_, previous_threads_); }

}  // namespace ppfr::la
