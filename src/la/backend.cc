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
#include "la/simd_kernels.h"

namespace ppfr::la {
namespace {

// ---------------------------------------------------------------------------
// Naive kernels. These are the original seed loops, kept verbatim: they are
// the ReferenceBackend (correctness oracle) and the small-problem fallback of
// the ParallelBackend, where blocking/packing overhead would dominate.
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
      for (int j = 0; j < b.cols(); ++j) out_row[j] += aik * b_row[j];
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
      for (int j = 0; j < b.cols(); ++j) out_row[j] += aki * b_row[j];
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
      for (int k = 0; k < a.cols(); ++k) s += a_row[k] * b_row[k];
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
      for (int j = 0; j < n; ++j) out_row[j] += w * x_row[j];
    }
  }
}

// Serial support-guided kernels: the original loops from matrix.cc /
// csr_matrix.cc, now the Backend base-class (and small-support) path. The
// supports a seeded backward produces are tiny, so these loops are the fast
// path; ParallelBackend/SimdBackend only diverge above a work threshold.

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
      for (int j = 0; j < g.cols(); ++j) out_row[j] += ari * g_row[j];
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
      for (int j = 0; j < n; ++j) out_row[j] += w * x_row[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Leaf-kernel table. The ParallelBackend owns blocking, packing, cutoffs and
// the thread pool; the innermost register/vector loops are routed through
// this table so the SimdBackend can swap in the AVX2/FMA (or AVX-512)
// variants from la/simd_kernels.h without duplicating any dispatch logic —
// and fall back to the scalar set per-routine when the CPU probe fails.
// ---------------------------------------------------------------------------

struct LeafKernels {
  // Packed GEMM micro-kernel; see simd::MicroKernel4x8Avx2 for the contract.
  void (*gemm_micro)(const double* ap, const double* bp, int kb, double* out,
                     int64_t out_stride, int mr, int nr);
  // Width of the packed B slivers gemm_micro consumes (the NR of its register
  // tile). BlockedGemm packs B to this width, so a wider-vector kernel (the
  // 16-wide AVX-512 tile) gets matching panels without a second packing
  // scheme.
  int pack_nr;
  double (*dot)(const double* a, const double* b, int64_t n);
  void (*axpy)(double alpha, const double* x, double* y, int64_t n);
  void (*scale)(double alpha, double* x, int64_t n);
  void (*hadamard)(const double* a, const double* b, double* out, int64_t n);
  // Fused CG-step leaves; see Backend::VAxpyDot / Backend::VDotAxpy for the
  // bitwise contracts they implement.
  double (*axpy_dot)(double alpha, const double* x, double* y, int64_t n);
  double (*xpay_dot)(double beta, const double* x, double* y, int64_t n);
  // Multi-column CSR row kernel: for one output row,
  //   out_row[j] += Σ_k (alpha·vals[k]) · x(cols[k], j),  k in CSR order.
  // Must be bitwise equal to the per-nonzero axpy sequence
  // (for k: axpy(alpha·vals[k], x.row(cols[k]), out_row, n)); the vector
  // variant (simd::SpmmRow) keeps out_row columns in registers across the
  // whole nonzero list instead of re-loading/re-storing them per nonzero —
  // the win that widens with the operand's column count.
  void (*spmm_row)(const double* vals, const int* cols, int64_t nnz, double alpha,
                   const double* x, int64_t x_stride, double* out_row, int64_t n);
};

// Register micro-tile (MR x NR accumulators) and cache panels: an MC x KC
// packed panel of A lives in L2, a KC x NR sliver of packed B streams from
// L1, and the KC x NC packed B panel sits in L3.
constexpr int kMr = 4;
constexpr int kNr = 8;
constexpr int kMc = 64;
constexpr int kKc = 256;
constexpr int kNc = 2048;

// The SIMD micro-kernels are written for exactly this A-sliver geometry (the
// B width is per-kernel via LeafKernels::pack_nr, and kNc must stay a
// multiple of every pack_nr in use).
static_assert(kMr == 4, "simd micro-kernels assume 4-wide packed A slivers");
static_assert(kNc % 16 == 0, "kNc must be a multiple of every pack_nr");

// Below these sizes the naive loops win (no packing / dispatch overhead).
constexpr int64_t kGemmSerialCutoff = 32 * 1024;   // m*n*k
constexpr int64_t kElementwiseCutoff = 32 * 1024;  // flat elements
constexpr int64_t kSpmmWorkCutoff = 32 * 1024;     // nnz * x.cols()
constexpr int64_t kReduceBlock = 4096;             // deterministic partial sums

void ScalarMicroKernel(const double* ap, const double* bp, int kb, double* out,
                       int64_t out_stride, int mr, int nr) {
  // The kMr*kNr accumulators live in registers; the jr loop is the SIMD
  // dimension (auto-vectorized under -march=native).
  double acc[kMr * kNr] = {0.0};
  for (int kk = 0; kk < kb; ++kk) {
    const double* av = ap + static_cast<size_t>(kk) * kMr;
    const double* bv = bp + static_cast<size_t>(kk) * kNr;
    for (int ir = 0; ir < kMr; ++ir) {
      const double aik = av[ir];
      for (int jr = 0; jr < kNr; ++jr) acc[ir * kNr + jr] += aik * bv[jr];
    }
  }
  for (int ir = 0; ir < mr; ++ir) {
    double* out_row = out + ir * out_stride;
    for (int jr = 0; jr < nr; ++jr) out_row[jr] += acc[ir * kNr + jr];
  }
}

double ScalarDot(const double* a, const double* b, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void ScalarAxpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarScale(double alpha, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ScalarHadamard(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

// The scalar fused leaves are literally the unfused compositions — that IS
// the bitwise definition of the fused contract, and the single-pass win only
// materialises in the vector variants (simd::AxpyDot / simd::XpayDot), where
// explicit intrinsics pin the per-element operations exactly.
double ScalarAxpyDot(double alpha, const double* x, double* y, int64_t n) {
  ScalarAxpy(alpha, x, y, n);
  return ScalarDot(y, y, n);
}

double ScalarXpayDot(double beta, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] + beta * y[i];
  return ScalarDot(y, y, n);
}

void ScalarSpmmRow(const double* vals, const int* cols, int64_t nnz, double alpha,
                   const double* x, int64_t x_stride, double* out_row, int64_t n) {
  // Literally the repeated-ScalarAxpy sequence — the bitwise definition of
  // the spmm_row contract.
  for (int64_t k = 0; k < nnz; ++k) {
    const double w = alpha * vals[k];
    const double* x_row = x + static_cast<size_t>(cols[k]) * x_stride;
    for (int64_t j = 0; j < n; ++j) out_row[j] += w * x_row[j];
  }
}

constexpr LeafKernels kScalarLeafKernels = {&ScalarMicroKernel, kNr, &ScalarDot,
                                            &ScalarAxpy, &ScalarScale,
                                            &ScalarHadamard, &ScalarAxpyDot,
                                            &ScalarXpayDot, &ScalarSpmmRow};

// Debug guard for the row-partitioned support kernels: partitioning the row
// list across workers is only race-free because support entries are distinct
// output rows. The serial paths tolerate duplicates, so this is checked only
// where the list is about to be split.
bool RowsDistinct(std::vector<int> rows) {
  std::sort(rows.begin(), rows.end());
  return std::adjacent_find(rows.begin(), rows.end()) == rows.end();
}

// AVX2+FMA leaf kernels, with the GEMM micro-kernel upgraded to the 16-wide
// AVX-512 tile when the CPU has it (bitwise identical — one fma per element
// per k step either way). Only called when simd::KernelsUsable() passed.
LeafKernels SimdLeafKernels() {
  LeafKernels kernels = kScalarLeafKernels;
  if (simd::CpuSupportsAvx512() && !simd::Avx512DisabledByEnv()) {
    kernels.gemm_micro = &simd::MicroKernel4x16Avx512;
    kernels.pack_nr = 16;
  } else {
    kernels.gemm_micro = &simd::MicroKernel4x8Avx2;
    kernels.pack_nr = kNr;
  }
  kernels.dot = &simd::VDot;
  kernels.axpy = &simd::VAxpy;
  kernels.scale = &simd::VScale;
  kernels.hadamard = &simd::Hadamard;
  kernels.axpy_dot = &simd::AxpyDot;
  kernels.xpay_dot = &simd::XpayDot;
  kernels.spmm_row = &simd::SpmmRow;
  return kernels;
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
// row-partitioned sparse/elementwise kernels on a shared thread pool. The
// innermost loops come from a LeafKernels table so SimdBackend (below) can
// reuse every dispatch decision with vector leaf kernels.
//
// Determinism: for a fixed problem the floating-point summation order is
// independent of the thread count — GEMM assigns each output tile to exactly
// one thread and walks k in ascending panel order, SpMM partitions disjoint
// rows, and reductions sum fixed-size block partials in block order. The
// SIMD leaf kernels preserve this: their per-element results depend only on
// the inputs (elementwise lanes and scalar tails round identically), and the
// only vectorized reduction (dot) runs over the same fixed blocks.
// ---------------------------------------------------------------------------

class ParallelBackend : public Backend {
 public:
  explicit ParallelBackend(int num_threads,
                           const LeafKernels& kernels = kScalarLeafKernels)
      : kernels_(kernels), pool_(num_threads) {}

  std::string name() const override { return "parallel"; }
  int num_threads() const override { return pool_.num_threads(); }

  void Gemm(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const int m = a.rows(), k = a.cols(), n = b.cols();
    const int64_t work = static_cast<int64_t>(m) * n * k;
    if (work < kGemmSerialCutoff || n < kNr || k < 8) {
      // The n cutoff is the scalar tile width (not pack_nr): below a full
      // 8-wide sliver the packing overhead dominates any micro-kernel.
      NaiveGemm(a, b, out);
      return;
    }
    BlockedGemm(a, b, out);
  }

  void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const int64_t work = static_cast<int64_t>(a.cols()) * b.cols() * a.rows();
    if (work < kGemmSerialCutoff || b.cols() < kNr || a.rows() < 8) {
      NaiveGemmTransA(a, b, out);
      return;
    }
    // aᵀ·b via an explicit transpose; the packed-GEMM throughput dwarfs the
    // one extra pass over a.
    Matrix at(a.cols(), a.rows());
    Transpose(a, &at);
    BlockedGemm(at, b, out);
  }

  void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) const override {
    const int64_t work = static_cast<int64_t>(a.rows()) * b.rows() * a.cols();
    if (work < kGemmSerialCutoff || b.rows() < kNr || a.cols() < 8) {
      NaiveGemmTransB(a, b, out);
      return;
    }
    Matrix bt(b.cols(), b.rows());
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
      kernels_.hadamard(pa + lo, pb + lo, po + lo, hi - lo);
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
    if (n < kElementwiseCutoff) return kernels_.dot(a, b, n);
    // Fixed-size block partials summed in block order: the result does not
    // depend on how blocks were assigned to threads, and each block's range
    // is a function of n alone — so the vector kernel's lane pattern inside
    // a block is fixed too.
    const int64_t num_blocks = (n + kReduceBlock - 1) / kReduceBlock;
    std::vector<double> partial(static_cast<size_t>(num_blocks), 0.0);
    pool_.ParallelFor(0, num_blocks, 4, [&](int64_t b0, int64_t b1) {
      for (int64_t blk = b0; blk < b1; ++blk) {
        const int64_t lo = blk * kReduceBlock;
        const int64_t hi = std::min(n, lo + kReduceBlock);
        partial[static_cast<size_t>(blk)] = kernels_.dot(a + lo, b + lo, hi - lo);
      }
    });
    double s = 0.0;
    for (double p : partial) s += p;
    return s;
  }

  void VAxpy(double alpha, const double* x, double* y, int64_t n) const override {
    pool_.ParallelFor(0, n, kElementwiseCutoff, [&](int64_t lo, int64_t hi) {
      kernels_.axpy(alpha, x + lo, y + lo, hi - lo);
    });
  }

  void VScale(double alpha, double* x, int64_t n) const override {
    pool_.ParallelFor(0, n, kElementwiseCutoff, [&](int64_t lo, int64_t hi) {
      kernels_.scale(alpha, x + lo, hi - lo);
    });
  }

  // Fused CG steps. The update halves are elementwise and split-invariant,
  // so chunking them by reduce blocks (instead of VAxpy's coarser elementwise
  // grain) leaves every element bit-identical; the dot halves then follow
  // VDot's exact fixed-block partial scheme. Net effect: one pass over y, and
  // bitwise equality with the unfused sequences at every n and thread count.
  double VAxpyDot(double alpha, const double* x, double* y, int64_t n) const override {
    if (n < kElementwiseCutoff) return kernels_.axpy_dot(alpha, x, y, n);
    return FusedReduce([&](int64_t lo, int64_t hi) {
      return kernels_.axpy_dot(alpha, x + lo, y + lo, hi - lo);
    }, n);
  }

  double VDotAxpy(double beta, const double* x, double* y, int64_t n) const override {
    if (n < kElementwiseCutoff) return kernels_.xpay_dot(beta, x, y, n);
    return FusedReduce([&](int64_t lo, int64_t hi) {
      return kernels_.xpay_dot(beta, x + lo, y + lo, hi - lo);
    }, n);
  }

  // Support-guided kernels. `rows` entries are distinct (they are nonzero-row
  // supports), so partitioning the row list hands each worker disjoint output
  // rows. Per-element summation order never depends on the partition: the
  // TransB variant is a sum of whole-row dot products, the SpMM variant walks
  // k in CSR order within a row, and the TransA variant (whose output rows
  // are shared across `rows`) is partitioned over output *columns* instead,
  // with every worker walking `rows` in list order.

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
          out_row[j] += kernels_.dot(g_row, b.row(j), g.cols());
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

  void GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                           const std::vector<int>& rows) const override {
    const int64_t per_col = static_cast<int64_t>(rows.size()) * a.cols();
    const int64_t work = per_col * g.cols();
    auto run = [&](int64_t j_lo, int64_t j_hi) {
      const int64_t len = j_hi - j_lo;
      for (int r : rows) {
        const double* a_row = a.row(r);
        const double* g_row = g.row(r) + j_lo;
        for (int i = 0; i < a.cols(); ++i) {
          const double ari = a_row[i];
          if (ari == 0.0) continue;
          kernels_.axpy(ari, g_row, out->row(i) + j_lo, len);
        }
      }
    };
    if (work < kGemmSerialCutoff) {
      run(0, g.cols());
      return;
    }
    const int64_t grain =
        std::max<int64_t>(1, kGemmSerialCutoff / std::max<int64_t>(per_col, 1));
    pool_.ParallelFor(0, g.cols(), grain, run);
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
    auto run = [&](int64_t lo, int64_t hi) {
      for (int64_t idx = lo; idx < hi; ++idx) {
        const int r = rows[static_cast<size_t>(idx)];
        PPFR_DCHECK_GE(r, 0);
        PPFR_DCHECK_LT(r, a.rows());
        double* out_row = out->row(r);
        if (!masked) {
          // Unmasked rows take the whole nonzero list through the
          // multi-column leaf (bitwise the per-nonzero axpy sequence).
          const int64_t k0 = row_ptr[r], k1 = row_ptr[r + 1];
          if (k0 < k1) {
            kernels_.spmm_row(values.data() + k0, col_idx.data() + k0, k1 - k0,
                              alpha, x.data(), x.cols(), out_row, n);
          }
          continue;
        }
        for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
          const int c = col_idx[k];
          if (!x_row_nonzero[c]) continue;
          kernels_.axpy(alpha * values[k], x.row(c), out_row, n);
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
  // each row's whole nonzero list routed through the multi-column spmm_row
  // leaf (bitwise the old per-nonzero axpy sequence; the vector variant holds
  // the output columns in registers across the nonzeros).
  void SpmmRowRange(const CsrMatrix& a, const Matrix& x, double alpha, Matrix* out,
                    int64_t row_begin, int64_t row_end) const {
    const int n = x.cols();
    const std::vector<int64_t>& row_ptr = a.row_ptr();
    const std::vector<int>& col_idx = a.col_idx();
    const std::vector<double>& values = a.values();
    for (int64_t r = row_begin; r < row_end; ++r) {
      const int64_t k0 = row_ptr[r], k1 = row_ptr[r + 1];
      if (k0 == k1) continue;
      kernels_.spmm_row(values.data() + k0, col_idx.data() + k0, k1 - k0, alpha,
                        x.data(), x.cols(), out->row(static_cast<int>(r)), n);
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

    // B slivers are packed to the active micro-kernel's register-tile width
    // (8 for the scalar/AVX2 kernels, 16 for the AVX-512 tile).
    const int nrp = kernels_.pack_nr;
    std::vector<double> bpack;
    for (int jc = 0; jc < n; jc += kNc) {
      const int nc = std::min(kNc, n - jc);
      const int ncp = static_cast<int>(RoundUp(nc, nrp));
      for (int kc = 0; kc < k; kc += kKc) {
        const int kb = std::min(kKc, k - kc);
        bpack.assign(static_cast<size_t>(kb) * ncp, 0.0);
        for (int p = 0; p < ncp / nrp; ++p) {
          double* dst = bpack.data() + static_cast<size_t>(p) * kb * nrp;
          const int valid = std::min(nrp, nc - p * nrp);
          for (int kk = 0; kk < kb; ++kk) {
            const double* b_row = b.row(kc + kk) + jc + p * nrp;
            for (int j = 0; j < valid; ++j) dst[kk * nrp + j] = b_row[j];
          }
        }

        const int64_t num_ic_blocks = (m + kMc - 1) / kMc;
        const int64_t num_p_panels = ncp / nrp;
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
                const double* bp = bpack.data() + static_cast<size_t>(p) * kb * nrp;
                const int nr = std::min(nrp, nc - p * nrp);
                for (int q = 0; q < mcp / kMr; ++q) {
                  const double* ap = apack.data() + static_cast<size_t>(q) * kb * kMr;
                  kernels_.gemm_micro(ap, bp, kb, out->row(ic + q * kMr) + jc + p * nrp,
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
                const double* bp = bpack.data() + static_cast<size_t>(p) * kb * nrp;
                const int nr = std::min(nrp, nc - static_cast<int>(p) * nrp);
                for (int q = 0; q < mcp / kMr; ++q) {
                  const double* ap = apack.data() + static_cast<size_t>(q) * kb * kMr;
                  kernels_.gemm_micro(
                      ap, bp, kb,
                      out->row(ic + q * kMr) + jc + static_cast<int>(p) * nrp,
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

  LeafKernels kernels_;
  mutable ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// SimdBackend: the ParallelBackend dispatch layer with the AVX2/FMA leaf
// kernels (la/simd_kernels.h) swapped in. The CPU probe and the
// PPFR_SIMD_DISABLE escape hatch are sampled once at construction; when
// either fails, the scalar leaf-kernel table is used instead, which makes
// every routine fall back to the exact ParallelBackend behaviour.
// ---------------------------------------------------------------------------

class SimdBackend final : public ParallelBackend {
 public:
  explicit SimdBackend(int num_threads)
      : ParallelBackend(num_threads, simd::KernelsUsable() ? SimdLeafKernels()
                                                           : kScalarLeafKernels),
        simd_active_(simd::KernelsUsable()) {}

  std::string name() const override { return "simd"; }
  bool simd_active() const override { return simd_active_; }

 private:
  const bool simd_active_;
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
      } else if (value == "simd") {
        kind = BackendKind::kSimd;
      } else {
        PPFR_CHECK(value == "parallel" || value.empty())
            << "PPFR_LA_BACKEND must be 'reference', 'parallel' or 'simd', got '"
            << value << "'";
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
// (ReferenceBackend keeps these; ParallelBackend overrides with single-pass
// loops that match them bit for bit).
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
    case BackendKind::kSimd:
      return "simd";
  }
  return "unknown";
}

std::unique_ptr<Backend> MakeBackend(BackendKind kind, int num_threads) {
  switch (kind) {
    case BackendKind::kReference:
      return std::make_unique<ReferenceBackend>();
    case BackendKind::kParallel:
      return std::make_unique<ParallelBackend>(num_threads);
    case BackendKind::kSimd:
      return std::make_unique<SimdBackend>(num_threads);
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
    } else if (value == "simd") {
      kind = BackendKind::kSimd;
    } else {
      PPFR_CHECK(false)
          << "--la_backend must be 'reference', 'parallel' or 'simd', got '"
          << value << "'";
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
