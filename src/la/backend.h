#ifndef PPFR_LA_BACKEND_H_
#define PPFR_LA_BACKEND_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "la/csr_matrix.h"
#include "la/matrix.h"

namespace ppfr {
class Flags;
}  // namespace ppfr

namespace ppfr::la {

// c + a·b: one fused rounding where the target has FMA, a product and a sum
// otherwise. That is what GCC's contraction makes of `c += a * b` at -O2 and
// above, but it contracts nothing at -O0 or -O1, and the vectoriser may
// split a plain `+=` into separate products and adds. So every loop whose
// bits another kernel must reproduce (the reference loops and the register
// tiles that match them) writes its updates through this instead. It is
// never an unconditional std::fma, which is a libm call on targets without
// the instruction.
inline double MulAdd(double a, double b, double c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

// Compute backend behind every dense/sparse linear-algebra hot path in the
// library. The free functions in matrix.h, CsrMatrix::Multiply*, and the
// flat-vector helpers in influence/param_vector.h all dispatch through the
// active backend, so autograd, nn, influence and privacy never touch a raw
// kernel directly — swapping the backend re-routes the whole stack.
//
// Implementations:
//   * ReferenceBackend — the original single-threaded loops, kept as the
//     correctness oracle for tests.
//   * ParallelBackend  — cache-blocked GEMM with packed operands,
//     multi-threaded via common/thread_pool.h, and row-partitioned CSR SpMM.
//     Products below the blocking cutoffs (every narrow product at the
//     paper's sizes) run on register tiles that keep the reference loops'
//     bits; see MulAdd and README "Narrow kernels".
//   * SimdBackend      — the ParallelBackend dispatch/blocking layer with
//     AVX2+FMA register micro-kernels (la/simd_kernels.h) swapped in as the
//     leaf kernels; CPU features are probed at construction and any missing
//     capability (or PPFR_SIMD_DISABLE=1) falls back to the scalar leaf
//     kernels per-routine, so the binary builds and runs everywhere.
//
// Threading contract: kernels fan work out across the pool internally, but
// must be *invoked* from a single orchestration thread at a time (the
// ParallelBackend pool is not reentrant and concurrent entry trips its
// ParallelFor check). Parallelism across independent problems belongs above
// this layer, e.g. the tape-pool design sketched in ROADMAP.md.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;
  virtual int num_threads() const { return 1; }
  // True when this backend actually executes SIMD leaf kernels (i.e. it is a
  // SimdBackend AND the runtime feature probe passed AND the operator did not
  // force the fallback). Bench artifacts record this next to the timings.
  virtual bool simd_active() const { return false; }

  // Dense GEMM family. `out` must be preallocated to the result shape; the
  // kernels overwrite it.
  virtual void Gemm(const Matrix& a, const Matrix& b, Matrix* out) const = 0;        // a·b
  virtual void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) const = 0;  // aᵀ·b
  virtual void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) const = 0;  // a·bᵀ
  virtual void Transpose(const Matrix& a, Matrix* out) const = 0;

  // Elementwise / reduction kernels on matrices.
  virtual void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) const = 0;
  double Dot(const Matrix& a, const Matrix& b) const {
    return VDot(a.data(), b.data(), a.size());
  }

  // Generic range runner for elementwise/row-partitioned loops that have no
  // dedicated kernel (activations, row softmax, gathers). Splits [0, n) into
  // disjoint chunks of at least `grain` indices and invokes fn(begin, end)
  // over them — possibly across threads, so fn must only write per-index
  // state. Because chunks are disjoint and per-index work is independent, the
  // result is bitwise identical for any thread count.
  virtual void Apply(int64_t n, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn) const = 0;

  // Sparse: out += alpha * a * x, row-major dense x/out.
  virtual void SpmmAccum(const CsrMatrix& a, const Matrix& x, double alpha,
                         Matrix* out) const = 0;

  // Support-guided row-subset kernels behind the seeded-backward row-support
  // machinery (autograd GradRefPartial; see matrix.h / csr_matrix.h for the
  // shape contracts, which the free-function wrappers check). The base-class
  // implementations are the serial scalar loops — the correct choice for the
  // small supports a per-node backward produces; ParallelBackend and
  // SimdBackend override them with threshold-gated threading and vectorized
  // inner loops for large supports (dense graphs), keeping the serial path
  // as the small-support fallback.
  //
  // out(r, :) += g(r, :) · bᵀ for r in rows.   g: (m,n), b: (k,n), out: (m,k).
  virtual void GemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                                   const std::vector<int>& rows) const;
  // out += Σ_{r in rows} a(r, :)ᵀ ⊗ g(r, :).   a: (m,k), g: (m,n), out: (k,n).
  // The serial loop skips zero entries of a; ParallelBackend's tiles do not,
  // which keeps its bits unless out holds a -0 or g a non-finite value
  // (a gradient buffer starts at +0 and, accumulating, never reaches -0).
  virtual void GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                                   const std::vector<int>& rows) const;
  // Row-subset SpMM accumulate (CsrMatrix::MultiplyAccumRows): for r in rows,
  // out(r, :) += alpha * Σ_k a(r, k) x(k, :), skipping x rows that
  // `x_row_nonzero` (empty = unknown) marks as zero.
  virtual void SpmmAccumRows(const CsrMatrix& a, const Matrix& x, double alpha,
                             Matrix* out, const std::vector<int>& rows,
                             const std::vector<uint8_t>& x_row_nonzero) const;

  // Flat-vector kernels (parameter vectors in the influence machinery, and
  // Matrix::Axpy/Scale over the contiguous buffer).
  virtual double VDot(const double* a, const double* b, int64_t n) const = 0;
  virtual void VAxpy(double alpha, const double* x, double* y, int64_t n) const = 0;
  virtual void VScale(double alpha, double* x, int64_t n) const = 0;

  // Fused CG-step kernels — one pass over y where the unfused sequence costs
  // two or three. Contracts (relied on by the influence CG solvers and
  // verified bitwise in tests/la_backend_test.cc):
  //   * VAxpyDot: y += alpha·x, returns yᵀy of the UPDATED y. Bitwise equal
  //     to VAxpy followed by VDot(y, y) on every backend and thread count
  //     (the update is elementwise split-invariant, the reduction follows
  //     VDot's fixed-block partial scheme).
  //   * VDotAxpy: y = x + beta·y elementwise (the CG search-direction
  //     update), returns yᵀy of the updated y; a follow-up VDot(y, y)
  //     reproduces the returned value bit for bit. Deterministic across
  //     thread counts like every other kernel.
  // The base implementations are the unfused compositions, which IS the
  // bitwise definition; ParallelBackend overrides them with genuinely fused
  // single-pass loops.
  virtual double VAxpyDot(double alpha, const double* x, double* y, int64_t n) const;
  virtual double VDotAxpy(double beta, const double* x, double* y, int64_t n) const;
};

enum class BackendKind { kReference, kParallel, kSimd };

std::string BackendKindName(BackendKind kind);

// Creates a standalone backend instance (used by tests and the bench
// comparison harness; normal code uses the process-wide active backend).
std::unique_ptr<Backend> MakeBackend(BackendKind kind, int num_threads);

// Process-wide active backend. On first use it is initialised from the
// PPFR_LA_BACKEND ("reference"|"parallel"|"simd") and PPFR_LA_THREADS
// environment variables, defaulting to the parallel backend with one thread
// per core. Both parse strictly: a malformed value fails a check that names
// the variable and the value; an empty one counts as unset.
Backend& ActiveBackend();
BackendKind ActiveBackendKind();

// Replaces the active backend. num_threads <= 0 selects hardware_concurrency.
void SetActiveBackend(BackendKind kind, int num_threads = 0);

// Applies --la_backend=reference|parallel|simd and --la_threads=N
// command-line flags (bench/example binaries call this right after parsing
// Flags).
void ConfigureBackendFromFlags(const Flags& flags);

// Thread-local backend override, consulted by ActiveBackend() before the
// process-wide instance. This is how parallelism ABOVE the kernel layer is
// made safe: an orchestrator (e.g. influence::TapePool) gives each of its
// worker threads a private single-threaded backend of the active kind, so
// concurrent workers never enter the shared ParallelBackend pool (which is
// not reentrant). Kernels are deterministic across thread counts, so routing
// a worker through a 1-thread clone is bitwise equivalent to the main path.
class ThreadLocalBackendGuard {
 public:
  explicit ThreadLocalBackendGuard(Backend* backend);
  ~ThreadLocalBackendGuard();

  ThreadLocalBackendGuard(const ThreadLocalBackendGuard&) = delete;
  ThreadLocalBackendGuard& operator=(const ThreadLocalBackendGuard&) = delete;

 private:
  Backend* previous_;
};

// RAII backend swap for tests: restores the previous backend on destruction.
class ScopedBackend {
 public:
  ScopedBackend(BackendKind kind, int num_threads = 0);
  ~ScopedBackend();

  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  BackendKind previous_kind_;
  int previous_threads_;
};

}  // namespace ppfr::la

#endif  // PPFR_LA_BACKEND_H_
