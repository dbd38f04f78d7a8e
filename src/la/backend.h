#ifndef PPFR_LA_BACKEND_H_
#define PPFR_LA_BACKEND_H_

#include <bit>
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

// e^x within 1 ulp of std::exp on [-745.13, 709.78]; 0 below that range, +∞
// above it, NaN for NaN and exactly 1 at ±0. It is built only from MulAdds,
// selects and exponent-bit integer arithmetic, so GCC vectorises any loop
// that calls it, and every vector lane rounds exactly like a scalar call:
// results depend on neither the vector width, the chunking nor the thread
// count. (std::exp is an opaque libm call that no loop around it vectorises.)
//
// x = n·ln2 + r with n = round(x/ln2), r taken in two Cody–Waite steps (n
// times the high part of ln2 is exact, and so is its difference from x);
// e^r by its degree-13 Taylor polynomial in Horner form on |r| <= ln2/2,
// whose truncation error is below 2^-56; then 2^n applied as 2^n1 · 2^n2
// with n1 = round(n/2), so that neither factor leaves the normal range and
// a subnormal result is rounded once, by the last product. The clamp keeps n
// within that split and turns into an overflow to +∞ or a rounding to 0.
// Both n1 and its bit pattern come from the same shifted-sum trick as n, so
// the loop needs no double-to-integer conversion, which AVX2 lacks.
inline double Exp(double x) {
  constexpr double kLog2e = 0x1.71547652b82fep0;
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // 32 significant bits
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kShift = 0x1.8p52;  // t + kShift keeps round(t) in the low bits
  x = x > 710.0 ? 710.0 : x;  // selects that leave NaN in place
  x = x < -746.0 ? -746.0 : x;
  const double t = MulAdd(x, kLog2e, kShift);
  const double n = t - kShift;
  const double r = MulAdd(-n, kLn2Lo, MulAdd(-n, kLn2Hi, x));
  double p = 1.0 / 6227020800.0;  // 1/13!
  p = MulAdd(p, r, 1.0 / 479001600.0);
  p = MulAdd(p, r, 1.0 / 39916800.0);
  p = MulAdd(p, r, 1.0 / 3628800.0);
  p = MulAdd(p, r, 1.0 / 362880.0);
  p = MulAdd(p, r, 1.0 / 40320.0);
  p = MulAdd(p, r, 1.0 / 5040.0);
  p = MulAdd(p, r, 1.0 / 720.0);
  p = MulAdd(p, r, 1.0 / 120.0);
  p = MulAdd(p, r, 1.0 / 24.0);
  p = MulAdd(p, r, 1.0 / 6.0);
  p = MulAdd(p, r, 0.5);
  p = MulAdd(p, r, 1.0);
  p = MulAdd(p, r, 1.0);
  // The low bits of t and t1 hold n and n1 offset by 2^51; shifting them
  // into the exponent field drops the offset.
  const double t1 = MulAdd(n, 0.5, kShift);
  const uint64_t bits = std::bit_cast<uint64_t>(t);
  const uint64_t bits1 = std::bit_cast<uint64_t>(t1);
  const double scale1 = std::bit_cast<double>((bits1 + 1023) << 52);         // 2^n1
  const double scale2 = std::bit_cast<double>((bits - bits1 + 1023) << 52);  // 2^(n-n1)
  return p * scale1 * scale2;
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
//
// Threading contract: kernels fan work out across the pool internally, but
// must be *invoked* from a single orchestration thread at a time (the
// ParallelBackend pool is not reentrant and concurrent entry trips its
// ParallelFor check). Parallelism across independent problems belongs above
// this layer, e.g. the influence tape pool (influence/tape_pool.h).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;
  virtual int num_threads() const { return 1; }
  // Always false. It stays only because perfbench/perfbench.cc, which only
  // a benchmark change may edit, records it in its host fingerprint (ROADMAP
  // item 2).
  bool simd_active() const { return false; }

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
  // small supports a per-node backward produces; ParallelBackend overrides
  // them with threshold-gated threading for large supports (dense graphs) and
  // its register-tiled leaves, keeping the serial path as the small-support
  // fallback.
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
  //   * VAxpyDot: y += alpha·x, returns yᵀy of the UPDATED y. Equal to VAxpy
  //     followed by VDot(y, y) (the update is elementwise split-invariant,
  //     the reduction follows VDot's fixed-block partial scheme).
  //   * VDotAxpy: y = x + beta·y elementwise (the CG search-direction
  //     update), returns yᵀy of the updated y, which a follow-up VDot(y, y)
  //     reproduces.
  // Both are deterministic across thread counts like every other kernel.
  // The base implementations are the unfused compositions, which IS the
  // bitwise definition (the reference backend keeps them); ParallelBackend
  // overrides them with fused single-pass loops. Its updated y is bitwise
  // the unfused one, and so is its returned dot in builds without FMA. In
  // FMA builds GCC shapes each inlined copy of the serial dot by its
  // context, and for some inputs whose n % 4 is 2 or 3 the fused dot
  // differs from VDot's in the last bits (ROADMAP, "Dot products the
  // compiler still shapes").
  virtual double VAxpyDot(double alpha, const double* x, double* y, int64_t n) const;
  virtual double VDotAxpy(double beta, const double* x, double* y, int64_t n) const;
};

enum class BackendKind { kReference, kParallel };

std::string BackendKindName(BackendKind kind);

// Creates a standalone backend instance (used by tests and the bench
// comparison harness; normal code uses the process-wide active backend).
std::unique_ptr<Backend> MakeBackend(BackendKind kind, int num_threads);

// Process-wide active backend. On first use it is initialised from the
// PPFR_LA_BACKEND ("reference"|"parallel") and PPFR_LA_THREADS
// environment variables, defaulting to the parallel backend with one thread
// per core. Both parse strictly: a malformed value fails a check that names
// the variable and the value; an empty one counts as unset.
Backend& ActiveBackend();
BackendKind ActiveBackendKind();

// Replaces the active backend. num_threads <= 0 selects hardware_concurrency.
void SetActiveBackend(BackendKind kind, int num_threads = 0);

// Applies --la_backend=reference|parallel and --la_threads=N
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
