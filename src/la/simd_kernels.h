#ifndef PPFR_LA_SIMD_KERNELS_H_
#define PPFR_LA_SIMD_KERNELS_H_

#include <cstdint>

namespace ppfr::la::simd {

// SIMD-explicit leaf kernels behind la::SimdBackend (backend.cc). Everything
// here operates on raw double buffers so the dispatch/blocking layer above
// stays the single owner of shapes, packing and threading.
//
// Portability contract: the kernels are compiled with per-function target
// attributes (AVX2+FMA, plus an AVX-512F GEMM micro-kernel), so the
// translation unit builds under the portable baseline (-DPPFR_NATIVE=OFF)
// and the binary runs on any x86-64 — callers must gate every call on the
// runtime probes below. On non-x86 builds the probes return false and the
// kernels are compiled as aborting stubs.
//
// Determinism contract (see backend.cc): per-element results depend only on
// the inputs, never on chunk boundaries or the vector width —
//   * VAxpy/VScale/Hadamard are elementwise; the scalar tail uses the same
//     single-rounding operation as the vector lanes (std::fma for axpy), so
//     splitting a range at any point yields identical bits.
//   * VDot reduces over fixed-width lane accumulators combined in a fixed
//     order; the caller keeps ranges fixed (reduce-block scheme).
//   * The GEMM micro-kernels apply one fma per (element, k) in ascending k
//     order, so the AVX2 and AVX-512 variants are bitwise identical.

// True when this build can emit the SIMD code paths at all (x86-64 GCC/Clang).
bool CompiledWithSimd();

// Runtime CPU probes (cached after the first call).
bool CpuSupportsAvx2Fma();
bool CpuSupportsAvx512();

// True when the operator forced the scalar fallback via PPFR_SIMD_DISABLE=1
// (any non-empty value other than "0"). Re-read on every call so tests can
// toggle it around backend construction.
bool DisabledByEnv();
// PPFR_SIMD_AVX512=0 pins the GEMM micro-kernel to the AVX2 variant on
// AVX-512 hardware (bitwise identical either way; this is a bench/debug knob).
bool Avx512DisabledByEnv();

// CompiledWithSimd() && CpuSupportsAvx2Fma() && !DisabledByEnv(). Backends
// sample this once at construction.
bool KernelsUsable();

// GEMM register micro-kernels on packed panels, matching the ParallelBackend
// packing scheme: `ap` is a kb x 4 sliver (k-major, 4-wide rows), `bp` a
// k-major sliver of the kernel's packed width (8 for the AVX2 kernel, 16 for
// the AVX-512 one — the dispatch layer packs B to whatever width the active
// micro-kernel declares). Both slivers are zero-padded to full tiles.
// Accumulates into out[ir * out_stride + jr] for ir < mr, jr < nr.
//
// All variants apply exactly one fma per (out element, k) in ascending k
// order, so they are bitwise interchangeable.
void MicroKernel4x8Avx2(const double* ap, const double* bp, int kb,
                        double* out, int64_t out_stride, int mr, int nr);
// AVX-512F variant over a 16-wide packed B sliver (two zmm per k step, so
// half the broadcast traffic per fma of the 8-wide tile).
void MicroKernel4x16Avx512(const double* ap, const double* bp, int kb,
                           double* out, int64_t out_stride, int mr, int nr);

// Flat-vector kernels (AVX2+FMA).
double VDot(const double* a, const double* b, int64_t n);
void VAxpy(double alpha, const double* x, double* y, int64_t n);
void VScale(double alpha, double* x, int64_t n);
void Hadamard(const double* a, const double* b, double* out, int64_t n);

// Fused CG-step kernels: one memory pass over y instead of the two that the
// separate axpy + dot calls cost. Bitwise contract (relied on by the CG
// solver and tests/la_backend_test.cc):
//   * AxpyDot(alpha, x, y, n): y += alpha·x exactly as VAxpy (fmadd lanes,
//     std::fma tail), and the returned yᵀy of the UPDATED y accumulates in
//     exactly VDot's fixed-lane pattern — so the result equals calling
//     VAxpy then VDot(y, y), bit for bit.
//   * XpayDot(beta, x, y, n): y = x + beta·y elementwise (single-rounded
//     fmadd lanes, std::fma tail — the CG p-update), returning yᵀy of the
//     updated y in VDot's pattern, so a follow-up VDot(y, y) reproduces the
//     returned value bit for bit.
double AxpyDot(double alpha, const double* x, double* y, int64_t n);
double XpayDot(double beta, const double* x, double* y, int64_t n);

// Multi-column CSR row kernel: out_row[j] += Σ_k (alpha·vals[k])·x(cols[k], j)
// over one output row's nonzero list (k in CSR order), x row-major with the
// given stride. Bitwise contract: per element this is the fma chain that
// repeated VAxpy calls over the nonzeros produce (fmadd lanes, std::fma
// tail — one fma per (element, k), k ascending), so routing a row through
// this kernel instead of per-nonzero VAxpy never changes a bit. The win is
// register blocking over columns: each 8-wide output block is loaded and
// stored ONCE for the whole nonzero list instead of once per nonzero, which
// turns the x-row gathers into the only memory traffic — and widens with the
// operand's column count.
void SpmmRow(const double* vals, const int* cols, int64_t nnz, double alpha,
             const double* x, int64_t x_stride, double* out_row, int64_t n);

}  // namespace ppfr::la::simd

#endif  // PPFR_LA_SIMD_KERNELS_H_
