#ifndef PPFR_INFLUENCE_HVP_H_
#define PPFR_INFLUENCE_HVP_H_

#include <functional>
#include <vector>

#include "autograd/tape.h"
#include "influence/param_vector.h"

namespace ppfr::influence {

// Computes the flat training-loss gradient ∇θL at the CURRENT parameter
// values (implementations run a forward/backward pass and flatten).
using GradFn = std::function<std::vector<double>()>;

// Evaluates the flat training-loss gradient at each of the given ABSOLUTE
// parameter points, returning one gradient per point (same order). Must
// leave the model's parameters as it found them. The library's
// implementation (InfluenceCalculator::BatchTrainGrad) replays a recorded
// loss graph once per point on a GradLanePool of model clones (see
// influence/tape_pool.h); each point's gradient is independent of the
// batching, so results are bitwise identical for any lane or thread count.
using BatchGradFn = std::function<std::vector<std::vector<double>>(
    const std::vector<std::vector<double>>& points)>;

// Hessian-vector product H·v by central finite differences of the gradient:
//   H v ≈ [∇L(θ + r v̂) − ∇L(θ − r v̂)] / (2 r) · ‖v‖,  v̂ = v/‖v‖
// Restores θ afterwards. Zero vector in, zero vector out.
std::vector<double> HessianVectorProduct(const std::vector<ag::Parameter*>& params,
                                         const GradFn& grad_fn,
                                         const std::vector<double>& v,
                                         double step = 1e-4);

// As above with ‖v‖ supplied by the caller (the CG loop already has it from
// the fused direction update, saving a dot pass per iteration). `norm` must
// equal the bits of sqrt(VecDot(v, v)).
std::vector<double> HessianVectorProductWithNorm(
    const std::vector<ag::Parameter*>& params, const GradFn& grad_fn,
    const std::vector<double>& v, double norm, double step = 1e-4);

// Batched central-difference HVP: column j of the result is H·v_j, with all
// probe-point gradients gathered into ONE BatchGradFn call (2 probe points
// per nonzero column, one tape replay per probe point — never per column).
// `col_norms_sq[j]` must equal the bits of VecDot(v_j, v_j); zero columns
// yield zero columns. `theta` is the expansion point (the solver's fixed θ*).
MultiVector BatchedHessianVectorProduct(const std::vector<double>& theta,
                                        const BatchGradFn& batch_grad,
                                        const MultiVector& v,
                                        const std::vector<double>& col_norms_sq,
                                        double step = 1e-4);

struct CgOptions {
  double damping = 0.01;  // solves (H + damping·I) x = b
  int max_iterations = 40;
  double tolerance = 1e-8;  // on the relative residual
  double hvp_step = 1e-4;
};

struct CgResult {
  std::vector<double> x;
  double residual_norm = 0.0;
  int iterations = 0;
};

// Damped conjugate-gradient solve of (H + λI) x = b with implicit H via
// finite-difference HVPs. This is the standard Koh & Liang inverse-HVP
// machinery; damping keeps the system positive definite when the model is
// not at an exact minimum. This single-RHS path is the bitwise oracle the
// block solver is gated against; its axpy+dot pairs run through the fused
// Backend::VAxpyDot / Backend::VDotAxpy kernels (bitwise equal to the
// unfused sequences, in fewer memory passes).
CgResult ConjugateGradientSolve(const std::vector<ag::Parameter*>& params,
                                const GradFn& grad_fn, const std::vector<double>& b,
                                const CgOptions& options);

// Block-solve instrumentation, surfaced into BENCH_influence.json.
struct BlockCgStats {
  int block_iterations = 0;  // outer block iterations executed
  int grad_evals = 0;        // probe-point gradient evaluations issued
  double algebra_seconds = 0.0;  // wall time inside the block algebra kernels
  double algebra_flops = 0.0;    // ≈ flops issued to those kernels
};

struct BlockCgResult {
  MultiVector x;                      // one solution column per RHS column
  std::vector<double> residual_norm;  // absolute ‖r_j‖ at exit
  std::vector<int> iterations;        // block iterations when column j froze
  std::vector<bool> converged;        // per-RHS relative-residual verdict
  BlockCgStats stats;
};

// Damped block-CG solve of (H + λI) X = B for all columns of B at once
// (O'Leary's multi-RHS CG with A-orthogonalised direction blocks). The hot
// loop is k×k Gram GEMMs and params×k block updates — BLAS-3 — instead of
// the single-RHS path's chain of BLAS-1 calls, and every block iteration
// costs one batched HVP for all k directions.
//
// Contracts:
//   * Per-RHS convergence: column j stops updating (is deflated out of the
//     active block) once ‖r_j‖/‖b_j‖ < options.tolerance; its iteration
//     count and residual are reported individually.
//   * k = 1 delegates to ConjugateGradientSolve, so a single-column block
//     solve equals the oracle bit for bit.
//   * Bitwise-duplicate columns are solved once and share the representative
//     solution bits; zero columns return zero with zero iterations.
//   * For a fixed B and backend kind the result is bitwise identical across
//     thread counts and BatchGradFn lane counts (every kernel in the loop is
//     split-invariant; deflation decisions depend only on computed values).
//   * Accuracy is gated on the relative-residual tolerance plus the per-RHS
//     parity tests in tests/influence_engine_test.cc — block solutions agree
//     with the oracle per column to solver tolerance, not bitwise (the
//     Krylov spaces differ).
//   * The direction block is rank-screened: directions whose Cholesky pivot
//     fails in PᵀP (numerically dependent — near-parallel RHS gradients, k
//     exceeding the residuals' remaining spectral dimension) are dropped
//     BEFORE any probe gradients are paid, and directions with a failing
//     pivot in PᵀAP (negative curvature in the damped Hessian, the block
//     analogue of the single-RHS p_ap <= 0 exit) are dropped after; every
//     residual column keeps advancing through the surviving shared
//     directions. Only if NO direction survives are the remaining columns
//     frozen and finished through the single-RHS oracle on their residual
//     equations: deterministic, judged against the original ‖b_j‖, and a
//     column frozen before any block update reproduces the oracle on its
//     original system bitwise.
// `grad_fn` and `batch_grad` must evaluate the same gradient (grad_fn at the
// current parameters, batch_grad at explicit points).
BlockCgResult BlockConjugateGradientSolve(const std::vector<ag::Parameter*>& params,
                                          const GradFn& grad_fn,
                                          const BatchGradFn& batch_grad,
                                          const MultiVector& b,
                                          const CgOptions& options);

}  // namespace ppfr::influence

#endif  // PPFR_INFLUENCE_HVP_H_
