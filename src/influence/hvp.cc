#include "influence/hvp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/recoverable.h"
#include "common/stopwatch.h"
#include "la/backend.h"

namespace ppfr::influence {

std::vector<double> HessianVectorProductWithNorm(
    const std::vector<ag::Parameter*>& params, const GradFn& grad_fn,
    const std::vector<double>& v, double norm, double step) {
  if (norm == 0.0) return std::vector<double>(v.size(), 0.0);

  const std::vector<double> theta = FlattenValues(params);
  PPFR_CHECK_EQ(theta.size(), v.size());

  std::vector<double> theta_shifted = theta;
  const double r = step / norm;
  VecAxpy(r, v, &theta_shifted);
  SetValues(params, theta_shifted);
  std::vector<double> g_plus = grad_fn();

  theta_shifted = theta;
  VecAxpy(-r, v, &theta_shifted);
  SetValues(params, theta_shifted);
  const std::vector<double> g_minus = grad_fn();

  SetValues(params, theta);  // restore

  for (size_t i = 0; i < g_plus.size(); ++i) {
    g_plus[i] = (g_plus[i] - g_minus[i]) / (2.0 * r);
  }
  return g_plus;
}

std::vector<double> HessianVectorProduct(const std::vector<ag::Parameter*>& params,
                                         const GradFn& grad_fn,
                                         const std::vector<double>& v, double step) {
  return HessianVectorProductWithNorm(params, grad_fn, v, VecNorm(v), step);
}

MultiVector BatchedHessianVectorProduct(const std::vector<double>& theta,
                                        const BatchGradFn& batch_grad,
                                        const MultiVector& v,
                                        const std::vector<double>& col_norms_sq,
                                        double step) {
  const int k = v.k();
  PPFR_CHECK_EQ(static_cast<int>(col_norms_sq.size()), k);
  MultiVector hv(v.dim(), k);
  if (k == 0) return hv;
  PPFR_CHECK_EQ(static_cast<int64_t>(theta.size()), v.dim());

  // Probe points θ ± (step/‖v_j‖)·v_j for every nonzero column, gathered into
  // ONE batch_grad call — the tape replay cost is per probe point, never per
  // column, which is what lets a GradLanePool fan the whole block out.
  std::vector<std::vector<double>> points;
  std::vector<int> active;
  std::vector<double> steps;
  points.reserve(2 * static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    const double norm = std::sqrt(col_norms_sq[static_cast<size_t>(j)]);
    if (norm == 0.0) continue;  // zero direction -> zero HVP column
    const double r = step / norm;
    std::vector<double> plus = theta;
    la::ActiveBackend().VAxpy(r, v.col(j), plus.data(), v.dim());
    std::vector<double> minus = theta;
    la::ActiveBackend().VAxpy(-r, v.col(j), minus.data(), v.dim());
    points.push_back(std::move(plus));
    points.push_back(std::move(minus));
    active.push_back(j);
    steps.push_back(r);
  }
  if (active.empty()) return hv;

  const std::vector<std::vector<double>> grads = batch_grad(points);
  PPFR_CHECK_EQ(grads.size(), points.size());
  for (size_t idx = 0; idx < active.size(); ++idx) {
    const std::vector<double>& g_plus = grads[2 * idx];
    const std::vector<double>& g_minus = grads[2 * idx + 1];
    PPFR_CHECK_EQ(static_cast<int64_t>(g_plus.size()), v.dim());
    PPFR_CHECK_EQ(static_cast<int64_t>(g_minus.size()), v.dim());
    const double r = steps[idx];
    double* out = hv.col(active[idx]);
    for (int64_t i = 0; i < v.dim(); ++i) {
      out[i] = (g_plus[static_cast<size_t>(i)] - g_minus[static_cast<size_t>(i)]) /
               (2.0 * r);
    }
  }
  return hv;
}

namespace {

// The CG recurrence over an abstract damped matvec; the public single-RHS
// entry point wraps the finite-difference HVP into it. `matvec(v, norm)`
// receives ‖v‖ precomputed by the fused updates (bitwise equal to
// sqrt(VecDot(v, v))), so the HVP's normalisation costs no extra pass.
using DampedMatVec =
    std::function<std::vector<double>(const std::vector<double>& v, double norm)>;

CgResult CgCore(const DampedMatVec& matvec, const std::vector<double>& b,
                const CgOptions& options) {
  const size_t n = b.size();
  CgResult result;
  result.x.assign(n, 0.0);
  std::vector<double> r = b;  // residual (x0 = 0)
  std::vector<double> p = r;
  double rs_old = VecDot(r, r);
  double rs_cur = rs_old;
  double p_norm_sq = rs_old;  // p = b initially, so ‖p‖² = bᵀb
  const double b_norm = std::max(std::sqrt(rs_old), 1e-30);

  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    const std::vector<double> ap = matvec(p, std::sqrt(p_norm_sq));
    const double p_ap = VecDot(p, ap);
    if (p_ap <= 0.0) break;  // numerical loss of positive-definiteness
    const double alpha = rs_old / p_ap;
    VecAxpy(alpha, p, &result.x);
    // Fused r -= α·Ap and rs_new = rᵀr — one pass over r instead of three.
    const double rs_new = VecAxpyDot(-alpha, ap, &r);
    rs_cur = rs_new;
    if (std::sqrt(rs_new) / b_norm < options.tolerance) break;
    const double beta = rs_new / rs_old;
    // Fused p = r + β·p and ‖p‖² (feeds the next HVP's normalisation).
    p_norm_sq = VecDotAxpy(beta, r, &p);
    rs_old = rs_new;
  }
  result.residual_norm = std::sqrt(rs_cur);
  return result;
}

// Cholesky factorisation of the k×k Gram matrix S = PᵀAP (lower triangle
// only — S is symmetric up to roundoff). A failing pivot j means direction j
// is not numerically positive definite against the preceding ones: the block
// is rank-deficient there (e.g. near-parallel RHS gradients), or the damped
// Hessian has negative curvature along it — the block analogue of the
// single-RHS p_ap <= 0 exit. The block loop drops that one column and keeps
// going; `bad_pivot` reports which.
bool CholeskyFactor(const la::Matrix& s, la::Matrix* l, int* bad_pivot = nullptr) {
  const int k = s.rows();
  PPFR_CHECK_EQ(s.cols(), k);
  *l = la::Matrix(k, k);
  for (int j = 0; j < k; ++j) {
    double d = s(j, j);
    for (int c = 0; c < j; ++c) d -= (*l)(j, c) * (*l)(j, c);
    if (!(d > 0.0) || d <= 1e-13 * std::fabs(s(j, j))) {
      if (bad_pivot != nullptr) *bad_pivot = j;
      return false;
    }
    const double root = std::sqrt(d);
    (*l)(j, j) = root;
    for (int i = j + 1; i < k; ++i) {
      double v = s(i, j);
      for (int c = 0; c < j; ++c) v -= (*l)(i, c) * (*l)(j, c);
      (*l)(i, j) = v / root;
    }
  }
  return true;
}

// Solves (L·Lᵀ) · out = rhs column by column given the Cholesky factor L.
la::Matrix CholeskySolve(const la::Matrix& l, const la::Matrix& rhs) {
  const int k = l.rows();
  PPFR_CHECK_EQ(rhs.rows(), k);
  la::Matrix out = rhs;
  for (int j = 0; j < rhs.cols(); ++j) {
    for (int row = 0; row < k; ++row) {  // forward substitution
      double v = out(row, j);
      for (int c = 0; c < row; ++c) v -= l(row, c) * out(c, j);
      out(row, j) = v / l(row, row);
    }
    for (int row = k - 1; row >= 0; --row) {  // back substitution
      double v = out(row, j);
      for (int c = row + 1; c < k; ++c) v -= l(c, row) * out(c, j);
      out(row, j) = v / l(row, row);
    }
  }
  return out;
}

la::Matrix Submatrix(const la::Matrix& m, const std::vector<int>& keep) {
  la::Matrix out(static_cast<int>(keep.size()), static_cast<int>(keep.size()));
  for (size_t i = 0; i < keep.size(); ++i) {
    for (size_t j = 0; j < keep.size(); ++j) {
      out(static_cast<int>(i), static_cast<int>(j)) = m(keep[i], keep[j]);
    }
  }
  return out;
}

}  // namespace

CgResult ConjugateGradientSolve(const std::vector<ag::Parameter*>& params,
                                const GradFn& grad_fn, const std::vector<double>& b,
                                const CgOptions& options) {
  PPFR_CHECK_GT(options.damping, 0.0);
  auto matvec = [&](const std::vector<double>& v, double norm) {
    std::vector<double> hv =
        HessianVectorProductWithNorm(params, grad_fn, v, norm, options.hvp_step);
    VecAxpy(options.damping, v, &hv);
    return hv;
  };
  return CgCore(matvec, b, options);
}

BlockCgResult BlockConjugateGradientSolve(const std::vector<ag::Parameter*>& params,
                                          const GradFn& grad_fn,
                                          const BatchGradFn& batch_grad,
                                          const MultiVector& b,
                                          const CgOptions& options) {
  PPFR_CHECK_GT(options.damping, 0.0);
  const int k = b.k();
  const int64_t dim = b.dim();
  BlockCgResult result;
  result.x = MultiVector(dim, k);
  result.residual_norm.assign(static_cast<size_t>(k), 0.0);
  result.iterations.assign(static_cast<size_t>(k), 0);
  result.converged.assign(static_cast<size_t>(k), false);
  if (k == 0) return result;

  // Pre-pass: zero columns are trivially solved, and bitwise-duplicate
  // columns are solved once through a representative (this also keeps the
  // Gram matrices nonsingular when a caller batches identical RHSs).
  const std::vector<double> b_norms_sq = ColumnNormsSq(b);
  std::vector<int> rep_of(static_cast<size_t>(k), -1);
  std::vector<int> unique;
  for (int j = 0; j < k; ++j) {
    if (b_norms_sq[static_cast<size_t>(j)] == 0.0) {
      result.converged[static_cast<size_t>(j)] = true;  // x_j = 0 exactly
      continue;
    }
    for (int u : unique) {
      if (std::equal(b.col(j), b.col(j) + dim, b.col(u))) {
        rep_of[static_cast<size_t>(j)] = u;
        break;
      }
    }
    if (rep_of[static_cast<size_t>(j)] < 0) {
      rep_of[static_cast<size_t>(j)] = j;
      unique.push_back(j);
    }
  }
  if (unique.empty()) return result;

  // One distinct RHS: the block recurrence degenerates to plain CG, so run
  // the oracle itself — this is what makes k = 1 bitwise-equal by
  // construction rather than by numerical accident.
  if (unique.size() == 1) {
    const CgResult single =
        ConjugateGradientSolve(params, grad_fn, b.Column(unique[0]), options);
    result.stats.block_iterations = single.iterations;
    result.stats.grad_evals = 2 * single.iterations;
    const double b_norm =
        std::max(std::sqrt(b_norms_sq[static_cast<size_t>(unique[0])]), 1e-30);
    for (int j = 0; j < k; ++j) {
      if (rep_of[static_cast<size_t>(j)] < 0) continue;
      result.x.SetColumn(j, single.x);
      result.residual_norm[static_cast<size_t>(j)] = single.residual_norm;
      result.iterations[static_cast<size_t>(j)] = single.iterations;
      result.converged[static_cast<size_t>(j)] =
          single.residual_norm / b_norm < options.tolerance;
    }
    return result;
  }

  // Compacted block state over the active (not yet converged) unique
  // columns. `active[j]` maps compacted position j back to the original
  // column index.
  const std::vector<double> theta = FlattenValues(params);
  PPFR_CHECK_EQ(static_cast<int64_t>(theta.size()), dim);
  std::vector<int> active = unique;
  MultiVector x_act(dim, static_cast<int>(active.size()));  // zeros
  MultiVector r_act = b.SelectColumns(active);
  MultiVector p_act = r_act;
  // R starts as the selected B columns, whose squared norms were already
  // computed bitwise in the pre-pass — copy them instead of re-running the
  // dot pass (which would also recompute norms for columns the dedup screen
  // already retired).
  std::vector<double> res_norms_sq(active.size());
  for (size_t j = 0; j < active.size(); ++j) {
    res_norms_sq[j] = b_norms_sq[static_cast<size_t>(active[j])];
  }
  std::vector<double> p_norms_sq = res_norms_sq;  // P = R initially
  std::vector<double> b_norm_of(static_cast<size_t>(k), 1e-30);
  for (int j : unique) {
    b_norm_of[static_cast<size_t>(j)] =
        std::max(std::sqrt(b_norms_sq[static_cast<size_t>(j)]), 1e-30);
  }

  Stopwatch total_watch;
  auto finish_column = [&](int pos, int iters, bool converged) {
    const int orig = active[static_cast<size_t>(pos)];
    result.x.SetColumn(orig, x_act.Column(pos));
    result.residual_norm[static_cast<size_t>(orig)] =
        std::sqrt(res_norms_sq[static_cast<size_t>(pos)]);
    result.iterations[static_cast<size_t>(orig)] = iters;
    result.converged[static_cast<size_t>(orig)] = converged;
  };

  Stopwatch algebra_watch;
  double algebra_seconds = 0.0;
  double algebra_flops = 0.0;
  auto timed = [&](auto&& fn) {
    algebra_watch = Stopwatch();
    auto out = fn();
    algebra_seconds += algebra_watch.ElapsedSeconds();
    return out;
  };

  // The direction block P is decoupled from the residual block R: dependent
  // directions are SCREENED OUT of P (failing Cholesky pivots), while every
  // residual column keeps advancing through the shared independent
  // directions — near-parallel RHS columns (per-node loss gradients cluster
  // by community) cost rank(P) probe pairs per iteration, not k. Only when
  // the whole direction block collapses — no direction with positive
  // curvature survives, the block analogue of the single-RHS p_ap <= 0
  // exit — are the remaining columns frozen at their current iterate and
  // finished after the loop through the single-RHS oracle on their residual
  // equations.
  struct DeferredColumn {
    int orig;               // original column index
    std::vector<double> x;  // iterate at freeze time
    std::vector<double> r;  // residual at freeze time
    int advanced;           // block iterations that updated this column
  };
  std::vector<DeferredColumn> deferred;
  auto defer_all_active = [&](int advanced) {
    for (int j = 0; j < static_cast<int>(active.size()); ++j) {
      deferred.push_back({active[static_cast<size_t>(j)], x_act.Column(j),
                          r_act.Column(j), advanced});
    }
    active.clear();
  };

  // Factors the direction Gram `g` in place, screening the failing pivot's
  // direction out of `p` (and `ap`, when already computed) until the
  // factorisation succeeds or no direction is left. A failing pivot means
  // direction `bad` is numerically dependent on the preceding ones — or, for
  // g = PᵀAP, has non-positive curvature under the damped Hessian.
  auto factor_screening = [&](la::Matrix* g, la::Matrix* chol, MultiVector* ap) {
    int bad = -1;
    while (p_act.k() > 0 && !CholeskyFactor(*g, chol, &bad)) {
      std::vector<int> keep;
      for (int j = 0; j < p_act.k(); ++j) {
        if (j != bad) keep.push_back(j);
      }
      p_act = p_act.SelectColumns(keep);
      if (ap != nullptr) *ap = ap->SelectColumns(keep);
      std::vector<double> next_norms(keep.size());
      for (size_t j = 0; j < keep.size(); ++j) {
        next_norms[j] = p_norms_sq[static_cast<size_t>(keep[j])];
      }
      p_norms_sq = std::move(next_norms);
      *g = Submatrix(*g, keep);
    }
  };

  int iter = 0;
  while (iter < options.max_iterations && !active.empty()) {
    ++iter;

    // Rank-screen the direction block on its own Gram PᵀP BEFORE paying any
    // probe gradients: dependent directions are free to drop here, and the
    // batched HVP below only covers the independent ones.
    {
      const int kp = p_act.k();
      la::Matrix pp = timed([&] { return BlockGram(p_act, p_act); });
      algebra_flops += 2.0 * kp * kp * static_cast<double>(dim);
      la::Matrix pp_chol;
      factor_screening(&pp, &pp_chol, nullptr);
    }
    if (p_act.k() == 0) {
      defer_all_active(iter - 1);
      break;
    }

    // AP = (H + λI)·P, one batched HVP for the independent directions.
    MultiVector ap_act = BatchedHessianVectorProduct(theta, batch_grad, p_act,
                                                     p_norms_sq, options.hvp_step);
    result.stats.grad_evals += 2 * p_act.k();
    la::ActiveBackend().VAxpy(options.damping, p_act.mat().data(),
                              ap_act.mat().data(), p_act.mat().size());

    // S = PᵀAP. A failing pivot here is non-positive curvature along an
    // already-independent direction; screen it out too (its probes are spent,
    // which is why the rank screen above runs first).
    la::Matrix s = timed([&] { return BlockGram(p_act, ap_act); });
    algebra_flops += 2.0 * p_act.k() * p_act.k() * static_cast<double>(dim);
    la::Matrix chol;
    factor_screening(&s, &chol, &ap_act);
    if (p_act.k() == 0) {
      defer_all_active(iter - 1);
      break;
    }
    const int kd = p_act.k();                        // independent directions
    const int kc = static_cast<int>(active.size());  // residual columns

    // α = S⁻¹ (PᵀR) is kd×kc; X += P·α; R -= AP·α (fused with the
    // per-column residual norms the deflation check needs).
    la::Matrix pr = timed([&] { return BlockGram(p_act, r_act); });
    const la::Matrix alpha = CholeskySolve(chol, pr);
    timed([&] {
      BlockAccumulate(alpha, p_act, 1.0, &x_act);
      return 0;
    });
    res_norms_sq = timed([&] { return BlockAccumulateNormsSq(alpha, ap_act, &r_act); });
    algebra_flops += (6.0 * kd * kc + 2.0 * kc) * static_cast<double>(dim);

    // Deflate converged columns out of the residual block. The directions
    // are shared, so only the residual-side state compacts.
    std::vector<int> keep;
    for (int j = 0; j < kc; ++j) {
      const int orig = active[static_cast<size_t>(j)];
      const double rel = std::sqrt(res_norms_sq[static_cast<size_t>(j)]) /
                         b_norm_of[static_cast<size_t>(orig)];
      if (rel < options.tolerance) {
        finish_column(j, iter, /*converged=*/true);
      } else {
        keep.push_back(j);
      }
    }
    if (static_cast<int>(keep.size()) < kc) {
      std::vector<int> next_active;
      std::vector<double> next_res(keep.size());
      for (size_t j = 0; j < keep.size(); ++j) {
        next_active.push_back(active[static_cast<size_t>(keep[j])]);
        next_res[j] = res_norms_sq[static_cast<size_t>(keep[j])];
      }
      x_act = x_act.SelectColumns(keep);
      r_act = r_act.SelectColumns(keep);
      active = std::move(next_active);
      res_norms_sq = std::move(next_res);
    }
    if (active.empty()) break;

    // β = -S⁻¹ (APᵀ R_new) is kd per surviving residual column;
    // P = R + P·β A-orthogonalises one regrown direction per residual
    // against the shared P (dependent ones fall out at the next screen),
    // fused with the ‖p_j‖² the next batched HVP needs.
    const int kr = static_cast<int>(active.size());
    la::Matrix t = timed([&] { return BlockGram(ap_act, r_act); });
    la::Matrix beta = CholeskySolve(chol, t);
    for (int64_t i = 0; i < beta.size(); ++i) beta.data()[i] = -beta.data()[i];
    p_norms_sq = timed([&] { return BlockDirectionUpdate(beta, r_act, &p_act); });
    algebra_flops += (4.0 * kd * kr + 2.0 * kr) * static_cast<double>(dim);
  }

  // Whatever is still active hit max_iterations: report it unconverged with
  // its current iterate, like the single-RHS early exits.
  for (int j = 0; j < static_cast<int>(active.size()); ++j) {
    finish_column(j, iter, /*converged=*/false);
  }

  if (!deferred.empty()) {
    // Columns frozen when the direction block collapsed finish through the
    // single-RHS oracle on their residual equations (H + λI)e_j = r_j,
    // x_j += e_j — deterministic, and convergence is still judged against the
    // ORIGINAL ‖b_j‖. A column frozen before any block update (x_j = 0,
    // r_j = b_j) reproduces the oracle on its original system bitwise.
    auto fallback_matvec = [&](const std::vector<double>& v, double norm) {
      std::vector<double> hv =
          HessianVectorProductWithNorm(params, grad_fn, v, norm, options.hvp_step);
      VecAxpy(options.damping, v, &hv);
      return hv;
    };
    for (const DeferredColumn& col : deferred) {
      const CgResult fix = CgCore(fallback_matvec, col.r, options);
      // The fallback is the last line of defence: if even the single-RHS
      // oracle diverges on this residual system, the Hessian itself is
      // numerically broken for this cell's data — recoverable (other cells
      // are fine).
      if (!std::isfinite(fix.residual_norm)) {
        throw RecoverableError(
            "block-CG total collapse: non-finite fallback residual");
      }
      result.stats.grad_evals += 2 * fix.iterations;
      std::vector<double> x_col = col.x;
      VecAxpy(1.0, fix.x, &x_col);
      result.x.SetColumn(col.orig, x_col);
      result.residual_norm[static_cast<size_t>(col.orig)] = fix.residual_norm;
      result.iterations[static_cast<size_t>(col.orig)] = col.advanced + fix.iterations;
      result.converged[static_cast<size_t>(col.orig)] =
          fix.residual_norm / b_norm_of[static_cast<size_t>(col.orig)] <
          options.tolerance;
    }
  }
  result.stats.block_iterations = iter;
  result.stats.algebra_seconds = algebra_seconds;
  result.stats.algebra_flops = algebra_flops;
  (void)total_watch;

  // Copy representative solutions into their duplicate columns.
  for (int j = 0; j < k; ++j) {
    const int rep = rep_of[static_cast<size_t>(j)];
    if (rep < 0 || rep == j) continue;
    result.x.SetColumn(j, result.x.Column(rep));
    result.residual_norm[static_cast<size_t>(j)] =
        result.residual_norm[static_cast<size_t>(rep)];
    result.iterations[static_cast<size_t>(j)] =
        result.iterations[static_cast<size_t>(rep)];
    result.converged[static_cast<size_t>(j)] =
        result.converged[static_cast<size_t>(rep)];
  }
  return result;
}

}  // namespace ppfr::influence
