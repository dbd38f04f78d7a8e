#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "la/backend.h"

namespace ppfr::ag {
namespace {

// Grain for backend-routed elementwise loops: below this many flat elements
// (or the row-count equivalent) threading doesn't pay, matching the cutoffs
// inside the parallel backend's own kernels.
constexpr int64_t kApplyGrain = 32 * 1024;

int64_t RowGrain(int cols) { return std::max<int64_t>(1, kApplyGrain / std::max(cols, 1)); }

// Creates the output node; `backward(tape, out_grad)` routes gradients to
// parents. Reduces the per-op boilerplate of discovering the output id. The
// output gradient is read through GradView so the node's own dirty/row
// bookkeeping is untouched; ops that need the row support query it with
// tape.GradRowSupport on their own Var.
template <typename BackwardFn>
Var MakeOp(Tape* tape, la::Matrix value, bool needs_grad, const std::vector<Var>& parents,
           BackwardFn backward) {
  const int out_id = tape->num_nodes();
  return tape->MakeNode(
      std::move(value), needs_grad,
      [out_id, backward](Tape& tp) {
        const la::Matrix& g = tp.GradView(Var{&tp, out_id});
        backward(tp, g);
      },
      parents);
}

bool AnyNeedsGrad(std::initializer_list<Var> vars) {
  for (Var v : vars) {
    if (v.tape->NeedsGrad(v)) return true;
  }
  return false;
}

Tape* CommonTape(std::initializer_list<Var> vars) {
  Tape* tape = nullptr;
  for (Var v : vars) {
    PPFR_CHECK(v.valid());
    if (tape == nullptr) tape = v.tape;
    PPFR_CHECK(v.tape == tape) << "ops must stay on a single tape";
  }
  return tape;
}

// dst.row(r) += scale * g.row(r) for r in rows.
void AxpyRows(la::Matrix* dst, const la::Matrix& g, const std::vector<int>& rows,
              double scale) {
  for (int r : rows) {
    double* d = dst->row(r);
    const double* s = g.row(r);
    for (int c = 0; c < g.cols(); ++c) d[c] += scale * s[c];
  }
}

// Elementwise unary op helper: out = f(a), da += g * f'(a). The forward loop
// is fanned out through the backend; the backward stays on the gradient's
// nonzero-row support when one is known (seeded influence passes), otherwise
// it sweeps the flat buffer, skipping exact-zero gradient entries — both
// paths add the same values, because a skipped entry only ever contributes
// an exact ±0 product.
template <typename F, typename DF>
Var UnaryElementwise(Var a, F f, DF df) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  {
    const double* in = av.data();
    double* o = out.data();
    la::ActiveBackend().Apply(av.size(), kApplyGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) o[i] = f(in[i]);
    });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, df, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  const la::Matrix& av = tp.Value(a);
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (supp != nullptr) {
                    la::Matrix& da = tp.GradRefPartial(a, *supp);
                    for (int r : *supp) {
                      const double* gr = g.row(r);
                      const double* ar = av.row(r);
                      double* dr = da.row(r);
                      for (int c = 0; c < g.cols(); ++c) {
                        if (gr[c] == 0.0) continue;
                        dr[c] += gr[c] * df(ar[c]);
                      }
                    }
                    return;
                  }
                  la::Matrix& da = tp.GradRef(a);
                  const double* gd = g.data();
                  const double* ad = av.data();
                  double* dd = da.data();
                  la::ActiveBackend().Apply(
                      av.size(), kApplyGrain, [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          if (gd[i] == 0.0) continue;
                          dd[i] += gd[i] * df(ad[i]);
                        }
                      });
                });
}

}  // namespace

const la::CsrMatrix& SparseOperand::Transpose() const {
  if (symmetric) return mat;
  std::call_once(transpose_once_, [this] { mat_t_ = mat.Transposed(); });
  return mat_t_;
}

std::shared_ptr<const SparseOperand> MakeSparseOperand(la::CsrMatrix m, bool symmetric) {
  auto op = std::make_shared<SparseOperand>();
  op->symmetric = symmetric;
  op->mat = std::move(m);
  return op;
}

Var MatMul(Var a, Var b) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK_EQ(av.cols(), bv.rows());
  la::Matrix out = tape->NewValue(av.rows(), bv.cols(), /*zero_init=*/false);
  la::ActiveBackend().Gemm(av, bv, &out);
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {a, b},
      [a, b, out_id](Tape& tp, const la::Matrix& g) {
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        if (tp.NeedsGrad(a)) {
          if (supp != nullptr) {
            // Rows of da mirror the gradient's row support exactly.
            la::GemmTransBAccumRows(g, tp.Value(b), &tp.GradRefPartial(a, *supp),
                                    *supp);
          } else {
            tp.GradRef(a).Axpy(1.0, la::MatMulTransB(g, tp.Value(b)));
          }
        }
        if (tp.NeedsGrad(b)) {
          if (supp != nullptr) {
            // db = aᵀ g is dense but only support rows contribute.
            la::GemmTransAAccumRows(tp.Value(a), g, &tp.GradRef(b), *supp);
          } else {
            tp.GradRef(b).Axpy(1.0, la::MatMulTransA(tp.Value(a), g));
          }
        }
      });
}

Var SpMM(const std::shared_ptr<const SparseOperand>& sp, Var x) {
  Tape* tape = CommonTape({x});
  const la::Matrix& xv = x.value();
  la::Matrix out = tape->NewValue(sp->mat.rows(), xv.cols(), /*zero_init=*/true);
  sp->mat.MultiplyAccum(xv, 1.0, &out);
  const bool needs = tape->NeedsGrad(x);
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {x},
      [sp, x, out_id](Tape& tp, const la::Matrix& g) {
        if (!tp.NeedsGrad(x)) return;
        const la::CsrMatrix& at = sp->Transpose();
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        if (supp != nullptr) {
          // dx row r is touched iff at(r, c) != 0 for some supported c; in
          // both the symmetric and the explicit-transpose case that is
          // exactly "r appears in row c of sp->mat", so the affected rows
          // are the union of the support rows' neighbour lists.
          // (thread_local scratch: this runs once per seed per SpMM inside
          // the pooled per-node loop, which must stay allocation-free.)
          thread_local std::vector<int> targets;
          targets.clear();
          const std::vector<int64_t>& row_ptr = sp->mat.row_ptr();
          const std::vector<int>& col_idx = sp->mat.col_idx();
          for (int c : *supp) {
            for (int64_t k = row_ptr[c]; k < row_ptr[c + 1]; ++k) {
              targets.push_back(col_idx[k]);
            }
          }
          std::sort(targets.begin(), targets.end());
          targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
          // Mark the supported g rows so the kernel never streams the
          // known-zero rows between them through the cache (thread-local
          // scratch: workers under different arenas get their own).
          thread_local std::vector<uint8_t> g_row_mask;
          if (static_cast<int>(g_row_mask.size()) < g.rows()) {
            g_row_mask.assign(static_cast<size_t>(g.rows()), 0);
          }
          for (int c : *supp) g_row_mask[static_cast<size_t>(c)] = 1;
          at.MultiplyAccumRows(g, 1.0, &tp.GradRefPartial(x, targets), targets,
                               g_row_mask);
          for (int c : *supp) g_row_mask[static_cast<size_t>(c)] = 0;
        } else {
          at.MultiplyAccum(g, 1.0, &tp.GradRef(x));
        }
      });
}

namespace {

// Shared body for Add/Sub: out = a + sign*b, with support-aware backward.
Var AddLike(Var a, Var b, double sign) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK(av.SameShape(bv));
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  {
    const double* pa = av.data();
    const double* pb = bv.data();
    double* po = out.data();
    la::ActiveBackend().Apply(av.size(), kApplyGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + sign * pb[i];
    });
  }
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a, b},
                [a, b, sign, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (tp.NeedsGrad(a)) {
                    if (supp != nullptr) {
                      AxpyRows(&tp.GradRefPartial(a, *supp), g, *supp, 1.0);
                    } else {
                      tp.GradRef(a).Axpy(1.0, g);
                    }
                  }
                  if (tp.NeedsGrad(b)) {
                    if (supp != nullptr) {
                      AxpyRows(&tp.GradRefPartial(b, *supp), g, *supp, sign);
                    } else {
                      tp.GradRef(b).Axpy(sign, g);
                    }
                  }
                });
}

}  // namespace

Var Add(Var a, Var b) { return AddLike(a, b, 1.0); }

Var Sub(Var a, Var b) { return AddLike(a, b, -1.0); }

Var Mul(Var a, Var b) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK(av.SameShape(bv));
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  la::ActiveBackend().Hadamard(av, bv, &out);
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {a, b},
      [a, b, out_id](Tape& tp, const la::Matrix& g) {
        const la::Matrix& av = tp.Value(a);
        const la::Matrix& bv = tp.Value(b);
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        auto accum = [&](Var target, const la::Matrix& other) {
          if (supp != nullptr) {
            la::Matrix& dt = tp.GradRefPartial(target, *supp);
            for (int r : *supp) {
              double* dr = dt.row(r);
              const double* gr = g.row(r);
              const double* orow = other.row(r);
              for (int c = 0; c < g.cols(); ++c) dr[c] += gr[c] * orow[c];
            }
          } else {
            tp.GradRef(target).Axpy(1.0, la::Hadamard(g, other));
          }
        };
        if (tp.NeedsGrad(a)) accum(a, bv);
        if (tp.NeedsGrad(b)) accum(b, av);
      });
}

Var Div(Var a, Var b) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK(av.SameShape(bv));
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  for (int64_t i = 0; i < av.size(); ++i) out.data()[i] = av.data()[i] / bv.data()[i];
  const bool needs = AnyNeedsGrad({a, b});
  return MakeOp(tape, std::move(out), needs, {a, b},
                [a, b](Tape& tp, const la::Matrix& g) {
                  const la::Matrix& av = tp.Value(a);
                  const la::Matrix& bv = tp.Value(b);
                  if (tp.NeedsGrad(a)) {
                    la::Matrix& da = tp.GradRef(a);
                    for (int64_t i = 0; i < av.size(); ++i) {
                      da.data()[i] += g.data()[i] / bv.data()[i];
                    }
                  }
                  if (tp.NeedsGrad(b)) {
                    la::Matrix& db = tp.GradRef(b);
                    for (int64_t i = 0; i < av.size(); ++i) {
                      db.data()[i] -=
                          g.data()[i] * av.data()[i] / (bv.data()[i] * bv.data()[i]);
                    }
                  }
                });
}

Var Neg(Var a) { return Scale(a, -1.0); }

Var Scale(Var a, double s) {
  return UnaryElementwise(
      a, [s](double x) { return s * x; }, [s](double) { return s; });
}

Var AddScalar(Var a, double s) {
  return UnaryElementwise(
      a, [s](double x) { return x + s; }, [](double) { return 1.0; });
}

Var AddRowVec(Var a, Var row) {
  Tape* tape = CommonTape({a, row});
  const la::Matrix& av = a.value();
  const la::Matrix& rv = row.value();
  PPFR_CHECK_EQ(rv.rows(), 1);
  PPFR_CHECK_EQ(rv.cols(), av.cols());
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  {
    const int cols = av.cols();
    la::ActiveBackend().Apply(av.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const double* ar = av.row(static_cast<int>(r));
        double* o = out.row(static_cast<int>(r));
        for (int c = 0; c < cols; ++c) o[c] = ar[c] + rv(0, c);
      }
    });
  }
  const bool needs = AnyNeedsGrad({a, row});
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a, row},
                [a, row, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (tp.NeedsGrad(a)) {
                    if (supp != nullptr) {
                      AxpyRows(&tp.GradRefPartial(a, *supp), g, *supp, 1.0);
                    } else {
                      tp.GradRef(a).Axpy(1.0, g);
                    }
                  }
                  if (tp.NeedsGrad(row)) {
                    la::Matrix& dr = tp.GradRef(row);
                    auto add_row = [&](int r) {
                      const double* gr = g.row(r);
                      for (int c = 0; c < g.cols(); ++c) dr(0, c) += gr[c];
                    };
                    if (supp != nullptr) {
                      for (int r : *supp) add_row(r);
                    } else {
                      for (int r = 0; r < g.rows(); ++r) add_row(r);
                    }
                  }
                });
}

Var ExpandScalar(Var s, int rows, int cols) {
  Tape* tape = CommonTape({s});
  PPFR_CHECK_EQ(s.rows(), 1);
  PPFR_CHECK_EQ(s.cols(), 1);
  la::Matrix out = tape->NewValue(rows, cols, /*zero_init=*/false);
  out.Fill(s.value()(0, 0));
  const bool needs = tape->NeedsGrad(s);
  return MakeOp(tape, std::move(out), needs, {s},
                [s](Tape& tp, const la::Matrix& g) {
                  if (tp.NeedsGrad(s)) tp.GradRef(s)(0, 0) += g.SumAll();
                });
}

Var Relu(Var a) {
  return UnaryElementwise(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x) { return x > 0.0 ? 1.0 : 0.0; });
}

Var LeakyRelu(Var a, double slope) {
  return UnaryElementwise(
      a, [slope](double x) { return x > 0.0 ? x : slope * x; },
      [slope](double x) { return x > 0.0 ? 1.0 : slope; });
}

Var Elu(Var a, double alpha) {
  return UnaryElementwise(
      a, [alpha](double x) { return x > 0.0 ? x : alpha * (std::exp(x) - 1.0); },
      [alpha](double x) { return x > 0.0 ? 1.0 : alpha * std::exp(x); });
}

Var Tanh(Var a) {
  return UnaryElementwise(
      a, [](double x) { return std::tanh(x); },
      [](double x) {
        const double t = std::tanh(x);
        return 1.0 - t * t;
      });
}

Var Sigmoid(Var a) {
  return UnaryElementwise(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double x) {
        const double s = 1.0 / (1.0 + std::exp(-x));
        return s * (1.0 - s);
      });
}

Var Square(Var a) {
  return UnaryElementwise(
      a, [](double x) { return x * x; }, [](double x) { return 2.0 * x; });
}

Var Sqrt(Var a) {
  return UnaryElementwise(
      a, [](double x) { return std::sqrt(std::max(x, 0.0)); },
      [](double x) { return 0.5 / std::sqrt(std::max(x, 1e-12)); });
}

Var Abs(Var a) {
  return UnaryElementwise(
      a, [](double x) { return std::fabs(x); },
      [](double x) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
}

namespace {

// One row of the log-softmax / softmax backward pair. `log_space` selects
// dx = g - softmax·rowsum(g) (log-softmax, y = log-probs) versus
// dx = y ∘ (g - <g, y>) (softmax, y = probs).
inline void SoftmaxRowBackward(bool log_space, const double* gr, const double* yr,
                               double* dr, int cols) {
  if (log_space) {
    double gsum = 0.0;
    for (int c = 0; c < cols; ++c) gsum += gr[c];
    for (int c = 0; c < cols; ++c) dr[c] += gr[c] - std::exp(yr[c]) * gsum;
  } else {
    double dot = 0.0;
    for (int c = 0; c < cols; ++c) dot += gr[c] * yr[c];
    for (int c = 0; c < cols; ++c) dr[c] += yr[c] * (gr[c] - dot);
  }
}

bool RowAllZero(const double* gr, int cols) {
  for (int c = 0; c < cols; ++c) {
    if (gr[c] != 0.0) return false;
  }
  return true;
}

Var SoftmaxLike(Var logits, bool log_space) {
  Tape* tape = CommonTape({logits});
  const la::Matrix& x = logits.value();
  la::Matrix out = tape->NewValue(x.rows(), x.cols(), /*zero_init=*/false);
  {
    const int cols = x.cols();
    la::ActiveBackend().Apply(x.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const double* in = x.row(static_cast<int>(r));
        double* o = out.row(static_cast<int>(r));
        double mx = in[0];
        for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
        double sum = 0.0;
        for (int c = 0; c < cols; ++c) sum += std::exp(in[c] - mx);
        if (log_space) {
          const double lse = mx + std::log(sum);
          for (int c = 0; c < cols; ++c) o[c] = in[c] - lse;
        } else {
          for (int c = 0; c < cols; ++c) o[c] = std::exp(in[c] - mx) / sum;
        }
      }
    });
  }
  const bool needs = tape->NeedsGrad(logits);
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {logits},
      [logits, out_id, log_space](Tape& tp, const la::Matrix& g) {
        if (!tp.NeedsGrad(logits)) return;
        const Var out_var{&tp, out_id};
        const la::Matrix& y = tp.Value(out_var);
        const std::vector<int>* supp = tp.GradRowSupport(out_var);
        const int cols = g.cols();
        if (supp != nullptr) {
          la::Matrix& dx = tp.GradRefPartial(logits, *supp);
          for (int r : *supp) {
            SoftmaxRowBackward(log_space, g.row(r), y.row(r), dx.row(r), cols);
          }
          return;
        }
        la::Matrix& dx = tp.GradRef(logits);
        la::ActiveBackend().Apply(g.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const double* gr = g.row(static_cast<int>(r));
            // An all-zero gradient row contributes exact zeros; skipping it
            // saves the exp/dot work without changing any bit.
            if (RowAllZero(gr, cols)) continue;
            SoftmaxRowBackward(log_space, gr, y.row(static_cast<int>(r)),
                               dx.row(static_cast<int>(r)), cols);
          }
        });
      });
}

}  // namespace

Var LogSoftmaxRows(Var logits) { return SoftmaxLike(logits, /*log_space=*/true); }

Var SoftmaxRows(Var logits) { return SoftmaxLike(logits, /*log_space=*/false); }

Var WeightedNll(Var logp, const std::vector<int>& rows, const std::vector<int>& labels,
                const std::vector<double>& weights, double denom) {
  Tape* tape = CommonTape({logp});
  PPFR_CHECK_EQ(rows.size(), labels.size());
  PPFR_CHECK_EQ(rows.size(), weights.size());
  PPFR_CHECK_GT(denom, 0.0);
  const la::Matrix& lp = logp.value();
  double loss = 0.0;
  for (size_t k = 0; k < rows.size(); ++k) {
    PPFR_CHECK_GE(labels[k], 0);
    PPFR_CHECK_LT(labels[k], lp.cols());
    loss -= weights[k] * lp(rows[k], labels[k]);
  }
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = loss / denom;
  const bool needs = tape->NeedsGrad(logp);
  return MakeOp(tape, std::move(out), needs, {logp},
                [logp, rows, labels, weights, denom](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(logp)) return;
                  // The only rows written are the loss rows — declaring them
                  // seeds the row-support propagation that keeps per-node
                  // influence backward passes on the seed's receptive field.
                  la::Matrix& dl = tp.GradRefPartial(logp, rows);
                  const double scale = g(0, 0) / denom;
                  for (size_t k = 0; k < rows.size(); ++k) {
                    dl(rows[k], labels[k]) -= scale * weights[k];
                  }
                });
}

Var GatherRows(Var a, const std::vector<int>& indices) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  for (int idx : indices) {
    PPFR_CHECK_GE(idx, 0);
    PPFR_CHECK_LT(idx, av.rows());
  }
  la::Matrix out =
      tape->NewValue(static_cast<int>(indices.size()), av.cols(), /*zero_init=*/false);
  {
    const int cols = av.cols();
    la::ActiveBackend().Apply(
        static_cast<int64_t>(indices.size()), RowGrain(cols), [&](int64_t k0, int64_t k1) {
          for (int64_t k = k0; k < k1; ++k) {
            const double* src = av.row(indices[static_cast<size_t>(k)]);
            std::copy(src, src + cols, out.row(static_cast<int>(k)));
          }
        });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, indices, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  // Serial scatter: indices may repeat, so rows can collide.
                  // With a known gradient row support (seeded influence
                  // passes) only the supported rows scatter; the others
                  // would add exact zeros.
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  auto scatter = [&](la::Matrix& da, int k) {
                    const double* gr = g.row(k);
                    double* dr = da.row(indices[static_cast<size_t>(k)]);
                    for (int c = 0; c < g.cols(); ++c) dr[c] += gr[c];
                  };
                  if (supp != nullptr) {
                    thread_local std::vector<int> rows;
                    rows.clear();
                    for (int k : *supp) rows.push_back(indices[static_cast<size_t>(k)]);
                    la::Matrix& da = tp.GradRefPartial(a, rows);
                    for (int k : *supp) scatter(da, k);
                    return;
                  }
                  la::Matrix& da = tp.GradRefPartial(a, indices);
                  for (int k = 0; k < g.rows(); ++k) scatter(da, k);
                });
}

Var SumAll(Var a) {
  Tape* tape = CommonTape({a});
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = a.value().SumAll();
  const bool needs = tape->NeedsGrad(a);
  return MakeOp(tape, std::move(out), needs, {a},
                [a](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  la::Matrix& da = tp.GradRef(a);
                  const double gg = g(0, 0);
                  for (int64_t i = 0; i < da.size(); ++i) da.data()[i] += gg;
                });
}

Var MeanAll(Var a) {
  const double n = static_cast<double>(a.value().size());
  PPFR_CHECK_GT(n, 0.0);
  return Scale(SumAll(a), 1.0 / n);
}

Var RowSums(Var a) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  la::Matrix out = tape->NewValue(av.rows(), 1, /*zero_init=*/false);
  {
    const int cols = av.cols();
    la::ActiveBackend().Apply(av.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        double s = 0.0;
        const double* row = av.row(static_cast<int>(r));
        for (int c = 0; c < cols; ++c) s += row[c];
        out(static_cast<int>(r), 0) = s;
      }
    });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  la::Matrix& da = supp != nullptr ? tp.GradRefPartial(a, *supp)
                                                   : tp.GradRef(a);
                  auto add_row = [&](int r) {
                    const double gr = g(r, 0);
                    double* dr = da.row(r);
                    for (int c = 0; c < da.cols(); ++c) dr[c] += gr;
                  };
                  if (supp != nullptr) {
                    for (int r : *supp) add_row(r);
                  } else {
                    for (int r = 0; r < da.rows(); ++r) add_row(r);
                  }
                });
}

Var LaplacianQuadratic(const std::shared_ptr<const la::CsrMatrix>& laplacian, Var y) {
  Tape* tape = CommonTape({y});
  PPFR_CHECK_EQ(laplacian->rows(), laplacian->cols());
  PPFR_CHECK_EQ(laplacian->rows(), y.rows());
  // Cache L*Y for the backward pass (dL/dY = 2 L Y, L symmetric).
  auto ly = std::make_shared<la::Matrix>(laplacian->Multiply(y.value()));
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = la::Dot(y.value(), *ly);
  const bool needs = tape->NeedsGrad(y);
  return MakeOp(tape, std::move(out), needs, {y},
                [y, ly](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(y)) return;
                  tp.GradRef(y).Axpy(2.0 * g(0, 0), *ly);
                });
}

namespace {

// What GatAttention's backward reads from its forward. An edge's LeakyReLU
// branch is recomputed from the scores, bit for bit the forward's.
struct GatSaved {
  std::vector<double> alpha;  // edges x groups, edge-major
  std::vector<double> left;   // s_l: destinations x groups
  std::vector<double> right;  // s_r: sources x groups
};

// Per-thread backward scratch, reused across calls: the pooled per-node
// influence loop runs this backward once per seed per layer and must stay
// allocation-free once warm. `right` is all zero between calls; each call
// clears the rows it wrote.
struct GatScratch {
  std::vector<int> sources;    // rows the supported destinations aggregate
  std::vector<int> touched;    // sources ∪ the supported destinations
  std::vector<double> dalpha;  // one destination's edges x groups
  std::vector<double> sums;    // per group: Σ_j alpha_ij·dalpha_ij
  std::vector<double> left;    // per group: d/d s_l(i, g) of one destination
  std::vector<double> right;   // sources x groups: d/d s_r(j, g)
};

// h_row[g-block]·attn[:, g] for every group g of a d x groups `attn`.
inline void GroupScores(const double* h_row, const la::Matrix& attn, double* scores) {
  const int dim = attn.rows();
  const int groups = attn.cols();
  const double* a = attn.data();
  for (int g = 0; g < groups; ++g) {
    const double* hg = h_row + g * dim;
    double s = 0.0;
    for (int c = 0; c < dim; ++c) s += hg[c] * a[c * groups + g];
    scores[g] = s;
  }
}

// Back through GroupScores for one row, given d/d score per group: into
// attn's gradient (when wanted) and the row's h gradient (when wanted).
inline void GroupScoresBackward(const double* h_row, const double* dscores,
                                const la::Matrix& attn, la::Matrix* dattn,
                                double* dh_row) {
  const int dim = attn.rows();
  const int groups = attn.cols();
  const double* a = attn.data();
  double* da = dattn != nullptr ? dattn->data() : nullptr;
  for (int g = 0; g < groups; ++g) {
    const double d = dscores[g];
    const double* hg = h_row + g * dim;
    if (da != nullptr) {
      for (int c = 0; c < dim; ++c) da[c * groups + g] += d * hg[c];
    }
    if (dh_row != nullptr) {
      double* dg = dh_row + g * dim;
      for (int c = 0; c < dim; ++c) dg[c] += d * a[c * groups + g];
    }
  }
}

}  // namespace

Var GatAttention(Var h, Var attn_left, Var attn_right,
                 const std::shared_ptr<const EdgeSet>& edges, int groups,
                 double leaky_slope) {
  Tape* tape = CommonTape({h, attn_left, attn_right});
  const la::Matrix& hv = h.value();
  const la::Matrix& al = attn_left.value();
  const la::Matrix& ar = attn_right.value();
  const int n = edges->num_nodes;  // destinations: the leading rows of h
  PPFR_CHECK_GE(groups, 1);
  PPFR_CHECK_GE(hv.rows(), n);
  PPFR_CHECK_EQ(al.cols(), groups);
  PPFR_CHECK(ar.SameShape(al));
  PPFR_CHECK_EQ(hv.cols(), groups * al.rows());
  const int dim = al.rows();
  const size_t gs = static_cast<size_t>(groups);

  auto saved = std::make_shared<GatSaved>();
  saved->left.resize(static_cast<size_t>(n) * gs);
  saved->right.resize(static_cast<size_t>(hv.rows()) * gs);
  saved->alpha.resize(static_cast<size_t>(edges->num_edges()) * gs);
  la::ActiveBackend().Apply(hv.rows(), RowGrain(hv.cols()), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const double* hr = hv.row(static_cast<int>(r));
      GroupScores(hr, ar, saved->right.data() + static_cast<size_t>(r) * gs);
      if (r < n) GroupScores(hr, al, saved->left.data() + static_cast<size_t>(r) * gs);
    }
  });

  la::Matrix out = tape->NewValue(n, hv.cols(), /*zero_init=*/true);
  // Destination rows are independent — each writes only out.row(i) and its
  // own alpha slots — so the edge pass fans out over destination chunks.
  // Chunk boundaries are placed on CUMULATIVE degree (row_ptr is the prefix
  // sum), not row count: per-row cost is O(degree), so hub nodes in a
  // power-law graph would otherwise serialise one chunk. The partition never
  // affects results, only which thread computes them.
  const int64_t m = edges->num_edges();
  const int64_t edge_grain = std::max<int64_t>(1, kApplyGrain / std::max(hv.cols(), 1));
  const int64_t num_chunks =
      n == 0 ? 0 : std::max<int64_t>(1, std::min<int64_t>(n, m / edge_grain));
  const std::vector<int64_t> bounds =
      num_chunks > 0 ? la::NnzBalancedRowBounds(edges->row_ptr, n, num_chunks)
                     : std::vector<int64_t>{0};
  la::ActiveBackend().Apply(num_chunks, 1, [&](int64_t c0, int64_t c1) {
    std::vector<double> mx(gs);
    std::vector<double> denom(gs);
    for (int64_t i = bounds[static_cast<size_t>(c0)]; i < bounds[static_cast<size_t>(c1)];
         ++i) {
      const int64_t begin = edges->row_ptr[i];
      const int64_t end = edges->row_ptr[i + 1];
      if (begin == end) continue;
      // A stable softmax over e_ij per group, every group of an edge together.
      const double* sl = saved->left.data() + static_cast<size_t>(i) * gs;
      std::fill(mx.begin(), mx.end(), -1e300);
      std::fill(denom.begin(), denom.end(), 0.0);
      for (int64_t k = begin; k < end; ++k) {
        const double* sr = saved->right.data() + static_cast<size_t>(edges->col_idx[k]) * gs;
        double* a = saved->alpha.data() + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) {
          const double z = sl[g] + sr[g];
          const double e = z > 0.0 ? z : leaky_slope * z;
          a[g] = e;  // e_ij until normalised
          mx[g] = std::max(mx[g], e);
        }
      }
      for (int64_t k = begin; k < end; ++k) {
        double* a = saved->alpha.data() + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) {
          const double w = std::exp(a[g] - mx[g]);
          a[g] = w;
          denom[g] += w;
        }
      }
      double* o = out.row(static_cast<int>(i));
      for (int64_t k = begin; k < end; ++k) {
        const double* hj = hv.row(edges->col_idx[k]);
        double* a = saved->alpha.data() + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) {
          const double alpha = a[g] / denom[g];
          a[g] = alpha;
          for (int c = g * dim; c < (g + 1) * dim; ++c) o[c] += alpha * hj[c];
        }
      }
    }
  });

  const bool needs = AnyNeedsGrad({h, attn_left, attn_right});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {h, attn_left, attn_right},
      [h, attn_left, attn_right, edges, groups, leaky_slope, saved, out_id](
          Tape& tp, const la::Matrix& g) {
        const la::Matrix& hv = tp.Value(h);
        const la::Matrix& al = tp.Value(attn_left);
        const la::Matrix& ar = tp.Value(attn_right);
        const int dim = al.rows();
        const size_t gs = static_cast<size_t>(groups);
        thread_local GatScratch scratch;

        // When the output gradient's row support is known (the seeded
        // per-node influence passes), only the supported destinations carry
        // gradient: a skipped destination would contribute exact ±0. The
        // touched rows of h are then the supported destinations' neighbour
        // lists (the aggregate and s_r terms) and the destinations themselves
        // (the s_l term), declared via GradRefPartial so resetting for the
        // next seed stays O(receptive field).
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        la::Matrix* dh = nullptr;
        if (supp != nullptr) {
          std::vector<int>& sources = scratch.sources;
          sources.clear();
          for (int i : *supp) {
            sources.insert(sources.end(), edges->col_idx.begin() + edges->row_ptr[i],
                           edges->col_idx.begin() + edges->row_ptr[i + 1]);
          }
          std::sort(sources.begin(), sources.end());
          sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
          if (tp.NeedsGrad(h)) {
            scratch.touched.clear();
            std::set_union(sources.begin(), sources.end(), supp->begin(), supp->end(),
                           std::back_inserter(scratch.touched));
            dh = &tp.GradRefPartial(h, scratch.touched);
          }
        } else if (tp.NeedsGrad(h)) {
          dh = &tp.GradRef(h);
        }
        la::Matrix* dal = tp.NeedsGrad(attn_left) ? &tp.GradRef(attn_left) : nullptr;
        la::Matrix* dar = tp.NeedsGrad(attn_right) ? &tp.GradRef(attn_right) : nullptr;
        scratch.sums.resize(gs);
        scratch.left.resize(gs);
        if (scratch.right.size() < static_cast<size_t>(hv.rows()) * gs) {
          scratch.right.resize(static_cast<size_t>(hv.rows()) * gs, 0.0);
        }

        // Destination i: the aggregate's gradient into h_j, then back
        // through the softmax and LeakyReLU to the scores. d s_l(i, ·) is
        // complete here and goes straight on; d s_r collects per source.
        // Source rows collide across destinations, so the pass is serial.
        const auto backward_dest = [&](int i) {
          const int64_t begin = edges->row_ptr[i];
          const int64_t end = edges->row_ptr[i + 1];
          if (begin == end) return;
          const double* gi = g.row(i);
          if (scratch.dalpha.size() < static_cast<size_t>(end - begin) * gs) {
            scratch.dalpha.resize(static_cast<size_t>(end - begin) * gs);
          }
          double* sums = scratch.sums.data();
          std::fill(sums, sums + groups, 0.0);
          for (int64_t k = begin; k < end; ++k) {
            const int j = edges->col_idx[k];
            const double* hj = hv.row(j);
            const double* a = saved->alpha.data() + static_cast<size_t>(k) * gs;
            double* da = scratch.dalpha.data() + static_cast<size_t>(k - begin) * gs;
            double* dhj = dh != nullptr ? dh->row(j) : nullptr;
            for (int gr = 0; gr < groups; ++gr) {
              const double alpha = a[gr];
              const double* gg = gi + gr * dim;
              const double* hg = hj + gr * dim;
              double dot = 0.0;
              for (int c = 0; c < dim; ++c) dot += gg[c] * hg[c];
              da[gr] = dot;
              sums[gr] += alpha * dot;
              if (dhj == nullptr) continue;
              double* dg = dhj + gr * dim;
              for (int c = 0; c < dim; ++c) dg[c] += alpha * gg[c];
            }
          }
          const double* sl = saved->left.data() + static_cast<size_t>(i) * gs;
          double* dsl = scratch.left.data();
          std::fill(dsl, dsl + groups, 0.0);
          for (int64_t k = begin; k < end; ++k) {
            const int j = edges->col_idx[k];
            const double* sr = saved->right.data() + static_cast<size_t>(j) * gs;
            const double* a = saved->alpha.data() + static_cast<size_t>(k) * gs;
            const double* da = scratch.dalpha.data() + static_cast<size_t>(k - begin) * gs;
            double* dsr = scratch.right.data() + static_cast<size_t>(j) * gs;
            for (int gr = 0; gr < groups; ++gr) {
              const double de = a[gr] * (da[gr] - sums[gr]);
              const double dz = sl[gr] + sr[gr] > 0.0 ? de : leaky_slope * de;
              dsl[gr] += dz;
              dsr[gr] += dz;
            }
          }
          GroupScoresBackward(hv.row(i), dsl, al, dal, dh != nullptr ? dh->row(i) : nullptr);
        };
        // Source j: its collected d s_r, then the scratch row is cleared.
        const auto backward_source = [&](int j) {
          double* dsr = scratch.right.data() + static_cast<size_t>(j) * gs;
          GroupScoresBackward(hv.row(j), dsr, ar, dar, dh != nullptr ? dh->row(j) : nullptr);
          std::fill(dsr, dsr + groups, 0.0);
        };
        if (supp != nullptr) {
          for (int i : *supp) backward_dest(i);
          for (int j : scratch.sources) backward_source(j);
        } else {
          for (int i = 0; i < edges->num_nodes; ++i) backward_dest(i);
          for (int j = 0; j < hv.rows(); ++j) backward_source(j);
        }
      });
}

}  // namespace ppfr::ag
