#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

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

Var MatMulLanes(Var a, Var b, int lanes) {
  if (lanes == 1) return MatMul(a, b);
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(bv.cols() % lanes, 0);
  const bool a_shared = av.cols() == bv.rows();
  PPFR_CHECK(a_shared || av.cols() == bv.rows() * lanes)
      << "MatMulLanes: a is " << av.rows() << "x" << av.cols()
      << ", expected shared k=" << bv.rows() << " or wide k*L=" << bv.rows() * lanes;
  // A lane-shared left operand must be a constant (features, masks): its
  // gradient would reduce over lanes, which the fused replay never needs and
  // whose accumulation order would be a fresh bitwise contract to maintain.
  PPFR_CHECK(!(a_shared && tape->NeedsGrad(a)))
      << "MatMulLanes: lane-shared `a` must not require grad";
  la::Matrix out = tape->NewValue(av.rows(), bv.cols(), /*zero_init=*/false);
  la::ActiveBackend().GemmLanes(av, bv, &out, lanes);
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {a, b},
      [a, b, lanes, a_shared, out_id](Tape& tp, const la::Matrix& g) {
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        if (tp.NeedsGrad(a)) {
          // a is lane-wide here (the shared case is CHECKed grad-free).
          if (supp != nullptr) {
            la::GemmLanesTransBAccumRows(g, tp.Value(b), &tp.GradRefPartial(a, *supp),
                                         *supp, lanes);
          } else {
            tp.GradRef(a).Axpy(1.0, la::MatMulLanesTransB(g, tp.Value(b), lanes));
          }
        }
        if (tp.NeedsGrad(b)) {
          if (supp != nullptr) {
            la::GemmLanesTransAAccumRows(tp.Value(a), g, &tp.GradRef(b), *supp, lanes);
          } else {
            tp.GradRef(b).Axpy(
                1.0, la::MatMulLanesTransA(tp.Value(a), g, lanes, a_shared));
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

Var LogSoftmaxRowsLanes(Var logits, int lanes) {
  if (lanes == 1) return LogSoftmaxRows(logits);
  Tape* tape = CommonTape({logits});
  const la::Matrix& x = logits.value();
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(x.cols() % lanes, 0);
  const int w = x.cols() / lanes;
  PPFR_CHECK_GT(w, 0);
  la::Matrix out = tape->NewValue(x.rows(), x.cols(), /*zero_init=*/false);
  {
    // Per lane window: the exact stable log-softmax loop of SoftmaxLike —
    // max, exp-sum, lse in the same order over the same w entries, so lane
    // l's output window is bitwise the narrow forward of that window.
    la::ActiveBackend().Apply(x.rows(), RowGrain(x.cols()), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        for (int l = 0; l < lanes; ++l) {
          const double* in = x.row(static_cast<int>(r)) + l * w;
          double* o = out.row(static_cast<int>(r)) + l * w;
          double mx = in[0];
          for (int c = 1; c < w; ++c) mx = std::max(mx, in[c]);
          double sum = 0.0;
          for (int c = 0; c < w; ++c) sum += std::exp(in[c] - mx);
          const double lse = mx + std::log(sum);
          for (int c = 0; c < w; ++c) o[c] = in[c] - lse;
        }
      }
    });
  }
  const bool needs = tape->NeedsGrad(logits);
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {logits},
      [logits, out_id, lanes, w](Tape& tp, const la::Matrix& g) {
        if (!tp.NeedsGrad(logits)) return;
        const Var out_var{&tp, out_id};
        const la::Matrix& y = tp.Value(out_var);
        const std::vector<int>* supp = tp.GradRowSupport(out_var);
        if (supp != nullptr) {
          la::Matrix& dx = tp.GradRefPartial(logits, *supp);
          for (int r : *supp) {
            for (int l = 0; l < lanes; ++l) {
              SoftmaxRowBackward(/*log_space=*/true, g.row(r) + l * w,
                                 y.row(r) + l * w, dx.row(r) + l * w, w);
            }
          }
          return;
        }
        la::Matrix& dx = tp.GradRef(logits);
        la::ActiveBackend().Apply(
            g.rows(), RowGrain(g.cols()), [&](int64_t r0, int64_t r1) {
              for (int64_t r = r0; r < r1; ++r) {
                for (int l = 0; l < lanes; ++l) {
                  const double* gr = g.row(static_cast<int>(r)) + l * w;
                  // Per-WINDOW all-zero skip: a lane whose narrow serial
                  // backward would skip the row skips it here too, so the
                  // lanes stay bitwise independent of their batch-mates.
                  if (RowAllZero(gr, w)) continue;
                  SoftmaxRowBackward(/*log_space=*/true, gr,
                                     y.row(static_cast<int>(r)) + l * w,
                                     dx.row(static_cast<int>(r)) + l * w, w);
                }
              }
            });
      });
}

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

Var WeightedNllLanes(Var logp, const std::vector<int>& rows,
                     const std::vector<int>& labels,
                     const std::vector<double>& weights, double denom, int lanes) {
  if (lanes == 1) return WeightedNll(logp, rows, labels, weights, denom);
  Tape* tape = CommonTape({logp});
  PPFR_CHECK_EQ(rows.size(), labels.size());
  PPFR_CHECK_EQ(rows.size(), weights.size());
  PPFR_CHECK_GT(denom, 0.0);
  const la::Matrix& lp = logp.value();
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(lp.cols() % lanes, 0);
  const int w = lp.cols() / lanes;
  // Scalar output = Σ_l loss_l, each lane's loss accumulated in the narrow
  // op's k-order then divided by denom — the per-lane value is bitwise the
  // narrow forward; only the cross-lane sum is new (and is never
  // differentiated through: the backward below writes per-lane entries
  // directly).
  double total = 0.0;
  for (int l = 0; l < lanes; ++l) {
    double loss = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) {
      PPFR_CHECK_GE(labels[k], 0);
      PPFR_CHECK_LT(labels[k], w);
      loss -= weights[k] * lp(rows[k], l * w + labels[k]);
    }
    total += loss / denom;
  }
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = total;
  const bool needs = tape->NeedsGrad(logp);
  return MakeOp(tape, std::move(out), needs, {logp},
                [logp, rows, labels, weights, denom, lanes, w](Tape& tp,
                                                               const la::Matrix& g) {
                  if (!tp.NeedsGrad(logp)) return;
                  la::Matrix& dl = tp.GradRefPartial(logp, rows);
                  const double scale = g(0, 0) / denom;
                  for (int l = 0; l < lanes; ++l) {
                    for (size_t k = 0; k < rows.size(); ++k) {
                      dl(rows[k], l * w + labels[k]) -= scale * weights[k];
                    }
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

Var ConcatCols(const std::vector<Var>& parts) {
  PPFR_CHECK(!parts.empty());
  Tape* tape = parts[0].tape;
  int total_cols = 0;
  const int rows = parts[0].rows();
  bool needs = false;
  for (Var p : parts) {
    PPFR_CHECK(p.tape == tape);
    PPFR_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
    needs = needs || tape->NeedsGrad(p);
  }
  la::Matrix out = tape->NewValue(rows, total_cols, /*zero_init=*/false);
  int offset = 0;
  for (Var p : parts) {
    const la::Matrix& pv = p.value();
    for (int r = 0; r < rows; ++r) {
      std::copy(pv.row(r), pv.row(r) + pv.cols(), out.row(r) + offset);
    }
    offset += pv.cols();
  }
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, parts,
                [parts, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  int offset = 0;
                  for (Var p : parts) {
                    const int pc = tp.Value(p).cols();
                    if (tp.NeedsGrad(p)) {
                      la::Matrix& dp = supp != nullptr ? tp.GradRefPartial(p, *supp)
                                                       : tp.GradRef(p);
                      auto add_row = [&](int r) {
                        const double* gr = g.row(r) + offset;
                        double* dr = dp.row(r);
                        for (int c = 0; c < pc; ++c) dr[c] += gr[c];
                      };
                      if (supp != nullptr) {
                        for (int r : *supp) add_row(r);
                      } else {
                        for (int r = 0; r < g.rows(); ++r) add_row(r);
                      }
                    }
                    offset += pc;
                  }
                });
}

Var SliceCols(Var a, int col0, int width) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  PPFR_CHECK_GE(col0, 0);
  PPFR_CHECK_GT(width, 0);
  PPFR_CHECK_LE(col0 + width, av.cols());
  la::Matrix out = tape->NewValue(av.rows(), width, /*zero_init=*/false);
  {
    la::ActiveBackend().Apply(av.rows(), RowGrain(width), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const double* src = av.row(static_cast<int>(r)) + col0;
        std::copy(src, src + width, out.row(static_cast<int>(r)));
      }
    });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, col0, width, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  la::Matrix& da = supp != nullptr ? tp.GradRefPartial(a, *supp)
                                                   : tp.GradRef(a);
                  auto add_row = [&](int r) {
                    const double* gr = g.row(r);
                    double* dr = da.row(r) + col0;
                    for (int c = 0; c < width; ++c) dr[c] += gr[c];
                  };
                  if (supp != nullptr) {
                    for (int r : *supp) add_row(r);
                  } else {
                    for (int r = 0; r < g.rows(); ++r) add_row(r);
                  }
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

Var EdgeSoftmaxAggregate(Var h, Var attn_left, Var attn_right,
                         const std::shared_ptr<const EdgeSet>& edges, int heads,
                         double leaky_slope) {
  Tape* tape = CommonTape({h, attn_left, attn_right});
  const la::Matrix& hv = h.value();
  const la::Matrix& sl = attn_left.value();
  const la::Matrix& sr = attn_right.value();
  const int n = edges->num_nodes;  // destinations; sources are h's rows
  PPFR_CHECK_GE(hv.rows(), n);
  PPFR_CHECK_EQ(sl.rows(), n);
  PPFR_CHECK_EQ(sr.rows(), hv.rows());
  PPFR_CHECK_EQ(sl.cols(), heads);
  PPFR_CHECK_EQ(sr.cols(), heads);
  PPFR_CHECK_EQ(hv.cols() % heads, 0);
  const int dim = hv.cols() / heads;
  const int64_t m = edges->num_edges();

  // Saved for backward: attention coefficients and pre-activation signs.
  auto alpha = std::make_shared<std::vector<double>>(static_cast<size_t>(m) * heads);
  auto z_pos = std::make_shared<std::vector<char>>(static_cast<size_t>(m) * heads);

  la::Matrix out = tape->NewValue(n, hv.cols(), /*zero_init=*/true);
  // Destination rows are independent — each (i, head) writes only out.row(i)
  // and its own alpha slots — so the forward fans out over destination
  // chunks. Chunk boundaries are placed on CUMULATIVE degree (row_ptr is the
  // prefix sum), not row count: per-row cost is O(degree), so hub nodes in a
  // power-law graph would otherwise serialise one chunk. The partition never
  // affects results, only which thread computes them.
  const int64_t edge_grain = std::max<int64_t>(1, kApplyGrain / std::max(heads * dim, 1));
  const int64_t num_chunks =
      n == 0 ? 0 : std::max<int64_t>(1, std::min<int64_t>(n, m / edge_grain));
  const std::vector<int64_t> bounds =
      num_chunks > 0 ? la::NnzBalancedRowBounds(edges->row_ptr, n, num_chunks)
                     : std::vector<int64_t>{0};
  la::ActiveBackend().Apply(num_chunks, 1, [&](int64_t c0, int64_t c1) {
    const int64_t i0 = bounds[static_cast<size_t>(c0)];
    const int64_t i1 = bounds[static_cast<size_t>(c1)];
    for (int head = 0; head < heads; ++head) {
      const int col0 = head * dim;
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t begin = edges->row_ptr[i];
        const int64_t end = edges->row_ptr[i + 1];
        if (begin == end) continue;
        // Stable softmax over e_ij.
        double mx = -1e300;
        for (int64_t k = begin; k < end; ++k) {
          const int j = edges->col_idx[k];
          const double z = sl(static_cast<int>(i), head) + sr(j, head);
          const double e = z > 0.0 ? z : leaky_slope * z;
          (*z_pos)[static_cast<size_t>(k) * heads + head] = z > 0.0 ? 1 : 0;
          (*alpha)[static_cast<size_t>(k) * heads + head] = e;  // store e temporarily
          mx = std::max(mx, e);
        }
        double denom = 0.0;
        for (int64_t k = begin; k < end; ++k) {
          double& slot = (*alpha)[static_cast<size_t>(k) * heads + head];
          slot = std::exp(slot - mx);
          denom += slot;
        }
        double* out_row = out.row(static_cast<int>(i)) + col0;
        for (int64_t k = begin; k < end; ++k) {
          double& slot = (*alpha)[static_cast<size_t>(k) * heads + head];
          slot /= denom;  // now alpha_ij
          const double* hj = hv.row(edges->col_idx[k]) + col0;
          for (int c = 0; c < dim; ++c) out_row[c] += slot * hj[c];
        }
      }
    }
  });

  const bool needs = AnyNeedsGrad({h, attn_left, attn_right});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {h, attn_left, attn_right},
      [h, attn_left, attn_right, edges, heads, dim, leaky_slope, alpha, z_pos,
       out_id](Tape& tp, const la::Matrix& g) {
        const la::Matrix& hv = tp.Value(h);
        const int n = edges->num_nodes;
        const bool need_h = tp.NeedsGrad(h);
        const bool need_attn = tp.NeedsGrad(attn_left) || tp.NeedsGrad(attn_right);

        // When the output gradient's nonzero-row support is known (the
        // seeded per-node influence passes), only the supported destinations
        // carry gradient: a skipped destination's edges would contribute
        // exact ±0 products. The touched parent rows are then the union of
        // the supported destinations' neighbour lists (dh / dsr source rows;
        // self-loops put i itself in its own list) and the support rows
        // themselves (dsl), declared via GradRefPartial so resetting for the
        // next seed stays O(receptive field) — GAT per-node influence costs
        // O(2-hop) like GCN's SpMM path instead of O(n).
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        // thread_local scratch: runs once per seed per layer inside the
        // pooled per-node loop, which must stay allocation-free.
        thread_local std::vector<int> targets;
        la::Matrix* dh = nullptr;
        la::Matrix* dsl = nullptr;
        la::Matrix* dsr = nullptr;
        if (supp != nullptr) {
          targets.clear();
          for (int i : *supp) {
            for (int64_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
              targets.push_back(edges->col_idx[k]);
            }
          }
          std::sort(targets.begin(), targets.end());
          targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
          dh = need_h ? &tp.GradRefPartial(h, targets) : nullptr;
          dsl = tp.NeedsGrad(attn_left) ? &tp.GradRefPartial(attn_left, *supp)
                                        : nullptr;
          dsr = tp.NeedsGrad(attn_right) ? &tp.GradRefPartial(attn_right, targets)
                                         : nullptr;
        } else {
          dh = need_h ? &tp.GradRef(h) : nullptr;
          dsl = tp.NeedsGrad(attn_left) ? &tp.GradRef(attn_left) : nullptr;
          dsr = tp.NeedsGrad(attn_right) ? &tp.GradRef(attn_right) : nullptr;
        }

        // Source-node scatter rows collide across destinations, so the
        // backward stays serial.
        std::vector<double> dalpha;  // per-edge scratch for the current (i, head)
        const auto backward_dest = [&](int i, int head) {
          const int col0 = head * dim;
          const int64_t begin = edges->row_ptr[i];
          const int64_t end = edges->row_ptr[i + 1];
          if (begin == end) return;
          const double* gi = g.row(i) + col0;
          dalpha.assign(static_cast<size_t>(end - begin), 0.0);
          double weighted_sum = 0.0;  // sum_j alpha_ij * dalpha_ij
          for (int64_t k = begin; k < end; ++k) {
            const int j = edges->col_idx[k];
            const double a = (*alpha)[static_cast<size_t>(k) * heads + head];
            const double* hj = hv.row(j) + col0;
            double dot = 0.0;
            for (int c = 0; c < dim; ++c) dot += gi[c] * hj[c];
            dalpha[static_cast<size_t>(k - begin)] = dot;
            weighted_sum += a * dot;
            if (need_h) {
              double* dhj = dh->row(j) + col0;
              for (int c = 0; c < dim; ++c) dhj[c] += a * gi[c];
            }
          }
          if (!need_attn) return;
          for (int64_t k = begin; k < end; ++k) {
            const int j = edges->col_idx[k];
            const double a = (*alpha)[static_cast<size_t>(k) * heads + head];
            const double de =
                a * (dalpha[static_cast<size_t>(k - begin)] - weighted_sum);
            const double dz =
                (*z_pos)[static_cast<size_t>(k) * heads + head] ? de : leaky_slope * de;
            if (dsl != nullptr) (*dsl)(i, head) += dz;
            if (dsr != nullptr) (*dsr)(j, head) += dz;
          }
        };
        for (int head = 0; head < heads; ++head) {
          if (supp != nullptr) {
            for (int i : *supp) backward_dest(i, head);
          } else {
            for (int i = 0; i < n; ++i) backward_dest(i, head);
          }
        }
      });
}

}  // namespace ppfr::ag
