#include "autograd/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>

#include "la/backend.h"

#ifdef __AVX__
#include <immintrin.h>
#endif

namespace ppfr::ag {
namespace {

// Grain for backend-routed elementwise loops: below this many flat elements
// (or the row-count equivalent) threading doesn't pay, matching the cutoffs
// inside the parallel backend's own kernels.
constexpr int64_t kApplyGrain = 32 * 1024;

int64_t RowGrain(int cols) { return std::max<int64_t>(1, kApplyGrain / std::max(cols, 1)); }

// The sorted, distinct columns listed in `rows` of a CSR pattern whose
// columns lie in [0, num_cols), written to `out`. Each column is marked in a
// per-thread array sized to the operand the first time it is met, so the
// cost is linear in the listed entries plus a sort of the distinct columns
// (a saturated support lists each column many times over).
void UnionOfRows(const std::vector<int64_t>& row_ptr, const std::vector<int>& col_idx,
                 int num_cols, const std::vector<int>& rows, std::vector<int>* out) {
  thread_local std::vector<uint8_t> seen;  // all zero between calls
  if (static_cast<int>(seen.size()) < num_cols) seen.resize(static_cast<size_t>(num_cols), 0);
  out->clear();
  for (int r : rows) {
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const int c = col_idx[k];
      if (seen[static_cast<size_t>(c)] == 0) {
        seen[static_cast<size_t>(c)] = 1;
        out->push_back(c);
      }
    }
  }
  for (int c : *out) seen[static_cast<size_t>(c)] = 0;
  std::sort(out->begin(), out->end());
}

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
// it sweeps the flat buffer. Both leave da unchanged where g is exactly zero
// (a select, not a branch, so the loops vectorise) and otherwise add g·f'(a)
// as one MulAdd, so both paths write the same bits.
inline double AddGradTerm(double da, double g, double df) {
  const double updated = la::MulAdd(g, df, da);
  return g == 0.0 ? da : updated;
}

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
                        dr[c] = AddGradTerm(dr[c], gr[c], df(ar[c]));
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
                          dd[i] = AddGradTerm(dd[i], gd[i], df(ad[i]));
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

const EdgeSet::BySource& EdgeSet::Sources() const {
  std::call_once(sources_once_, [this] {
    int listed = num_nodes;
    for (int j : col_idx) listed = std::max(listed, j + 1);
    sources_.ptr.assign(static_cast<size_t>(listed) + 1, 0);
    for (int j : col_idx) ++sources_.ptr[static_cast<size_t>(j) + 1];
    for (int j = 0; j < listed; ++j) sources_.ptr[j + 1] += sources_.ptr[j];
    sources_.edge.resize(col_idx.size());
    sources_.dest.resize(col_idx.size());
    std::vector<int64_t> next(sources_.ptr.begin(), sources_.ptr.end() - 1);
    for (int i = 0; i < num_nodes; ++i) {
      for (int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const int64_t slot = next[static_cast<size_t>(col_idx[k])]++;
        sources_.edge[slot] = k;
        sources_.dest[slot] = i;
      }
    }
  });
  return sources_;
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
          UnionOfRows(sp->mat.row_ptr(), sp->mat.col_idx(), sp->mat.cols(), *supp, &targets);
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

// Both arms are evaluated, then one is selected: GCC does not if-convert an
// exp evaluated on one arm only (it may trap under the default
// -ftrapping-math), and the select lets the loops vectorise. la::Exp is
// lane-invariant, so every element gets the bits of a per-element branch.
Var Elu(Var a, double alpha) {
  return UnaryElementwise(
      a,
      [alpha](double x) {
        const double negative = alpha * (la::Exp(x) - 1.0);
        return x > 0.0 ? x : negative;
      },
      [alpha](double x) {
        const double negative = alpha * la::Exp(x);
        return x > 0.0 ? 1.0 : negative;
      });
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
      a, [](double x) { return 1.0 / (1.0 + la::Exp(-x)); },
      [](double x) {
        const double s = 1.0 / (1.0 + la::Exp(-x));
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
    for (int c = 0; c < cols; ++c) dr[c] += la::MulAdd(-la::Exp(yr[c]), gsum, gr[c]);
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
      la::SoftmaxRowsInto(x.row(static_cast<int>(r0)), r1 - r0, cols, log_space,
                          out.row(static_cast<int>(r0)));
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
// branch is recomputed from the scores, bit for bit the forward's. The
// forward writes every element before anything reads it, so the buffers are
// not zero-filled.
struct GatSaved {
  GatSaved(size_t edge_groups, size_t dest_groups, size_t source_groups)
      : alpha(std::make_unique_for_overwrite<double[]>(edge_groups)),
        left(std::make_unique_for_overwrite<double[]>(dest_groups)),
        right(std::make_unique_for_overwrite<double[]>(source_groups)) {}

  std::unique_ptr<double[]> alpha;  // edges x groups, edge-major
  std::unique_ptr<double[]> left;   // s_l: destinations x groups
  std::unique_ptr<double[]> right;  // s_r: sources x groups
};

// Per-thread backward scratch, reused across calls: the pooled per-node
// influence loop runs this backward once per seed per layer and must stay
// allocation-free once warm. `right` is all zero between calls; each call
// clears the rows it wrote.
struct GatScratch {
  std::vector<int> sources;     // rows the supported destinations aggregate
  std::vector<int> touched;     // sources ∪ the supported destinations
  std::vector<double> dalpha;   // one destination's edges x groups
  std::vector<double> left;     // destinations x groups: d/d s_l(i, g)
  std::vector<double> right;    // sources x groups: d/d s_r(j, g)
  std::vector<double> sums;     // per group: Σ_j alpha_ij·dalpha_ij
  std::vector<double> h_lanes;  // h, each row head-interleaved (InterleaveHeads)
  std::vector<double> left_row, right_row;  // attn_left, attn_right (AttnAsRow)
};

#ifdef __AVX__
constexpr bool kAvx = true;
#else
constexpr bool kAvx = false;
#endif

// The group count and width of a GatAttention call. The paper's layers (4
// heads x 8, then 1 head x the class count) get them at compile time, so a
// destination's accumulators stay in registers, and with AVX the 4-head
// layer runs its groups in vector lanes; any other shape runs the same
// sequence with runtime counts.
template <int kG, int kD>
struct FixedGatShape {
  static constexpr bool kFixed = true;
  static constexpr int kGroups = kG;
  static constexpr int kDim = kD;
  static constexpr int kWidth = kG * kD;
  static constexpr bool kLanes = kG == 4 && kAvx;
  int groups() const { return kG; }
  int dim() const { return kD; }
};

struct RuntimeGatShape {
  static constexpr bool kFixed = false;
  static constexpr bool kLanes = false;
  int g, d;
  int groups() const { return g; }
  int dim() const { return d; }
};

template <typename Fn>
void WithGatShape(int groups, int dim, Fn&& fn) {
  if (groups == 4 && dim == 8) return fn(FixedGatShape<4, 8>{});
  if (groups == 1 && dim == 7) return fn(FixedGatShape<1, 7>{});
  if (groups == 1 && dim == 6) return fn(FixedGatShape<1, 6>{});
  if (groups == 1 && dim == 3) return fn(FixedGatShape<1, 3>{});
  fn(RuntimeGatShape{groups, dim});
}

// Adds terms w[g]·x[g-block] to a row of groups x dim doubles, one MulAdd
// per element and term in the order `terms` passes them to its callback.
// A fixed shape holds the row in registers across all terms.
template <typename Shape, typename Terms>
inline void AccumulateRow(const Shape& shape, double* row, const Terms& terms) {
  if constexpr (Shape::kFixed) {
    constexpr int kG = Shape::kGroups, kD = Shape::kDim;
    double acc[kG][kD];
    for (int g = 0; g < kG; ++g) {
      for (int c = 0; c < kD; ++c) acc[g][c] = row[g * kD + c];
    }
    terms([&acc](const double* w, const double* x) {
      for (int g = 0; g < kG; ++g) {
        const double wg = w[g];
        for (int c = 0; c < kD; ++c) acc[g][c] = la::MulAdd(wg, x[g * kD + c], acc[g][c]);
      }
    });
    for (int g = 0; g < kG; ++g) {
      for (int c = 0; c < kD; ++c) row[g * kD + c] = acc[g][c];
    }
  } else {
    const int groups = shape.groups(), dim = shape.dim();
    terms([&](const double* w, const double* x) {
      for (int g = 0; g < groups; ++g) {
        const double wg = w[g];
        for (int c = g * dim; c < (g + 1) * dim; ++c) row[c] = la::MulAdd(wg, x[c], row[c]);
      }
    });
  }
}

// z > 0 ? pos : neg through a bit mask. GCC compiles the ternary, and the
// factor form de·(z > 0 ? 1 : slope), to a conditional jump, which
// mispredicts on mixed-sign scores.
inline double SelectPositive(double z, double pos, double neg) {
  const uint64_t mask = -static_cast<uint64_t>(z > 0.0);
  return std::bit_cast<double>((std::bit_cast<uint64_t>(pos) & mask) |
                               (std::bit_cast<uint64_t>(neg) & ~mask));
}

// h_row[g-block]·attn[:, g] for every group g of a d x groups `attn`: one
// MulAdd chain per group in column order.
inline void GroupScores(const double* h_row, const la::Matrix& attn, double* scores) {
  const int dim = attn.rows();
  const int groups = attn.cols();
  const double* a = attn.data();
  for (int g = 0; g < groups; ++g) {
    const double* hg = h_row + g * dim;
    double s = 0.0;
    for (int c = 0; c < dim; ++c) s = la::MulAdd(hg[c], a[c * groups + g], s);
    scores[g] = s;
  }
}

// Back through GroupScores into attn's gradient, given d/d score per group:
// dattn(c, g) += dscores[g]·h_row[g-block][c].
inline void GroupScoresAttnGrad(const double* h_row, const double* dscores,
                                la::Matrix* dattn) {
  const int dim = dattn->rows();
  const int groups = dattn->cols();
  double* da = dattn->data();
  for (int g = 0; g < groups; ++g) {
    const double* hg = h_row + g * dim;
    for (int c = 0; c < dim; ++c) {
      da[c * groups + g] = la::MulAdd(dscores[g], hg[c], da[c * groups + g]);
    }
  }
}

// A d x groups attention matrix laid out like an h row: element (c, g) at
// g·d + c, so that AccumulateRow can add dscores[g]·attn(·, g) to a row.
void AttnAsRow(const la::Matrix& attn, std::vector<double>* row) {
  const int dim = attn.rows(), groups = attn.cols();
  row->resize(static_cast<size_t>(dim) * groups);
  for (int g = 0; g < groups; ++g) {
    for (int c = 0; c < dim; ++c) (*row)[static_cast<size_t>(g) * dim + c] = attn(c, g);
  }
}

// Head-interleaved copy of a groups x dim row: element (g, c) at c·groups + g.
template <int kG, int kD>
inline void InterleaveHeads(const double* row, double* lanes) {
  for (int g = 0; g < kG; ++g) {
    for (int c = 0; c < kD; ++c) lanes[c * kG + g] = row[g * kD + c];
  }
}

#ifdef __AVX__
// Four doubles in one AVX register: the 4-head layer's heads in lanes.
// MulAdd4 rounds each lane like la::MulAdd. Left to itself, GCC vectorised
// the same chains only partly, and differently in every context.
using Double4 = double __attribute__((vector_size(4 * sizeof(double))));

inline Double4 Load4(const double* p) {
  Double4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(double* p, Double4 v) { std::memcpy(p, &v, sizeof(v)); }

inline Double4 MulAdd4(Double4 a, Double4 b, Double4 c) {
#ifdef __FMA__
  return _mm256_fmadd_pd(a, b, c);
#else
  return a * b + c;
#endif
}

// The head dots of one destination's edges with the 4 groups in vector
// lanes, on head-interleaved copies of its gradient row and of h (h_lanes):
// the per-group loop's chains, with its bits.
template <int kD>
void HeadDotsInLanes(const double* gi, const double* h_lanes, const int* cols, int64_t deg,
                     double* dalpha) {
  double gi_lanes[4 * kD];
  InterleaveHeads<4, kD>(gi, gi_lanes);
  for (int64_t k = 0; k < deg; ++k) {
    const double* hj = h_lanes + static_cast<size_t>(cols[k]) * (4 * kD);
    Double4 d = {};
    for (int c = 0; c < kD; ++c) d = MulAdd4(Load4(gi_lanes + 4 * c), Load4(hj + 4 * c), d);
    Store4(dalpha + 4 * k, d);
  }
}

// d s_l of one destination and its edges' terms of d s_r, the 4 groups in
// lanes: the per-group loop's sequence, with its bits.
inline void SoftmaxBackwardInLanes(const double* alpha, const double* dalpha, const int* cols,
                                   int64_t deg, const double* sl, const double* s_right,
                                   double leaky_slope, double* dsr_all, double* dsl) {
  Double4 sums = {};
  for (int64_t k = 0; k < deg; ++k) sums = MulAdd4(Load4(alpha + 4 * k), Load4(dalpha + 4 * k), sums);
  const Double4 left = Load4(sl);
  const Double4 ones = {1.0, 1.0, 1.0, 1.0};
  const Double4 slopes = {leaky_slope, leaky_slope, leaky_slope, leaky_slope};
  Double4 acc = {};
  for (int64_t k = 0; k < deg; ++k) {
    const size_t j = static_cast<size_t>(cols[k]) * 4;
    const Double4 de = Load4(alpha + 4 * k) * (Load4(dalpha + 4 * k) - sums);
    const Double4 factor = left + Load4(s_right + j) > 0.0 ? ones : slopes;
    acc = MulAdd4(de, factor, acc);
    Store4(dsr_all + j, MulAdd4(de, factor, Load4(dsr_all + j)));
  }
  Store4(dsl, acc);
}

// e_ij − max_j e_ij of one 4-group destination, written to its block: the
// per-group passes' values (the max is exact, so lanes do not change it).
inline void ShiftedScoresInLanes(const double* sl, const double* s_right, const int* cols,
                                 int64_t deg, double leaky_slope, double* block) {
  const Double4 left = Load4(sl);
  const Double4 slopes = {leaky_slope, leaky_slope, leaky_slope, leaky_slope};
  const double inf = std::numeric_limits<double>::infinity();
  Double4 mx = {-inf, -inf, -inf, -inf};
  for (int64_t k = 0; k < deg; ++k) {
    const Double4 z = left + Load4(s_right + static_cast<size_t>(cols[k]) * 4);
    const Double4 sz = slopes * z;
    const Double4 e = z < sz ? sz : z;  // std::max(z, slope·z)
    Store4(block + 4 * k, e);
    mx = mx < e ? e : mx;  // std::max(mx, e)
  }
  for (int64_t k = 0; k < deg; ++k) Store4(block + 4 * k, Load4(block + 4 * k) - mx);
}

// The denominators of one 4-group destination, summed in edge order, and
// the division.
inline void NormaliseInLanes(int64_t deg, double* block) {
  Double4 denom = {};
  for (int64_t k = 0; k < deg; ++k) denom += Load4(block + 4 * k);
  for (int64_t k = 0; k < deg; ++k) Store4(block + 4 * k, Load4(block + 4 * k) / denom);
}
#endif  // __AVX__

struct GatForwardArgs {
  const EdgeSet* edges;
  const la::Matrix* h;
  const double* s_left;   // destinations x groups
  const double* s_right;  // sources x groups
  double* alpha;          // edges x groups
  la::Matrix* out;        // zero-filled
  double slope;
};

// The forward for destinations [i0, i1), each as passes over its contiguous
// edges x groups block of alpha: the LeakyReLU scores, their per-group max
// and its subtraction; the exps, one flat loop over the block; the
// per-group denominators, summed in edge order; the division; then the
// aggregate. Each pass is elementwise over the block or keeps one chain per
// group in edge order, so vectorising any of them, or running the 4 groups
// in lanes, keeps the bits.
template <typename Shape>
void GatForwardRows(const Shape& shape, const GatForwardArgs& args, int64_t i0,
                    int64_t i1) {
  const int groups = shape.groups();
  const size_t gs = static_cast<size_t>(groups);
  const std::vector<int64_t>& row_ptr = args.edges->row_ptr;
  const int* const col_idx = args.edges->col_idx.data();
  std::vector<double> per_group(2 * gs);
  double* const mx = per_group.data();
  double* const denom = mx + gs;
  for (int64_t i = i0; i < i1; ++i) {
    const int64_t begin = row_ptr[i];
    const int64_t end = row_ptr[i + 1];
    if (begin == end) continue;
    const double* sl = args.s_left + static_cast<size_t>(i) * gs;
    double* const block = args.alpha + static_cast<size_t>(begin) * gs;
    const int64_t deg = end - begin;
    const int* const cols = col_idx + begin;
    bool in_lanes = false;
#ifdef __AVX__
    if constexpr (Shape::kLanes) {
      ShiftedScoresInLanes(sl, args.s_right, cols, deg, args.slope, block);
      in_lanes = true;
    }
#endif
    if (!in_lanes) {
      for (int64_t k = 0; k < deg; ++k) {
        const double* sr = args.s_right + static_cast<size_t>(cols[k]) * gs;
        double* a = block + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) {
          const double z = sl[g] + sr[g];
          a[g] = std::max(z, args.slope * z);  // e_ij until normalised
        }
      }
      std::fill_n(mx, groups, -std::numeric_limits<double>::infinity());
      for (int64_t k = 0; k < deg; ++k) {
        const double* a = block + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) mx[g] = std::max(mx[g], a[g]);
      }
      for (int64_t k = 0; k < deg; ++k) {
        double* a = block + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) a[g] -= mx[g];
      }
    }
    for (int64_t q = 0; q < deg * groups; ++q) block[q] = la::Exp(block[q]);
#ifdef __AVX__
    if constexpr (Shape::kLanes) NormaliseInLanes(deg, block);
#endif
    if (!in_lanes) {
      std::fill_n(denom, groups, 0.0);
      for (int64_t k = 0; k < deg; ++k) {
        const double* a = block + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) denom[g] += a[g];
      }
      for (int64_t k = 0; k < deg; ++k) {
        double* a = block + static_cast<size_t>(k) * gs;
        for (int g = 0; g < groups; ++g) a[g] /= denom[g];
      }
    }
    AccumulateRow(shape, args.out->row(static_cast<int>(i)), [&](const auto& add) {
      for (int64_t k = 0; k < deg; ++k) {
        add(block + static_cast<size_t>(k) * gs, args.h->row(cols[k]));
      }
    });
  }
}


struct GatBackwardArgs {
  const EdgeSet* edges;
  const la::Matrix* h;
  const la::Matrix* attn_left;
  const la::Matrix* attn_right;
  const la::Matrix* grad;  // d/d out
  const GatSaved* saved;
  double slope;
  const std::vector<int>* supp;  // the gradient's row support, or null
  la::Matrix* dh;                // each null when not wanted
  la::Matrix* dattn_left;
  la::Matrix* dattn_right;
  GatScratch* scratch;
};

// d s_l(i, ·) for destination i and its edges' terms of d s_r, as passes
// over the edge block: the head dots dalpha (the heads in vector lanes for
// a fixed multi-head shape on the full backward, which reads the
// head-interleaved copy of h), their alpha-weighted sums, then back through
// the softmax and the LeakyReLU.
template <typename Shape>
void GatBackwardDest(const Shape& shape, const GatBackwardArgs& args, int i) {
  const int groups = shape.groups();
  const int dim = shape.dim();
  const size_t gs = static_cast<size_t>(groups);
  const EdgeSet& edges = *args.edges;
  GatScratch& scratch = *args.scratch;
  const int64_t begin = edges.row_ptr[i];
  const int64_t deg = edges.row_ptr[i + 1] - begin;
  double* const dsl = scratch.left.data() + static_cast<size_t>(i) * gs;
  std::fill_n(dsl, groups, 0.0);
  if (deg == 0) return;
  const int* const cols = edges.col_idx.data() + begin;
  const double* const alpha = args.saved->alpha.get() + static_cast<size_t>(begin) * gs;
  const double* const gi = args.grad->row(i);
  if (scratch.dalpha.size() < static_cast<size_t>(deg) * gs) {
    scratch.dalpha.resize(static_cast<size_t>(deg) * gs);
  }
  double* const dalpha = scratch.dalpha.data();
  bool in_lanes = false;
#ifdef __AVX__
  if constexpr (Shape::kLanes) {
    if (args.supp == nullptr) {
      HeadDotsInLanes<Shape::kDim>(gi, scratch.h_lanes.data(), cols, deg, dalpha);
      in_lanes = true;
    }
  }
#endif
  if (!in_lanes) {
    for (int64_t k = 0; k < deg; ++k) {
      const double* hj = args.h->row(cols[k]);
      for (int g = 0; g < groups; ++g) {
        double d = 0.0;
        for (int c = g * dim; c < (g + 1) * dim; ++c) d = la::MulAdd(gi[c], hj[c], d);
        dalpha[k * groups + g] = d;
      }
    }
  }
  // Through the softmax and the LeakyReLU. For a fixed shape the per-group
  // sums and d s_l stay in locals, out of reach of the d s_r stores.
  const double* sl = args.saved->left.get() + static_cast<size_t>(i) * gs;
  const auto softmax_backward = [&](double* sums, double* dsl_acc) {
    std::fill_n(sums, groups, 0.0);
    std::fill_n(dsl_acc, groups, 0.0);
    for (int64_t k = 0; k < deg; ++k) {
      for (int g = 0; g < groups; ++g) {
        sums[g] = la::MulAdd(alpha[k * groups + g], dalpha[k * groups + g], sums[g]);
      }
    }
    for (int64_t k = 0; k < deg; ++k) {
      const double* sr = args.saved->right.get() + static_cast<size_t>(cols[k]) * gs;
      double* dsr = scratch.right.data() + static_cast<size_t>(cols[k]) * gs;
      for (int g = 0; g < groups; ++g) {
        const double de = alpha[k * groups + g] * (dalpha[k * groups + g] - sums[g]);
        const double slope = SelectPositive(sl[g] + sr[g], 1.0, args.slope);
        dsl_acc[g] = la::MulAdd(de, slope, dsl_acc[g]);
        dsr[g] = la::MulAdd(de, slope, dsr[g]);
      }
    }
  };
#ifdef __AVX__
  if constexpr (Shape::kLanes) {
    SoftmaxBackwardInLanes(alpha, dalpha, cols, deg, sl, args.saved->right.get(), args.slope,
                           scratch.right.data(), dsl);
  } else
#endif
  if constexpr (Shape::kFixed) {
    double sums[Shape::kGroups], dsl_acc[Shape::kGroups];
    softmax_backward(sums, dsl_acc);
    std::copy_n(dsl_acc, Shape::kGroups, dsl);
  } else {
    softmax_backward(scratch.sums.data(), dsl);
  }
  if (args.dattn_left != nullptr) GroupScoresAttnGrad(args.h->row(i), dsl, args.dattn_left);
}

// The backward. d s_l and d s_r first, destination by destination (all, or
// the supported ones, ascending); then dh. The full backward gathers each
// row's dh terms through the source-major edge list with the row held in
// registers; the row-support backward (a few rows) scatters them per edge
// and per score instead. Both add every row's terms in the documented
// order, so they agree bit for bit.
template <typename Shape>
void GatBackward(const Shape& shape, const GatBackwardArgs& args) {
  const size_t gs = static_cast<size_t>(shape.groups());
  const EdgeSet& edges = *args.edges;
  const la::Matrix& hv = *args.h;
  GatScratch& scratch = *args.scratch;
  la::Matrix* const dh = args.dh;
  AttnAsRow(*args.attn_left, &scratch.left_row);
  AttnAsRow(*args.attn_right, &scratch.right_row);
  // Row j's score terms: d s_l(j, ·)·attn_left when j is a destination this
  // pass computed, then d s_r(j, ·)·attn_right (zero unless j is a source).
  const auto score_terms = [&](int j, bool destination, const auto& add) {
    if (destination) {
      add(scratch.left.data() + static_cast<size_t>(j) * gs, scratch.left_row.data());
    }
    add(scratch.right.data() + static_cast<size_t>(j) * gs, scratch.right_row.data());
  };

  if (args.supp != nullptr) {
    for (int i : *args.supp) GatBackwardDest(shape, args, i);
    if (dh != nullptr) {
      for (int i : *args.supp) {
        const int64_t begin = edges.row_ptr[i], end = edges.row_ptr[i + 1];
        for (int64_t k = begin; k < end; ++k) {
          AccumulateRow(shape, dh->row(edges.col_idx[k]), [&](const auto& add) {
            add(args.saved->alpha.get() + static_cast<size_t>(k) * gs, args.grad->row(i));
          });
        }
      }
      // touched and the support are both sorted: walk them together.
      auto next_dest = args.supp->begin();
      for (int j : scratch.touched) {
        const bool destination = next_dest != args.supp->end() && *next_dest == j;
        if (destination) ++next_dest;
        AccumulateRow(shape, dh->row(j),
                      [&](const auto& add) { score_terms(j, destination, add); });
      }
    }
    for (int j : scratch.sources) {
      double* dsr = scratch.right.data() + static_cast<size_t>(j) * gs;
      if (args.dattn_right != nullptr) GroupScoresAttnGrad(hv.row(j), dsr, args.dattn_right);
      std::fill_n(dsr, gs, 0.0);
    }
    return;
  }

  if constexpr (Shape::kLanes) {
    constexpr int kWidth = Shape::kWidth;
    scratch.h_lanes.resize(static_cast<size_t>(hv.rows()) * kWidth);
    for (int j = 0; j < hv.rows(); ++j) {
      InterleaveHeads<Shape::kGroups, Shape::kDim>(
          hv.row(j), scratch.h_lanes.data() + static_cast<size_t>(j) * kWidth);
    }
  }
  for (int i = 0; i < edges.num_nodes; ++i) GatBackwardDest(shape, args, i);
  if (dh != nullptr) {
    const EdgeSet::BySource& by_source = edges.Sources();
    const int listed = static_cast<int>(by_source.ptr.size()) - 1;
    const double* alpha = args.saved->alpha.get();
    for (int j = 0; j < hv.rows(); ++j) {
      AccumulateRow(shape, dh->row(j), [&](const auto& add) {
        if (j < listed) {
          for (int64_t e = by_source.ptr[j]; e < by_source.ptr[j + 1]; ++e) {
            add(alpha + static_cast<size_t>(by_source.edge[e]) * gs,
                args.grad->row(by_source.dest[e]));
          }
        }
        score_terms(j, j < edges.num_nodes, add);
      });
    }
  }
  for (int j = 0; j < hv.rows(); ++j) {
    double* dsr = scratch.right.data() + static_cast<size_t>(j) * gs;
    if (args.dattn_right != nullptr) GroupScoresAttnGrad(hv.row(j), dsr, args.dattn_right);
    std::fill_n(dsr, gs, 0.0);
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
  // The forward's LeakyReLU is max(z, slope·z), a select where the ternary
  // is a branch; the two agree bit for bit only for slopes in [+0, 1].
  PPFR_CHECK(!std::signbit(leaky_slope) && leaky_slope <= 1.0)
      << "GatAttention: leaky_slope must lie in [0, 1], got " << leaky_slope;
  const size_t gs = static_cast<size_t>(groups);

  auto saved = std::make_shared<GatSaved>(static_cast<size_t>(edges->num_edges()) * gs,
                                          static_cast<size_t>(n) * gs,
                                          static_cast<size_t>(hv.rows()) * gs);
  double* const s_left = saved->left.get();
  double* const s_right = saved->right.get();
  la::ActiveBackend().Apply(hv.rows(), RowGrain(hv.cols()), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const double* hr = hv.row(static_cast<int>(r));
      GroupScores(hr, ar, s_right + static_cast<size_t>(r) * gs);
      if (r < n) GroupScores(hr, al, s_left + static_cast<size_t>(r) * gs);
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
  const GatForwardArgs args{edges.get(), &hv,         s_left, s_right, saved->alpha.get(),
                            &out,        leaky_slope};
  WithGatShape(groups, al.rows(), [&](const auto& shape) {
    la::ActiveBackend().Apply(num_chunks, 1, [&](int64_t c0, int64_t c1) {
      GatForwardRows(shape, args, bounds[static_cast<size_t>(c0)],
                     bounds[static_cast<size_t>(c1)]);
    });
  });

  const bool needs = AnyNeedsGrad({h, attn_left, attn_right});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {h, attn_left, attn_right},
      [h, attn_left, attn_right, edges, groups, leaky_slope, saved, out_id](
          Tape& tp, const la::Matrix& g) {
        const la::Matrix& hv = tp.Value(h);
        const la::Matrix& al = tp.Value(attn_left);
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
          UnionOfRows(edges->row_ptr, edges->col_idx, hv.rows(), *supp, &sources);
          if (tp.NeedsGrad(h)) {
            scratch.touched.clear();
            std::set_union(sources.begin(), sources.end(), supp->begin(), supp->end(),
                           std::back_inserter(scratch.touched));
            dh = &tp.GradRefPartial(h, scratch.touched);
          }
        } else if (tp.NeedsGrad(h)) {
          dh = &tp.GradRef(h);
        }
        scratch.sums.resize(gs);
        if (scratch.left.size() < static_cast<size_t>(edges->num_nodes) * gs) {
          scratch.left.resize(static_cast<size_t>(edges->num_nodes) * gs);
        }
        if (scratch.right.size() < static_cast<size_t>(hv.rows()) * gs) {
          scratch.right.resize(static_cast<size_t>(hv.rows()) * gs, 0.0);
        }
        const GatBackwardArgs args{
            edges.get(), &hv, &al, &tp.Value(attn_right), &g, saved.get(), leaky_slope, supp, dh,
            tp.NeedsGrad(attn_left) ? &tp.GradRef(attn_left) : nullptr,
            tp.NeedsGrad(attn_right) ? &tp.GradRef(attn_right) : nullptr, &scratch};
        WithGatShape(groups, al.rows(), [&](const auto& shape) { GatBackward(shape, args); });
      });
}

}  // namespace ppfr::ag
