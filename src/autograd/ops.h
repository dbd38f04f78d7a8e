#ifndef PPFR_AUTOGRAD_OPS_H_
#define PPFR_AUTOGRAD_OPS_H_

#include <memory>
#include <mutex>
#include <vector>

#include "autograd/tape.h"
#include "la/csr_matrix.h"

namespace ppfr::ag {

// A sparse matrix prepared for use inside the autograd graph. Backward
// passes multiply by its transpose: the matrix itself for symmetric
// operators (Â, Laplacians), otherwise built by the first backward that
// needs it, so an operand that only ever multiplies constants (a block's
// first hop, a first layer over the features) never pays for one.
struct SparseOperand {
  la::CsrMatrix mat;
  bool symmetric = false;

  // Thread-safe: concurrent first uses build the transpose once.
  const la::CsrMatrix& Transpose() const;

 private:
  mutable std::once_flag transpose_once_;
  mutable la::CsrMatrix mat_t_;
};

std::shared_ptr<const SparseOperand> MakeSparseOperand(la::CsrMatrix m, bool symmetric);

// Destination-grouped edge list used by the fused GAT attention op. Row i
// lists the source nodes j that message into i (usually including i itself).
struct EdgeSet {
  int num_nodes = 0;  // destination rows
  std::vector<int64_t> row_ptr;  // size num_nodes + 1
  std::vector<int> col_idx;      // concatenated neighbour lists

  int64_t num_edges() const { return static_cast<int64_t>(col_idx.size()); }
};

// ---- Linear algebra ----

// Dense product a @ b.
Var MatMul(Var a, Var b);
// Sparse-dense product sp @ x.
Var SpMM(const std::shared_ptr<const SparseOperand>& sp, Var x);

// ---- Lane-blocked ops (fused multi-point tape replay) ----
//
// A lane-wide tensor of base width w stores replay lane l in columns
// [l·w, (l+1)·w). The lane ops below run `lanes` independent copies of the
// narrow op in one pass; per-lane column windows never mix, and each lane's
// forward/backward is bitwise identical to the narrow op applied to that
// lane's windows (the la::Backend::GemmLanes* contract). SpMM, elementwise
// ops, AddRowVec and GatherRows are column-count-invariant per element, and
// GatAttention is group-count-invariant per attention group, so the
// lane-wide graph reuses them UNCHANGED — only ops that contract over
// columns (GEMM) or mix a row's columns (softmax, NLL picks) need lane-aware
// variants.

// Lane-blocked dense product. `a` is lane-shared when a.cols() == b.rows()
// (e.g. the feature matrix under a lane-wide weight; must not need grad for
// lanes > 1 — a shared operand's gradient would sum over lanes, which no
// fused-replay consumer needs), otherwise lane-wide. lanes == 1 is exactly
// MatMul.
Var MatMulLanes(Var a, Var b, int lanes);

// Lane-blocked row-wise log-softmax: an independent stable log-softmax over
// every lane window of each row. lanes == 1 is exactly LogSoftmaxRows.
Var LogSoftmaxRowsLanes(Var logits, int lanes);

// Lane-blocked weighted NLL: the scalar output is the SUM over lanes of the
// narrow WeightedNll loss evaluated on that lane's window. Backward writes
// each lane's picked entries with the same per-entry arithmetic as the
// narrow op under a unit seed, so lane gradients are bitwise identical to
// `lanes` serial replays. lanes == 1 is exactly WeightedNll.
Var WeightedNllLanes(Var logp, const std::vector<int>& rows,
                     const std::vector<int>& labels,
                     const std::vector<double>& weights, double denom, int lanes);

// ---- Elementwise / broadcast ----

Var Add(Var a, Var b);
Var Sub(Var a, Var b);
Var Mul(Var a, Var b);  // Hadamard
Var Div(Var a, Var b);  // elementwise a / b
Var Neg(Var a);
Var Scale(Var a, double s);
Var AddScalar(Var a, double s);
// Adds a 1 x c row vector to every row of an n x c matrix.
Var AddRowVec(Var a, Var row);
// Broadcasts a 1x1 scalar node to an (rows x cols) matrix.
Var ExpandScalar(Var s, int rows, int cols);

// ---- Nonlinearities ----

Var Relu(Var a);
Var LeakyRelu(Var a, double slope);
Var Elu(Var a, double alpha = 1.0);
Var Tanh(Var a);
Var Sigmoid(Var a);
Var Square(Var a);
Var Sqrt(Var a);   // clamped at 1e-12 for gradient stability
Var Abs(Var a);

// ---- Softmax / losses ----

Var LogSoftmaxRows(Var logits);
Var SoftmaxRows(Var logits);

// Weighted negative log-likelihood over a subset of rows:
//   loss = -(1 / denom) * sum_k weights[k] * logp(rows[k], labels[k])
// `logp` must be log-probabilities (e.g. from LogSoftmaxRows).
Var WeightedNll(Var logp, const std::vector<int>& rows, const std::vector<int>& labels,
                const std::vector<double>& weights, double denom);

// ---- Shape ops / reductions ----

Var GatherRows(Var a, const std::vector<int>& indices);
Var SumAll(Var a);   // -> 1x1
Var MeanAll(Var a);  // -> 1x1
Var RowSums(Var a);  // n x c -> n x 1

// ---- Graph-specific fused ops ----

// Quadratic form Tr(Yᵀ L Y) for a fixed symmetric Laplacian L (1x1 output).
// Backward: dL/dY = 2 L Y. This is the InFoRM individual-fairness bias term.
Var LaplacianQuadratic(const std::shared_ptr<const la::CsrMatrix>& laplacian, Var y);

// Fused multi-head GAT attention. `h` is n_src x (groups·d), one d-column
// block per attention group; attn_left and attn_right are d x groups. For
// every group g and destination i (the leading edges->num_nodes rows of h):
//   s_l(i,g) = h_i[g-block]·attn_left[:,g],  s_r(j,g) = h_j[g-block]·attn_right[:,g]
//   e_ij = LeakyReLU(s_l(i,g) + s_r(j,g), slope)
//   alpha_ij = softmax_j(e_ij)  over j in N(i)
//   out_i[g-block] = sum_j alpha_ij * h_j[g-block]
// The output is edges->num_nodes x (groups·d); a destination without edges
// gets a zero row. No group's arithmetic depends on `groups`, so a lane-major
// input of `lanes` replays with group l·heads + h = lane l's head h is
// bitwise `lanes` narrow calls (the lane-blocked contract above).
Var GatAttention(Var h, Var attn_left, Var attn_right,
                 const std::shared_ptr<const EdgeSet>& edges, int groups,
                 double leaky_slope);

}  // namespace ppfr::ag

#endif  // PPFR_AUTOGRAD_OPS_H_
