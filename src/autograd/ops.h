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
// gets a zero row. Groups never mix: each group's output block depends only
// on its own h block and attention columns, and no group's arithmetic
// depends on `groups`.
Var GatAttention(Var h, Var attn_left, Var attn_right,
                 const std::shared_ptr<const EdgeSet>& edges, int groups,
                 double leaky_slope);

}  // namespace ppfr::ag

#endif  // PPFR_AUTOGRAD_OPS_H_
