#ifndef PPFR_NN_GAT_CONV_H_
#define PPFR_NN_GAT_CONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/graph_context.h"

namespace ppfr::nn {

// Multi-head graph attention layer (Velickovic et al.):
//   per head h: H_h = X W_h,  e_ij = LeakyReLU(a_lᵀ H_h[i] + a_rᵀ H_h[j])
//   alpha = softmax_j(e_ij) over j ∈ N(i) ∪ {i},  out_i = Σ_j alpha_ij H_h[j]
// Heads are concatenated when `concat` is true (hidden layers) and averaged
// otherwise (output layer).
class GatConv {
 public:
  GatConv(int in_dim, int out_dim, int heads, bool concat, uint64_t seed);

  GatConv(const GatConv&) = default;
  GatConv& operator=(const GatConv&) = default;

  // `lanes` > 1 runs the fused-replay lane-wide graph (see GcnConv::Forward):
  // the per-head projections and attention-score GEMMs run lane-wide, then
  // the edge softmax-aggregate — whose per-row softmax would mix lanes — runs
  // per lane on sliced windows, and the lane outputs concatenate back into
  // the lane-major wide layout.
  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx, ag::Var x, int lanes = 1);

  // Attention over `edges` (destination rows, source columns over x's rows):
  // the full-graph forward with the context's edge set, or a block hop's
  // SampledHop::edges, whose destinations are the leading rows of x.
  ag::Var ForwardBlock(ag::Tape& tape, ag::Var x,
                       const std::shared_ptr<const ag::EdgeSet>& edges, int lanes);

  std::vector<ag::Parameter*> Params();

  int output_dim() const { return concat_ ? out_dim_ * heads_ : out_dim_; }

 private:
  int out_dim_;
  int heads_;
  bool concat_;
  std::vector<ag::Parameter> weights_;     // per head: in_dim x out_dim
  std::vector<ag::Parameter> attn_left_;   // per head: out_dim x 1
  std::vector<ag::Parameter> attn_right_;  // per head: out_dim x 1
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GAT_CONV_H_
