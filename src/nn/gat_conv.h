#ifndef PPFR_NN_GAT_CONV_H_
#define PPFR_NN_GAT_CONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// Multi-head graph attention layer (Velickovic et al.):
//   per head h: H_h = X W_h,  e_ij = LeakyReLU(a_lᵀ H_h[i] + a_rᵀ H_h[j])
//   alpha = softmax_j(e_ij) over j ∈ N(i) ∪ {i},  out_i = Σ_j alpha_ij H_h[j]
// with the heads concatenated (heads·out_dim columns; the output layer has
// one head). The heads share one projection, W = [W_1 | … | W_heads], and
// one attention op (ag::GatAttention) with head h's a_l, a_r in column h of
// attn_left / attn_right.
class GatConv {
 public:
  GatConv(int in_dim, int out_dim, int heads, uint64_t seed);

  GatConv(const GatConv&) = default;
  GatConv& operator=(const GatConv&) = default;

  // Attention over `edges` (destination rows, source columns over x's rows):
  // the context's edge set on the full graph, or a block hop's
  // SampledHop::edges, whose destinations are the leading rows of x.
  ag::Var Forward(ag::Tape& tape, ag::Var x,
                  const std::shared_ptr<const ag::EdgeSet>& edges);

  // The first layer over sparse raw features: the projection X·W is an SpMM.
  ag::Var ForwardFeatures(ag::Tape& tape,
                          const std::shared_ptr<const ag::SparseOperand>& features,
                          const std::shared_ptr<const ag::EdgeSet>& edges);

  std::vector<ag::Parameter*> Params();

 private:
  // Scores and aggregates the projection H = X·W over `edges`.
  ag::Var Attend(ag::Tape& tape, ag::Var projected,
                 const std::shared_ptr<const ag::EdgeSet>& edges);

  int heads_;
  ag::Parameter weight_;      // in_dim x heads·out_dim, head h in [h·out_dim, (h+1)·out_dim)
  ag::Parameter attn_left_;   // out_dim x heads
  ag::Parameter attn_right_;  // out_dim x heads
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GAT_CONV_H_
