#ifndef PPFR_NN_GAT_CONV_H_
#define PPFR_NN_GAT_CONV_H_

#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// Multi-head graph attention layer (Velickovic et al.):
//   per head h: H_h = X W_h,  e_ij = LeakyReLU(a_lᵀ H_h[i] + a_rᵀ H_h[j])
//   alpha = softmax_j(e_ij) over j ∈ N(i) ∪ {i},  out_i = Σ_j alpha_ij H_h[j]
// with the heads concatenated (heads·out_dim columns; the output layer has
// one head).
class GatConv {
 public:
  GatConv(int in_dim, int out_dim, int heads, uint64_t seed);

  GatConv(const GatConv&) = default;
  GatConv& operator=(const GatConv&) = default;

  // Attention over `edges` (destination rows, source columns over x's rows):
  // the context's edge set on the full graph, or a block hop's
  // SampledHop::edges, whose destinations are the leading rows of x.
  // `lanes` > 1 runs the fused-replay lane-wide graph (see GcnConv::Forward):
  // the per-head projections and attention-score GEMMs run lane-wide, then
  // the edge softmax-aggregate — whose per-row softmax would mix lanes — runs
  // per lane on sliced windows, and the lane outputs concatenate back into
  // the lane-major wide layout.
  ag::Var Forward(ag::Tape& tape, ag::Var x,
                  const std::shared_ptr<const ag::EdgeSet>& edges, int lanes = 1);

  // The first layer over sparse raw features: each head's X·W_h is an SpMM,
  // which computes every output column on its own, so it serves lane-wide
  // weights as is.
  ag::Var ForwardFeatures(ag::Tape& tape,
                          const std::shared_ptr<const ag::SparseOperand>& features,
                          const std::shared_ptr<const ag::EdgeSet>& edges, int lanes = 1);

  std::vector<ag::Parameter*> Params();

 private:
  // Projects the input per head with `project` (x ↦ x·W_h for a head's
  // weight leaf), then scores and aggregates the projections over `edges`.
  ag::Var Attend(ag::Tape& tape, const std::function<ag::Var(ag::Var)>& project,
                 const std::shared_ptr<const ag::EdgeSet>& edges, int lanes);

  int out_dim_;
  int heads_;
  std::vector<ag::Parameter> weights_;     // per head: in_dim x out_dim
  std::vector<ag::Parameter> attn_left_;   // per head: out_dim x 1
  std::vector<ag::Parameter> attn_right_;  // per head: out_dim x 1
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GAT_CONV_H_
