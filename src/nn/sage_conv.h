#ifndef PPFR_NN_SAGE_CONV_H_
#define PPFR_NN_SAGE_CONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// GraphSAGE mean-aggregator layer (Hamilton et al.):
//   out = X W_self + mean_{j in N(i)} X_j W_neigh + b
// During training the neighbour mean uses a per-epoch *sampled* aggregator
// (the sampling is what dilutes edge-DP noise, §VII-B of the paper).
class SageConv {
 public:
  SageConv(int in_dim, int out_dim, uint64_t seed);

  SageConv(const SageConv&) = default;
  SageConv& operator=(const SageConv&) = default;

  // self·W_self + neigh_mean·W_neigh + b over dense activations: `self`
  // holds the output rows' own activations and `neigh_mean` their neighbour
  // mean (agg·x on the full graph; on a block hop the leading rows of the
  // input, by the block's prefix property, and the hop's mean of them).
  ag::Var Forward(ag::Tape& tape, ag::Var self, ag::Var neigh_mean);

  // The full-graph first layer over sparse raw features, with the neighbour
  // term reassociated to agg·(X·W_neigh) so both products with X run as SpMM:
  //   X·W_self + agg·(X·W_neigh) + b.
  ag::Var ForwardFeatures(ag::Tape& tape,
                          const std::shared_ptr<const ag::SparseOperand>& features,
                          const std::shared_ptr<const ag::SparseOperand>& agg);

  std::vector<ag::Parameter*> Params();

 private:
  ag::Parameter weight_self_;
  ag::Parameter weight_neigh_;
  ag::Parameter bias_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_SAGE_CONV_H_
