#ifndef PPFR_NN_SAGE_CONV_H_
#define PPFR_NN_SAGE_CONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/graph_context.h"

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

  // `aggregator` overrides the context's full-graph neighbour mean when
  // non-null (used for sampled training passes). `lanes` > 1 runs the
  // fused-replay lane-wide graph (see GcnConv::Forward).
  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx, ag::Var x,
                  const std::shared_ptr<const ag::SparseOperand>& aggregator,
                  int lanes = 1);

  // Block variant over the output frontier of a hop: `self` holds its rows
  // of the input activations (the leading rows, by the block's prefix
  // property) and `neigh_mean` the hop's neighbour mean of them.
  ag::Var ForwardBlock(ag::Tape& tape, ag::Var self, ag::Var neigh_mean, int lanes);

  std::vector<ag::Parameter*> Params();

 private:
  ag::Parameter weight_self_;
  ag::Parameter weight_neigh_;
  ag::Parameter bias_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_SAGE_CONV_H_
