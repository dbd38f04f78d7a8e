#ifndef PPFR_NN_GCN_CONV_H_
#define PPFR_NN_GCN_CONV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/graph_context.h"

namespace ppfr::nn {

// Graph convolution layer (Kipf & Welling): out = Â (X W) + b.
class GcnConv {
 public:
  GcnConv(int in_dim, int out_dim, uint64_t seed);

  // Copyable so models can be cloned for before/after comparisons.
  GcnConv(const GcnConv&) = default;
  GcnConv& operator=(const GcnConv&) = default;

  // `lanes` > 1 runs the fused-replay lane-wide graph: weight/bias must be
  // column-widened (nn::WidenModelParams) and `x` is lane-shared (layer 1
  // features) or lane-wide (a previous lane-wide layer's output). lanes == 1
  // is the ordinary narrow layer.
  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx, ag::Var x, int lanes = 1);

  // Block variant: `op` holds the output rows of Â over the input frontier
  // (SampledHop::gcn); a null `op` means `x` is already aggregated (Â·X, the
  // block's precomputed first layer), so the layer is x·W + b.
  ag::Var ForwardBlock(ag::Tape& tape, ag::Var x,
                       const std::shared_ptr<const ag::SparseOperand>& op, int lanes);

  std::vector<ag::Parameter*> Params();

 private:
  ag::Parameter weight_;
  ag::Parameter bias_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GCN_CONV_H_
