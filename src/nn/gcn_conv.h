#ifndef PPFR_NN_GCN_CONV_H_
#define PPFR_NN_GCN_CONV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// Graph convolution layer (Kipf & Welling): out = Â (X W) + b.
class GcnConv {
 public:
  GcnConv(int in_dim, int out_dim, uint64_t seed);

  // Copyable so models can be cloned for before/after comparisons.
  GcnConv(const GcnConv&) = default;
  GcnConv& operator=(const GcnConv&) = default;

  // out = adj·(x·W) + b over dense activations `x`. `adj` holds the rows of
  // Â to aggregate (the full operator, or a block hop's SampledHop::gcn); a
  // null `adj` means `x` is already aggregated (Â·X, a block's precomputed
  // first layer), so the layer is x·W + b.
  ag::Var Forward(ag::Tape& tape, ag::Var x,
                  const std::shared_ptr<const ag::SparseOperand>& adj);

  // The first layer over sparse raw features: adj·(X·W) + b, X·W an SpMM.
  ag::Var ForwardFeatures(ag::Tape& tape,
                          const std::shared_ptr<const ag::SparseOperand>& features,
                          const std::shared_ptr<const ag::SparseOperand>& adj);

  std::vector<ag::Parameter*> Params();

 private:
  ag::Var Aggregate(ag::Tape& tape, ag::Var xw,
                    const std::shared_ptr<const ag::SparseOperand>& adj);

  ag::Parameter weight_;
  ag::Parameter bias_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GCN_CONV_H_
