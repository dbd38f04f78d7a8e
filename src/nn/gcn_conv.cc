#include "nn/gcn_conv.h"

#include "nn/init.h"

namespace ppfr::nn {

GcnConv::GcnConv(int in_dim, int out_dim, uint64_t seed)
    : weight_("gcn.weight",
              [&] {
                Rng rng(seed);
                return GlorotUniform(in_dim, out_dim, &rng);
              }()),
      bias_("gcn.bias", Zeros(1, out_dim)) {}

ag::Var GcnConv::Forward(ag::Tape& tape, const GraphContext& ctx, ag::Var x,
                         int lanes) {
  ag::Var w = tape.Leaf(&weight_);
  ag::Var b = tape.Leaf(&bias_);
  // MatMulLanes is the only lane-aware op the layer needs: SpMM and the bias
  // broadcast are column-count-invariant per element, so the lane-wide
  // activations flow through them unchanged (lanes == 1 is exactly MatMul).
  ag::Var xw = ag::MatMulLanes(x, w, lanes);
  ag::Var propagated = ag::SpMM(ctx.gcn_adj, xw);
  return ag::AddRowVec(propagated, b);
}

ag::Var GcnConv::ForwardBlock(ag::Tape& tape, ag::Var x,
                              const std::shared_ptr<const ag::SparseOperand>& op,
                              int lanes) {
  ag::Var w = tape.Leaf(&weight_);
  ag::Var b = tape.Leaf(&bias_);
  ag::Var xw = ag::MatMulLanes(x, w, lanes);
  return ag::AddRowVec(op != nullptr ? ag::SpMM(op, xw) : xw, b);
}

std::vector<ag::Parameter*> GcnConv::Params() { return {&weight_, &bias_}; }

}  // namespace ppfr::nn
