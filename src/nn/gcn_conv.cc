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

ag::Var GcnConv::Forward(ag::Tape& tape, ag::Var x,
                         const std::shared_ptr<const ag::SparseOperand>& adj) {
  return Aggregate(tape, ag::MatMul(x, tape.Leaf(&weight_)), adj);
}

ag::Var GcnConv::ForwardFeatures(ag::Tape& tape,
                                 const std::shared_ptr<const ag::SparseOperand>& features,
                                 const std::shared_ptr<const ag::SparseOperand>& adj) {
  return Aggregate(tape, ag::SpMM(features, tape.Leaf(&weight_)), adj);
}

ag::Var GcnConv::Aggregate(ag::Tape& tape, ag::Var xw,
                           const std::shared_ptr<const ag::SparseOperand>& adj) {
  return ag::AddRowVec(adj != nullptr ? ag::SpMM(adj, xw) : xw, tape.Leaf(&bias_));
}

std::vector<ag::Parameter*> GcnConv::Params() { return {&weight_, &bias_}; }

}  // namespace ppfr::nn
