#include "nn/sage_conv.h"

#include "nn/init.h"

namespace ppfr::nn {

namespace {
la::Matrix Glorot(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return GlorotUniform(rows, cols, &rng);
}
}  // namespace

SageConv::SageConv(int in_dim, int out_dim, uint64_t seed)
    : weight_self_("sage.weight_self", Glorot(in_dim, out_dim, seed)),
      weight_neigh_("sage.weight_neigh", Glorot(in_dim, out_dim, seed + 1)),
      bias_("sage.bias", Zeros(1, out_dim)) {}

ag::Var SageConv::Forward(ag::Tape& tape, ag::Var self, ag::Var neigh_mean) {
  PPFR_CHECK_EQ(self.rows(), neigh_mean.rows());
  ag::Var self_term = ag::MatMul(self, tape.Leaf(&weight_self_));
  ag::Var neigh_term = ag::MatMul(neigh_mean, tape.Leaf(&weight_neigh_));
  return ag::AddRowVec(ag::Add(self_term, neigh_term), tape.Leaf(&bias_));
}

ag::Var SageConv::ForwardFeatures(
    ag::Tape& tape, const std::shared_ptr<const ag::SparseOperand>& features,
    const std::shared_ptr<const ag::SparseOperand>& agg) {
  ag::Var self_term = ag::SpMM(features, tape.Leaf(&weight_self_));
  ag::Var neigh_term = ag::SpMM(agg, ag::SpMM(features, tape.Leaf(&weight_neigh_)));
  return ag::AddRowVec(ag::Add(self_term, neigh_term), tape.Leaf(&bias_));
}

std::vector<ag::Parameter*> SageConv::Params() {
  return {&weight_self_, &weight_neigh_, &bias_};
}

}  // namespace ppfr::nn
