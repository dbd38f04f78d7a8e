#include "nn/gat_conv.h"

#include <algorithm>

#include "nn/init.h"

namespace ppfr::nn {
namespace {
constexpr double kLeakySlope = 0.2;

// Copies `block` into `dst` at column offset `col0`.
void SetColumns(la::Matrix* dst, int col0, const la::Matrix& block) {
  for (int r = 0; r < block.rows(); ++r) {
    std::copy(block.row(r), block.row(r) + block.cols(), dst->row(r) + col0);
  }
}

}  // namespace

GatConv::GatConv(int in_dim, int out_dim, int heads, uint64_t seed)
    : heads_(heads),
      weight_("gat.weight", la::Matrix(in_dim, heads * out_dim)),
      attn_left_("gat.attn_l", la::Matrix(out_dim, heads)),
      attn_right_("gat.attn_r", la::Matrix(out_dim, heads)) {
  PPFR_CHECK_GE(heads, 1);
  // Each head's (W_h, a_l, a_r) is drawn in turn, the order of a stack of
  // single-head layers, and placed in the head's columns.
  Rng rng(seed);
  for (int h = 0; h < heads; ++h) {
    SetColumns(&weight_.value, h * out_dim, GlorotUniform(in_dim, out_dim, &rng));
    SetColumns(&attn_left_.value, h, GlorotUniform(out_dim, 1, &rng));
    SetColumns(&attn_right_.value, h, GlorotUniform(out_dim, 1, &rng));
  }
}

ag::Var GatConv::Forward(ag::Tape& tape, ag::Var x,
                         const std::shared_ptr<const ag::EdgeSet>& edges) {
  return Attend(tape, ag::MatMul(x, tape.Leaf(&weight_)), edges);
}

ag::Var GatConv::ForwardFeatures(ag::Tape& tape,
                                 const std::shared_ptr<const ag::SparseOperand>& features,
                                 const std::shared_ptr<const ag::EdgeSet>& edges) {
  return Attend(tape, ag::SpMM(features, tape.Leaf(&weight_)), edges);
}

ag::Var GatConv::Attend(ag::Tape& tape, ag::Var projected,
                        const std::shared_ptr<const ag::EdgeSet>& edges) {
  return ag::GatAttention(projected, tape.Leaf(&attn_left_), tape.Leaf(&attn_right_),
                          edges, heads_, kLeakySlope);
}

std::vector<ag::Parameter*> GatConv::Params() {
  return {&weight_, &attn_left_, &attn_right_};
}

}  // namespace ppfr::nn
