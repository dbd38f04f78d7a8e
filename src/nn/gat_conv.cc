#include "nn/gat_conv.h"

#include <functional>

#include "nn/init.h"

namespace ppfr::nn {
namespace {
constexpr double kLeakySlope = 0.2;
}  // namespace

GatConv::GatConv(int in_dim, int out_dim, int heads, uint64_t seed)
    : out_dim_(out_dim), heads_(heads) {
  PPFR_CHECK_GE(heads, 1);
  Rng owned_rng(seed);
  Rng* rng = &owned_rng;
  weights_.reserve(heads);
  attn_left_.reserve(heads);
  attn_right_.reserve(heads);
  for (int h = 0; h < heads; ++h) {
    weights_.emplace_back("gat.weight", GlorotUniform(in_dim, out_dim, rng));
    attn_left_.emplace_back("gat.attn_l", GlorotUniform(out_dim, 1, rng));
    attn_right_.emplace_back("gat.attn_r", GlorotUniform(out_dim, 1, rng));
  }
}

ag::Var GatConv::Forward(ag::Tape& tape, ag::Var x,
                         const std::shared_ptr<const ag::EdgeSet>& edges, int lanes) {
  return Attend(
      tape, [&](ag::Var w) { return ag::MatMulLanes(x, w, lanes); }, edges, lanes);
}

ag::Var GatConv::ForwardFeatures(ag::Tape& tape,
                                 const std::shared_ptr<const ag::SparseOperand>& features,
                                 const std::shared_ptr<const ag::EdgeSet>& edges,
                                 int lanes) {
  return Attend(tape, [&](ag::Var w) { return ag::SpMM(features, w); }, edges, lanes);
}

ag::Var GatConv::Attend(ag::Tape& tape, const std::function<ag::Var(ag::Var)>& project,
                        const std::shared_ptr<const ag::EdgeSet>& edges, int lanes) {
  // Per-head projections H_h and attention scores (lane-wide when lanes > 1),
  // then one fused softmax-aggregate over all heads per lane. On a block the
  // destination scores are the leading (destination) rows of the source ones.
  std::vector<ag::Var> head_features;
  head_features.reserve(heads_);
  for (int h = 0; h < heads_; ++h) {
    head_features.push_back(project(tape.Leaf(&weights_[h])));  // n x out_dim·L
  }
  const int num_dst = edges->num_nodes;
  std::vector<int> dst_rows;
  if (num_dst < head_features[0].rows()) {
    dst_rows.resize(static_cast<size_t>(num_dst));
    for (int i = 0; i < num_dst; ++i) dst_rows[static_cast<size_t>(i)] = i;
  }
  std::vector<ag::Var> left_scores;
  std::vector<ag::Var> right_scores;
  for (int h = 0; h < heads_; ++h) {
    const ag::Var hh = head_features[h];
    ag::Var left = ag::MatMulLanes(hh, tape.Leaf(&attn_left_[h]), lanes);  // n x L
    left_scores.push_back(dst_rows.empty() ? left : ag::GatherRows(left, dst_rows));
    right_scores.push_back(
        ag::MatMulLanes(hh, tape.Leaf(&attn_right_[h]), lanes));  // n x L
  }

  // Concat heads + softmax-aggregate for one lane's narrow feature/score
  // windows.
  auto aggregate_heads = [&](const std::vector<ag::Var>& hf,
                             const std::vector<ag::Var>& ls,
                             const std::vector<ag::Var>& rs) {
    ag::Var h_all = heads_ == 1 ? hf[0] : ag::ConcatCols(hf);
    ag::Var sl = heads_ == 1 ? ls[0] : ag::ConcatCols(ls);
    ag::Var sr = heads_ == 1 ? rs[0] : ag::ConcatCols(rs);
    return ag::EdgeSoftmaxAggregate(h_all, sl, sr, edges, heads_, kLeakySlope);
  };

  if (lanes == 1) return aggregate_heads(head_features, left_scores, right_scores);

  // The edge softmax normalises over a destination's neighbours per head —
  // its per-row arithmetic depends on every head column, so unlike the GEMMs
  // it cannot run lane-wide. Slice each lane's windows out of the wide
  // projections, aggregate per lane with the narrow op (bitwise the serial
  // path: a slice is a copy), and concatenate lane outputs back into the
  // lane-major wide layout.
  std::vector<ag::Var> lane_outputs;
  lane_outputs.reserve(lanes);
  for (int l = 0; l < lanes; ++l) {
    std::vector<ag::Var> hf;
    std::vector<ag::Var> ls;
    std::vector<ag::Var> rs;
    hf.reserve(heads_);
    for (int h = 0; h < heads_; ++h) {
      hf.push_back(ag::SliceCols(head_features[h], l * out_dim_, out_dim_));
      ls.push_back(ag::SliceCols(left_scores[h], l, 1));
      rs.push_back(ag::SliceCols(right_scores[h], l, 1));
    }
    lane_outputs.push_back(aggregate_heads(hf, ls, rs));
  }
  return ag::ConcatCols(lane_outputs);
}

std::vector<ag::Parameter*> GatConv::Params() {
  std::vector<ag::Parameter*> params;
  for (int h = 0; h < heads_; ++h) {
    params.push_back(&weights_[h]);
    params.push_back(&attn_left_[h]);
    params.push_back(&attn_right_[h]);
  }
  return params;
}

}  // namespace ppfr::nn
