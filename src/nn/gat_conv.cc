#include "nn/gat_conv.h"

#include "nn/init.h"

namespace ppfr::nn {
namespace {
constexpr double kLeakySlope = 0.2;
}  // namespace

GatConv::GatConv(int in_dim, int out_dim, int heads, bool concat, uint64_t seed)
    : out_dim_(out_dim), heads_(heads), concat_(concat) {
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

ag::Var GatConv::Forward(ag::Tape& tape, const GraphContext& ctx, ag::Var x,
                         int lanes) {
  return ForwardBlock(tape, x, ctx.edges_with_self, lanes);
}

ag::Var GatConv::ForwardBlock(ag::Tape& tape, ag::Var x,
                              const std::shared_ptr<const ag::EdgeSet>& edges,
                              int lanes) {
  // Per-head projections H_h and attention scores (lane-wide when lanes > 1),
  // then one fused softmax-aggregate over all heads per lane. On a block the
  // destination scores are the leading (destination) rows of the source ones.
  const int num_dst = edges->num_nodes;
  std::vector<int> dst_rows;
  if (num_dst < x.rows()) {
    dst_rows.resize(static_cast<size_t>(num_dst));
    for (int i = 0; i < num_dst; ++i) dst_rows[static_cast<size_t>(i)] = i;
  }
  std::vector<ag::Var> head_features;
  std::vector<ag::Var> left_scores;
  std::vector<ag::Var> right_scores;
  head_features.reserve(heads_);
  for (int h = 0; h < heads_; ++h) {
    ag::Var w = tape.Leaf(&weights_[h]);
    ag::Var hh = ag::MatMulLanes(x, w, lanes);  // n x out_dim·L
    head_features.push_back(hh);
    ag::Var left = ag::MatMulLanes(hh, tape.Leaf(&attn_left_[h]), lanes);  // n x L
    left_scores.push_back(dst_rows.empty() ? left : ag::GatherRows(left, dst_rows));
    right_scores.push_back(
        ag::MatMulLanes(hh, tape.Leaf(&attn_right_[h]), lanes));  // n x L
  }

  // Concat heads + softmax-aggregate + (optionally) average heads, for one
  // lane's narrow feature/score windows.
  auto aggregate_heads = [&](std::vector<ag::Var> hf, std::vector<ag::Var> ls,
                             std::vector<ag::Var> rs) {
    ag::Var h_all = heads_ == 1 ? hf[0] : ag::ConcatCols(hf);
    ag::Var sl = heads_ == 1 ? ls[0] : ag::ConcatCols(ls);
    ag::Var sr = heads_ == 1 ? rs[0] : ag::ConcatCols(rs);
    ag::Var out = ag::EdgeSoftmaxAggregate(h_all, sl, sr, edges, heads_, kLeakySlope);
    if (concat_ || heads_ == 1) return out;

    // Average heads: out is n x (heads*out_dim); sum the head blocks.
    ag::Var acc{};
    for (int h = 0; h < heads_; ++h) {
      // Slice head block h via a constant selector matrix (heads*out x out).
      la::Matrix selector(heads_ * out_dim_, out_dim_);
      for (int c = 0; c < out_dim_; ++c) selector(h * out_dim_ + c, c) = 1.0;
      ag::Var block = ag::MatMul(out, tape.Constant(std::move(selector)));
      acc = h == 0 ? block : ag::Add(acc, block);
    }
    return ag::Scale(acc, 1.0 / heads_);
  };

  if (lanes == 1) {
    return aggregate_heads(std::move(head_features), std::move(left_scores),
                           std::move(right_scores));
  }

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
    lane_outputs.push_back(
        aggregate_heads(std::move(hf), std::move(ls), std::move(rs)));
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
