#include "nn/models.h"

#include <algorithm>

namespace ppfr::nn {
namespace {
constexpr int kGcnHidden = 16;
constexpr int kGatHidden = 8;
constexpr int kGatHeads = 4;
constexpr int kSageHidden = 16;

// CHECKs that `block` is a 2-hop block carrying the operators `kind` reads:
// sampled blocks carry only SAGE's mean aggregator.
void CheckBlockFor(ModelKind kind, const SampledBlock& block) {
  PPFR_CHECK_EQ(block.hops.size(), size_t{2})
      << "two-layer " << ModelKindName(kind) << " needs a 2-hop block";
  for (const SampledHop& hop : block.hops) {
    const bool has_operator = kind == ModelKind::kGcn   ? hop.gcn != nullptr
                              : kind == ModelKind::kGat ? hop.edges != nullptr
                                                        : hop.agg != nullptr;
    PPFR_CHECK(has_operator) << ModelKindName(kind)
                             << " has no sampled mini-batch forward path; its block "
                                "forward needs an exact block (GraphContext::ExactBlock)";
  }
}

// Indices [0, n): the leading rows of a prefix-ordered frontier.
std::vector<int> Prefix(int n) {
  std::vector<int> rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  return rows;
}

}  // namespace

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcn:
      return "GCN";
    case ModelKind::kGat:
      return "GAT";
    case ModelKind::kGraphSage:
      return "GraphSage";
  }
  return "?";
}

la::Matrix GnnModel::Logits(const GraphContext& ctx) {
  ag::Tape tape;
  ag::Var out = Forward(tape, ctx, ForwardOptions{});
  return out.value();
}

la::Matrix GnnModel::PredictProbs(const GraphContext& ctx) {
  return la::SoftmaxRows(Logits(ctx));
}

// ---- GCN ----

Gcn::Gcn(int in_dim, int hidden_dim, int num_classes, uint64_t seed)
    : conv1_(in_dim, hidden_dim, seed), conv2_(hidden_dim, num_classes, seed + 101) {}

ag::Var Gcn::Forward(ag::Tape& tape, const GraphContext& ctx,
                     const ForwardOptions& /*options*/) {
  ag::Var h = ag::Relu(conv1_.ForwardFeatures(tape, ctx.features, ctx.gcn_adj));
  return conv2_.Forward(tape, h, ctx.gcn_adj);
}

BlockInputs Gcn::PrepareBlock(const SampledBlock& block, la::Matrix x) const {
  CheckBlockFor(kind(), block);
  BlockInputs inputs;
  inputs.agg = block.hops[0].gcn->mat.Multiply(x);
  return inputs;
}

// (Â·X)·W1 where the full-graph forward computes Â·(X·W1): the aggregation
// is reassociated so the parameter-independent half runs once per block.
ag::Var Gcn::ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                          const BlockInputs& inputs) {
  ag::Var h = ag::Relu(conv1_.Forward(tape, tape.StaticConstant(inputs.agg), nullptr));
  return conv2_.Forward(tape, h, block.hops[1].gcn);
}

std::vector<ag::Parameter*> Gcn::Params() {
  std::vector<ag::Parameter*> params = conv1_.Params();
  for (ag::Parameter* p : conv2_.Params()) params.push_back(p);
  return params;
}

std::unique_ptr<GnnModel> Gcn::Clone() const { return std::make_unique<Gcn>(*this); }

// ---- GAT ----

Gat::Gat(int in_dim, int hidden_dim, int num_classes, int heads, uint64_t seed)
    : conv1_(in_dim, hidden_dim, heads, seed),
      conv2_(hidden_dim * heads, num_classes, 1, seed + 101) {}

ag::Var Gat::Forward(ag::Tape& tape, const GraphContext& ctx,
                     const ForwardOptions& /*options*/) {
  ag::Var h = ag::Elu(conv1_.ForwardFeatures(tape, ctx.features, ctx.edges_with_self));
  return conv2_.Forward(tape, h, ctx.edges_with_self);
}

BlockInputs Gat::PrepareBlock(const SampledBlock& block, la::Matrix x) const {
  CheckBlockFor(kind(), block);
  PPFR_CHECK_EQ(x.rows(), block.num_inputs());
  BlockInputs inputs;
  inputs.x = ag::MakeSparseOperand(la::CsrMatrix::FromDense(x), /*symmetric=*/false);
  return inputs;
}

ag::Var Gat::ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                          const BlockInputs& inputs) {
  ag::Var h = ag::Elu(conv1_.ForwardFeatures(tape, inputs.x, block.hops[0].edges));
  return conv2_.Forward(tape, h, block.hops[1].edges);
}

std::vector<ag::Parameter*> Gat::Params() {
  std::vector<ag::Parameter*> params = conv1_.Params();
  for (ag::Parameter* p : conv2_.Params()) params.push_back(p);
  return params;
}

std::unique_ptr<GnnModel> Gat::Clone() const { return std::make_unique<Gat>(*this); }

// ---- GraphSAGE ----

GraphSage::GraphSage(int in_dim, int hidden_dim, int num_classes, uint64_t seed)
    : conv1_(in_dim, hidden_dim, seed), conv2_(hidden_dim, num_classes, seed + 101) {}

ag::Var GraphSage::Forward(ag::Tape& tape, const GraphContext& ctx,
                           const ForwardOptions& options) {
  const auto& agg =
      options.sage_aggregator != nullptr ? options.sage_aggregator : ctx.mean_adj;
  ag::Var h = ag::Relu(conv1_.ForwardFeatures(tape, ctx.features, agg));
  return conv2_.Forward(tape, h, ag::SpMM(agg, h));
}

BlockInputs GraphSage::PrepareBlock(const SampledBlock& block, la::Matrix x) const {
  CheckBlockFor(kind(), block);
  PPFR_CHECK_EQ(x.rows(), block.num_inputs());
  const int num_self = block.hops[0].num_out();
  BlockInputs inputs;
  inputs.self = la::Matrix(num_self, x.cols());
  std::copy(x.data(), x.data() + inputs.self.size(), inputs.self.data());
  inputs.agg = block.hops[0].agg->mat.Multiply(x);
  return inputs;
}

ag::Var GraphSage::ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                                const BlockInputs& inputs) {
  ag::Var h = ag::Relu(conv1_.Forward(tape, tape.StaticConstant(inputs.self),
                                      tape.StaticConstant(inputs.agg)));
  const SampledHop& hop = block.hops[1];
  return conv2_.Forward(tape, ag::GatherRows(h, Prefix(hop.num_out())),
                        ag::SpMM(hop.agg, h));
}

std::vector<ag::Parameter*> GraphSage::Params() {
  std::vector<ag::Parameter*> params = conv1_.Params();
  for (ag::Parameter* p : conv2_.Params()) params.push_back(p);
  return params;
}

std::unique_ptr<GnnModel> GraphSage::Clone() const {
  return std::make_unique<GraphSage>(*this);
}

std::unique_ptr<GnnModel> MakeModel(ModelKind kind, int in_dim, int num_classes,
                                    uint64_t seed) {
  switch (kind) {
    case ModelKind::kGcn:
      return std::make_unique<Gcn>(in_dim, kGcnHidden, num_classes, seed);
    case ModelKind::kGat:
      return std::make_unique<Gat>(in_dim, kGatHidden, num_classes, kGatHeads, seed);
    case ModelKind::kGraphSage:
      return std::make_unique<GraphSage>(in_dim, kSageHidden, num_classes, seed);
  }
  PPFR_CHECK(false) << "unknown model kind";
  return nullptr;
}

}  // namespace ppfr::nn
