#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "data/scale_gen.h"
#include "data/split.h"
#include "fairness/bias_metric.h"
#include "la/backend.h"
#include "nn/adam.h"
#include "nn/graph_context.h"
#include "nn/init.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr::nn {
namespace {

using ::ppfr::testing::ExpectSameCsrBits;
using ::ppfr::testing::ExpectSameMatrixBytes;

struct Fixture {
  data::NodeClassificationData data;
  GraphContext ctx;
  data::Split split;

  explicit Fixture(uint64_t seed = 42) : data(ppfr::testing::SmallSbm(seed)) {
    ctx = GraphContext::Build(data.graph, data.features);
    split = data::MakeSplit(data.graph.num_nodes(), 40, 20, seed);
  }
};

TEST(InitTest, GlorotBoundsAndSpread) {
  Rng rng(1);
  const la::Matrix w = GlorotUniform(50, 30, &rng);
  const double limit = std::sqrt(6.0 / 80.0);
  double max_abs = 0.0, sum = 0.0;
  for (int64_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(w.data()[i]));
    sum += w.data()[i];
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, 0.5 * limit);          // actually spread out
  EXPECT_NEAR(sum / w.size(), 0.0, 0.02);   // centred
}

TEST(GraphContextTest, BuildsAllOperators) {
  Fixture f;
  EXPECT_EQ(f.ctx.num_nodes(), f.data.graph.num_nodes());
  EXPECT_EQ(f.ctx.feature_dim(), f.data.features.cols());
  // The features are kept as exactly their nonzeros, and gathers copy rows
  // back out bit for bit.
  ASSERT_NE(f.ctx.features, nullptr);
  int64_t nonzeros = 0;
  for (int64_t i = 0; i < f.data.features.size(); ++i) {
    nonzeros += f.data.features.data()[i] != 0.0;
  }
  EXPECT_EQ(f.ctx.features->mat.nnz(), nonzeros);
  EXPECT_EQ(la::Sub(f.ctx.features->mat.ToDense(), f.data.features).MaxAbs(), 0.0);
  // A gather slices the CSR's rows: FromDense of the dense rows, a repeated
  // node included.
  const std::vector<int> nodes{7, 0, 7};
  const la::CsrMatrix gathered = f.ctx.GatherFeatures(nodes);
  ASSERT_EQ(gathered.rows(), 3);
  la::Matrix dense_rows(3, f.data.features.cols());
  for (int i = 0; i < 3; ++i) {
    for (int c = 0; c < dense_rows.cols(); ++c) {
      dense_rows(i, c) = f.data.features(nodes[static_cast<size_t>(i)], c);
    }
  }
  ExpectSameCsrBits(gathered, la::CsrMatrix::FromDense(dense_rows));
  EXPECT_EQ(la::Sub(gathered.ToDense(), dense_rows).MaxAbs(), 0.0);
  EXPECT_EQ(f.ctx.GatherFeatures({}).rows(), 0);
  EXPECT_NE(f.ctx.gcn_adj, nullptr);
  EXPECT_NE(f.ctx.mean_adj, nullptr);
  ASSERT_NE(f.ctx.edges_with_self, nullptr);
  // Every node has its self-loop first in the edge set.
  for (int v = 0; v < f.ctx.num_nodes(); ++v) {
    EXPECT_EQ(f.ctx.edges_with_self->col_idx[f.ctx.edges_with_self->row_ptr[v]], v);
    EXPECT_EQ(f.ctx.edges_with_self->row_ptr[v + 1] - f.ctx.edges_with_self->row_ptr[v],
              f.data.graph.Degree(v) + 1);
  }

  // The operators, the edge set and the feature CSR are written rows in
  // parallel. On a graph of several row chunks, 4 backend threads give the
  // bits of 1, and the edge set holds each node's self-loop, then its sorted
  // neighbours.
  data::NodeClassificationData large = ppfr::testing::SmallSbm(42, 6000, 3);
  ppfr::testing::AddFeatureEdgeRows(&large);
  std::optional<GraphContext> serial;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    la::ScopedBackend scoped(la::BackendKind::kParallel, threads);
    GraphContext ctx = GraphContext::Build(large.graph, large.features);
    EXPECT_EQ(la::Sub(ctx.features->mat.ToDense(), large.features).MaxAbs(), 0.0);
    // Rows 0 (empty) and 1 (dense, non-binary) gathered, one of them twice.
    const std::vector<int> picked{1, 0, 1, 7};
    la::Matrix picked_rows(4, large.features.cols());
    for (int i = 0; i < 4; ++i) {
      std::copy(large.features.row(picked[static_cast<size_t>(i)]),
                large.features.row(picked[static_cast<size_t>(i)]) + picked_rows.cols(),
                picked_rows.row(i));
    }
    ExpectSameCsrBits(ctx.GatherFeatures(picked), la::CsrMatrix::FromDense(picked_rows));
    const ag::EdgeSet& edges = *ctx.edges_with_self;
    ASSERT_EQ(edges.num_nodes, large.graph.num_nodes());
    for (int v = 0; v < large.graph.num_nodes(); ++v) {
      std::vector<int> want{v};
      for (int u : large.graph.Neighbors(v)) want.push_back(u);
      ASSERT_EQ(std::vector<int>(edges.col_idx.begin() + edges.row_ptr[v],
                                 edges.col_idx.begin() + edges.row_ptr[v + 1]),
                want)
          << "edge row " << v;
    }
    if (!serial.has_value()) {
      serial.emplace(std::move(ctx));
      continue;
    }
    ExpectSameCsrBits(ctx.features->mat, serial->features->mat);
    ExpectSameCsrBits(ctx.gcn_adj->mat, serial->gcn_adj->mat);
    ExpectSameCsrBits(ctx.mean_adj->mat, serial->mean_adj->mat);
  }
}

// ExactBlock as first written, the oracle for its dense-index slicing: global
// ids map to frontier indices through a hash map, and each operator's rows
// are sliced through triplets and FromTriplets' sort.
struct TripletBlock {
  std::vector<int> frontier;
  std::vector<int> hop_sizes;
  std::vector<la::CsrMatrix> agg, gcn;
  std::vector<std::vector<std::vector<int>>> edge_rows;  // [hop][row]
};

TripletBlock TripletExactBlock(const GraphContext& ctx, const std::vector<int>& targets) {
  TripletBlock block;
  block.frontier = targets;
  std::unordered_map<int, int> local;
  for (size_t i = 0; i < targets.size(); ++i) local.emplace(targets[i], static_cast<int>(i));
  std::vector<int> sizes{static_cast<int>(targets.size())};
  for (int h = 0; h < 2; ++h) {
    const int num_out = sizes.back();
    for (int o = 0; o < num_out; ++o) {
      for (int u : ctx.graph.Neighbors(block.frontier[static_cast<size_t>(o)])) {
        if (local.emplace(u, static_cast<int>(block.frontier.size())).second) {
          block.frontier.push_back(u);
        }
      }
    }
    sizes.push_back(static_cast<int>(block.frontier.size()));
  }
  std::reverse(sizes.begin(), sizes.end());
  block.hop_sizes = sizes;
  const auto slice = [&](const la::CsrMatrix& m, int num_out, int num_in) {
    std::vector<la::Triplet> triplets;
    for (int o = 0; o < num_out; ++o) {
      const int v = block.frontier[static_cast<size_t>(o)];
      for (int64_t k = m.row_ptr()[v]; k < m.row_ptr()[v + 1]; ++k) {
        triplets.push_back({o, local.at(m.col_idx()[k]), m.values()[static_cast<size_t>(k)]});
      }
    }
    return la::CsrMatrix::FromTriplets(num_out, num_in, std::move(triplets));
  };
  for (int h = 0; h < 2; ++h) {
    const int num_in = sizes[static_cast<size_t>(h)];
    const int num_out = sizes[static_cast<size_t>(h) + 1];
    block.agg.push_back(slice(ctx.mean_adj->mat, num_out, num_in));
    block.gcn.push_back(slice(ctx.gcn_adj->mat, num_out, num_in));
    const ag::EdgeSet& edges = *ctx.edges_with_self;
    std::vector<std::vector<int>> rows(static_cast<size_t>(num_out));
    for (int o = 0; o < num_out; ++o) {
      const int v = block.frontier[static_cast<size_t>(o)];
      for (int64_t k = edges.row_ptr[v]; k < edges.row_ptr[v + 1]; ++k) {
        rows[static_cast<size_t>(o)].push_back(local.at(edges.col_idx[k]));
      }
    }
    block.edge_rows.push_back(std::move(rows));
  }
  return block;
}

void ExpectBlockEqualsTripletOracle(const GraphContext& ctx, const std::vector<int>& targets) {
  const SampledBlock got = ctx.ExactBlock(targets);
  const TripletBlock want = TripletExactBlock(ctx, targets);
  EXPECT_EQ(got.frontier, want.frontier);
  EXPECT_EQ(got.hop_sizes, want.hop_sizes);
  ASSERT_EQ(got.hops.size(), 2u);
  for (size_t h = 0; h < 2; ++h) {
    SCOPED_TRACE("hop " + std::to_string(h));
    ExpectSameCsrBits(got.hops[h].agg->mat, want.agg[h]);
    ExpectSameCsrBits(got.hops[h].gcn->mat, want.gcn[h]);
    const ag::EdgeSet& edges = *got.hops[h].edges;
    ASSERT_EQ(edges.num_nodes, static_cast<int>(want.edge_rows[h].size()));
    ASSERT_EQ(edges.row_ptr.size(), want.edge_rows[h].size() + 1);
    for (int o = 0; o < edges.num_nodes; ++o) {
      ASSERT_EQ(std::vector<int>(edges.col_idx.begin() + edges.row_ptr[o],
                                 edges.col_idx.begin() + edges.row_ptr[o + 1]),
                want.edge_rows[h][static_cast<size_t>(o)])
          << "edge row " << o;
    }
  }
}

// A power-law context and targets that lead with its largest hubs: rows
// hold hundreds of columns in first-seen, not sorted, frontier order.
struct HubLedBlock {
  GraphContext ctx;
  std::vector<int> targets;
};

HubLedBlock MakeHubLedBlock() {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = 10000;
  const data::ScaleDataset dataset(cfg, 3);
  HubLedBlock out{GraphContext::Build(dataset.adjacency().ToGraph(), dataset.MaterializeFeatures()),
                  {}};
  const GraphContext& ctx = out.ctx;
  std::vector<int> by_degree(static_cast<size_t>(ctx.num_nodes()));
  for (int v = 0; v < ctx.num_nodes(); ++v) by_degree[static_cast<size_t>(v)] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return ctx.graph.Degree(a) > ctx.graph.Degree(b);
  });
  EXPECT_GT(ctx.graph.Degree(by_degree[0]), 100);
  out.targets.assign(by_degree.begin(), by_degree.begin() + 16);
  for (int v : dataset.StridedNodes(48, 5)) {
    if (std::find(out.targets.begin(), out.targets.end(), v) == out.targets.end()) {
      out.targets.push_back(v);
    }
  }
  Rng rng(9);
  rng.Shuffle(&out.targets);
  return out;
}

TEST(GraphContextTest, ExactBlockEqualsTripletSlicing) {
  {
    SCOPED_TRACE("SBM");
    const Fixture f;
    ExpectBlockEqualsTripletOracle(f.ctx, {7, 0, 33, 90, 5});
    ExpectBlockEqualsTripletOracle(f.ctx, {119});
  }
  SCOPED_TRACE("ScaleDataset");
  const HubLedBlock hubs = MakeHubLedBlock();
  ExpectBlockEqualsTripletOracle(hubs.ctx, hubs.targets);
}

// One operator's rows as ExactBlock sliced them before mean_adj and gcn_adj
// shared one sort per row: each row's (local column, weight) pairs sorted on
// their own.
la::CsrMatrix PairSortedRows(const la::CsrMatrix& m, const std::vector<int>& frontier,
                             int num_out, int num_in, const std::vector<int>& local) {
  std::vector<int64_t> row_ptr(static_cast<size_t>(num_out) + 1, 0);
  std::vector<int> col_idx;
  std::vector<double> values;
  std::vector<std::pair<int, double>> row;
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    row.clear();
    for (int64_t k = m.row_ptr()[v]; k < m.row_ptr()[v + 1]; ++k) {
      const int id = local[static_cast<size_t>(m.col_idx()[k])];
      EXPECT_TRUE(id >= 0 && id < num_in);
      row.emplace_back(id, m.values()[static_cast<size_t>(k)]);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [col, value] : row) {
      col_idx.push_back(col);
      values.push_back(value);
    }
    row_ptr[static_cast<size_t>(o) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return la::CsrMatrix::FromSortedRows(num_out, num_in, std::move(row_ptr), std::move(col_idx),
                                       std::move(values));
}

void ExpectBlockEqualsPairSortedRows(const GraphContext& ctx, const std::vector<int>& targets) {
  const SampledBlock got = ctx.ExactBlock(targets);
  std::vector<int> local(static_cast<size_t>(ctx.num_nodes()), -1);
  for (size_t i = 0; i < got.frontier.size(); ++i) {
    local[static_cast<size_t>(got.frontier[i])] = static_cast<int>(i);
  }
  ASSERT_EQ(got.hops.size(), 2u);
  for (size_t h = 0; h < 2; ++h) {
    SCOPED_TRACE("hop " + std::to_string(h));
    const int num_in = got.hop_sizes[h];
    const int num_out = got.hop_sizes[h + 1];
    ExpectSameCsrBits(got.hops[h].agg->mat,
                      PairSortedRows(ctx.mean_adj->mat, got.frontier, num_out, num_in, local));
    ExpectSameCsrBits(got.hops[h].gcn->mat,
                      PairSortedRows(ctx.gcn_adj->mat, got.frontier, num_out, num_in, local));
  }
}

// ExactBlock sorts each row's local columns once, as gcn_adj's, and slices
// mean_adj's row, the same columns less the self-loop, through that order:
// both operators must keep the bits of sorting each on its own. The small
// graph puts the self-loop first, inside and last in a row, and holds an
// isolated target.
TEST(GraphContextTest, ExactBlockEqualsPerOperatorRowSort) {
  {
    SCOPED_TRACE("small graph");
    const graph::Graph g = graph::Graph::FromEdges(
        9, {{0, 5}, {0, 7}, {5, 7}, {3, 1}, {3, 8}, {8, 1}, {8, 2}, {6, 2}, {6, 1}});
    const GraphContext ctx = GraphContext::Build(g, la::Matrix(9, 2));
    ExpectBlockEqualsPairSortedRows(ctx, {8, 4, 0});
    ExpectBlockEqualsPairSortedRows(ctx, {5, 3, 6});
  }
  {
    SCOPED_TRACE("SBM");
    const Fixture f;
    ExpectBlockEqualsPairSortedRows(f.ctx, {7, 0, 33, 90, 5});
  }
  SCOPED_TRACE("ScaleDataset");
  const HubLedBlock hubs = MakeHubLedBlock();
  ExpectBlockEqualsPairSortedRows(hubs.ctx, hubs.targets);
}

// PrepareBlock as it was while feature gathers returned dense rows: the
// frontier's rows gathered into a dense matrix, then Â·X or mean·X by the
// dense SpMM, SAGE's self rows copied out of it, and GAT's operand built by
// FromDense.
BlockInputs DenseGatherPrepareBlock(ModelKind kind, const GraphContext& ctx,
                                    const SampledBlock& block) {
  const la::CsrMatrix& features = ctx.features->mat;
  la::Matrix x(block.num_inputs(), features.cols());
  for (int i = 0; i < x.rows(); ++i) {
    const int v = block.frontier[static_cast<size_t>(i)];
    for (int64_t k = features.row_ptr()[v]; k < features.row_ptr()[v + 1]; ++k) {
      x(i, features.col_idx()[static_cast<size_t>(k)]) = features.values()[static_cast<size_t>(k)];
    }
  }
  BlockInputs inputs;
  switch (kind) {
    case ModelKind::kGcn:
      inputs.agg = block.hops[0].gcn->mat.Multiply(x);
      break;
    case ModelKind::kGat:
      inputs.x = ag::MakeSparseOperand(la::CsrMatrix::FromDense(x), /*symmetric=*/false);
      break;
    case ModelKind::kGraphSage:
      inputs.self = la::Matrix(block.hops[0].num_out(), x.cols());
      std::copy(x.data(), x.data() + inputs.self.size(), inputs.self.data());
      inputs.agg = block.hops[0].agg->mat.Multiply(x);
      break;
  }
  return inputs;
}

void ExpectBlockInputsEqualDenseGatherPath(const GraphContext& ctx,
                                           const std::vector<int>& targets) {
  const SampledBlock block = ctx.ExactBlock(targets);
  for (const ModelKind kind : {ModelKind::kGcn, ModelKind::kGat, ModelKind::kGraphSage}) {
    const auto model = MakeModel(kind, ctx.feature_dim(), 3, 5);
    for (const auto& [backend, threads] :
         {std::pair{la::BackendKind::kReference, 1}, std::pair{la::BackendKind::kParallel, 1},
          std::pair{la::BackendKind::kParallel, 4}}) {
      SCOPED_TRACE(ModelKindName(kind) + " " + la::BackendKindName(backend) + " threads=" +
                   std::to_string(threads));
      la::ScopedBackend scoped(backend, threads);
      const BlockInputs got = model->PrepareBlock(block, ctx.GatherFeatures(block.frontier));
      const BlockInputs want = DenseGatherPrepareBlock(kind, ctx, block);
      ExpectSameMatrixBytes(got.agg, want.agg);
      ExpectSameMatrixBytes(got.self, want.self);
      ASSERT_EQ(got.x == nullptr, want.x == nullptr);
      if (want.x != nullptr) ExpectSameCsrBits(got.x->mat, want.x->mat);
    }
  }
}

// The feature gathers hand PrepareBlock CSR rows, and no block path builds
// a dense frontier matrix: every model's inputs keep the dense path's bits.
// The SBM context's features are scaled off 1, so that the products round
// and a sum written without la::MulAdd shows at -O0, and it holds an empty
// and a dense feature row; the hub-led frontier's leading rows aggregate
// hundreds of columns each.
TEST(BlockInputsTest, EqualTheDenseGatherPathBitForBit) {
  {
    SCOPED_TRACE("SBM");
    data::NodeClassificationData data = ppfr::testing::SmallSbm(42);
    Rng rng(8);
    for (int64_t i = 0; i < data.features.size(); ++i) {
      data.features.data()[i] *= rng.Uniform(0.5, 1.5);
    }
    ppfr::testing::AddFeatureEdgeRows(&data);
    const GraphContext ctx = GraphContext::Build(data.graph, data.features);
    ExpectBlockInputsEqualDenseGatherPath(ctx, {7, 0, 33, 90, 1, 5});
  }
  SCOPED_TRACE("ScaleDataset");
  const HubLedBlock hubs = MakeHubLedBlock();
  ExpectBlockInputsEqualDenseGatherPath(hubs.ctx, hubs.targets);
}

TEST(GraphContextDeathTest, ExactBlockRejectsDuplicateTargets) {
  const Fixture f;
  EXPECT_DEATH(f.ctx.ExactBlock({4, 9, 4}), "duplicate target node 4");
}

class ModelForwardSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelForwardSweep, ForwardShapeAndFiniteValues) {
  Fixture f;
  auto model = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  const la::Matrix logits = model->Logits(f.ctx);
  EXPECT_EQ(logits.rows(), f.ctx.num_nodes());
  EXPECT_EQ(logits.cols(), f.data.num_classes);
  for (int64_t i = 0; i < logits.size(); ++i) {
    ASSERT_TRUE(std::isfinite(logits.data()[i]));
  }
}

TEST_P(ModelForwardSweep, TrainingReducesLossAndBeatsChance) {
  Fixture f;
  auto model = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  TrainConfig cfg;
  cfg.epochs = 60;
  const TrainStats stats =
      Train(model.get(), f.ctx, f.split.train, f.data.labels, cfg);
  EXPECT_LT(stats.final_loss, 0.7 * stats.epoch_losses.front());
  const double acc = Accuracy(model->Logits(f.ctx), f.data.labels, f.split.test);
  EXPECT_GT(acc, 1.5 / f.data.num_classes) << "should beat chance comfortably";
}

TEST_P(ModelForwardSweep, DeterministicTraining) {
  Fixture f;
  TrainConfig cfg;
  cfg.epochs = 15;
  auto m1 = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  auto m2 = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(m1.get(), f.ctx, f.split.train, f.data.labels, cfg);
  Train(m2.get(), f.ctx, f.split.train, f.data.labels, cfg);
  EXPECT_LT(la::Sub(m1->Logits(f.ctx), m2->Logits(f.ctx)).MaxAbs(), 1e-12);
}

TEST_P(ModelForwardSweep, CloneIsDeepCopy) {
  Fixture f;
  auto model = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  auto clone = model->Clone();
  const la::Matrix before = model->Logits(f.ctx);
  TrainConfig cfg;
  cfg.epochs = 10;
  Train(clone.get(), f.ctx, f.split.train, f.data.labels, cfg);
  // Training the clone must not touch the original.
  EXPECT_LT(la::Sub(model->Logits(f.ctx), before).MaxAbs(), 1e-15);
  EXPECT_GT(la::Sub(clone->Logits(f.ctx), before).MaxAbs(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelForwardSweep,
                         ::testing::Values(ModelKind::kGcn, ModelKind::kGat,
                                           ModelKind::kGraphSage),
                         [](const auto& info) { return ModelKindName(info.param); });

TEST(ModelGradientTest, GcnEndToEndGradCheck) {
  Fixture f(7);
  Gcn model(f.ctx.feature_dim(), 8, f.data.num_classes, 11);
  const std::vector<int> rows{0, 5, 9};
  const std::vector<int> labels{f.data.labels[0], f.data.labels[5], f.data.labels[9]};
  Rng rng(1);
  auto build = [&](ag::Tape& tape) {
    ag::Var logits = model.Forward(tape, f.ctx, ForwardOptions{});
    return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, {1, 1, 1}, 3.0);
  };
  const ag::GradCheckResult r = ag::GradCheck(build, model.Params(), &rng, 6);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(ModelGradientTest, GatEndToEndGradCheck) {
  Fixture f(8);
  Gat model(f.ctx.feature_dim(), 4, f.data.num_classes, 2, 11);
  const std::vector<int> rows{1, 3};
  const std::vector<int> labels{f.data.labels[1], f.data.labels[3]};
  Rng rng(2);
  auto build = [&](ag::Tape& tape) {
    ag::Var logits = model.Forward(tape, f.ctx, ForwardOptions{});
    return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, {1, 1}, 2.0);
  };
  const ag::GradCheckResult r = ag::GradCheck(build, model.Params(), &rng, 4);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

TEST(GatParamsTest, FreshModelHoldsThePerHeadGlorotDraws) {
  // Each layer draws every head's (W_h, a_l, a_r) in turn from its seed and
  // keeps head h in weight columns [h·d, (h+1)·d) and attention column h,
  // so a fresh GAT is the stack of single-head layers it always was.
  const int in_dim = 24, classes = 3, hidden = 8, heads = 4;
  const uint64_t seed = 17;
  auto model = MakeModel(ModelKind::kGat, in_dim, classes, seed);
  const std::vector<ag::Parameter*> params = model->Params();
  ASSERT_EQ(params.size(), 6u);
  struct Layer {
    int in, out, heads;
    uint64_t seed;
  };
  const Layer layers[] = {{in_dim, hidden, heads, seed},
                          {hidden * heads, classes, 1, seed + 101}};
  for (int layer = 0; layer < 2; ++layer) {
    const Layer& shape = layers[layer];
    const ag::Parameter& w = *params[3 * static_cast<size_t>(layer)];
    const ag::Parameter& al = *params[3 * static_cast<size_t>(layer) + 1];
    const ag::Parameter& ar = *params[3 * static_cast<size_t>(layer) + 2];
    ASSERT_EQ(w.value.rows(), shape.in);
    ASSERT_EQ(w.value.cols(), shape.heads * shape.out);
    ASSERT_EQ(al.value.rows(), shape.out);
    ASSERT_EQ(al.value.cols(), shape.heads);
    ASSERT_TRUE(ar.value.SameShape(al.value));
    Rng rng(shape.seed);
    for (int h = 0; h < shape.heads; ++h) {
      const la::Matrix wh = GlorotUniform(shape.in, shape.out, &rng);
      const la::Matrix lh = GlorotUniform(shape.out, 1, &rng);
      const la::Matrix rh = GlorotUniform(shape.out, 1, &rng);
      for (int r = 0; r < shape.in; ++r) {
        for (int c = 0; c < shape.out; ++c) {
          ASSERT_EQ(w.value(r, h * shape.out + c), wh(r, c)) << "layer " << layer;
        }
      }
      for (int c = 0; c < shape.out; ++c) {
        ASSERT_EQ(al.value(c, h), lh(c, 0)) << "layer " << layer << " head " << h;
        ASSERT_EQ(ar.value(c, h), rh(c, 0)) << "layer " << layer << " head " << h;
      }
    }
  }
}

TEST(ModelGradientTest, SageEndToEndGradCheck) {
  Fixture f(9);
  GraphSage model(f.ctx.feature_dim(), 8, f.data.num_classes, 11);
  const std::vector<int> rows{2, 4};
  const std::vector<int> labels{f.data.labels[2], f.data.labels[4]};
  Rng rng(3);
  auto build = [&](ag::Tape& tape) {
    ag::Var logits = model.Forward(tape, f.ctx, ForwardOptions{});
    return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, {1, 1}, 2.0);
  };
  const ag::GradCheckResult r = ag::GradCheck(build, model.Params(), &rng, 6);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

// ---- The sparse first layer against a dense-X oracle ----
//
// The models multiply raw features only through the context's CSR operand
// (SpMM). The oracle rebuilds each full-graph forward in the test from the
// model's own parameters in the dense formulation: X is a dense tape
// constant, every product with it a dense MatMul, and SAGE's neighbour term
// is (agg·X)·W_neigh. The contract is 1e-12 relative on the logits and on
// every parameter gradient.

// One GAT layer: the dense projection x·W, then the attention op over the
// context's edges (GatConv's slope 0.2). The layer's parameters start at
// p[first] as (W, a_l, a_r), with one a_l column per head.
ag::Var OracleGatLayer(ag::Tape& tape, ag::Var x, const std::vector<ag::Parameter*>& p,
                       size_t first, const GraphContext& ctx) {
  return ag::GatAttention(ag::MatMul(x, tape.Leaf(p[first])), tape.Leaf(p[first + 1]),
                          tape.Leaf(p[first + 2]), ctx.edges_with_self,
                          p[first + 1]->value.cols(), 0.2);
}

ag::Var DenseOracleForward(ModelKind kind, const std::vector<ag::Parameter*>& p,
                           const GraphContext& ctx, const la::Matrix& features,
                           ag::Tape& tape) {
  ag::Var x = tape.Constant(features);
  switch (kind) {
    case ModelKind::kGcn: {
      auto layer = [&](ag::Var in, size_t first) {
        return ag::AddRowVec(ag::SpMM(ctx.gcn_adj, ag::MatMul(in, tape.Leaf(p[first]))),
                             tape.Leaf(p[first + 1]));
      };
      return layer(ag::Relu(layer(x, 0)), 2);
    }
    case ModelKind::kGat:
      return OracleGatLayer(tape, ag::Elu(OracleGatLayer(tape, x, p, 0, ctx)), p, 3, ctx);
    case ModelKind::kGraphSage: {
      auto layer = [&](ag::Var in, size_t first) {
        ag::Var self = ag::MatMul(in, tape.Leaf(p[first]));
        ag::Var neigh = ag::MatMul(ag::SpMM(ctx.mean_adj, in), tape.Leaf(p[first + 1]));
        return ag::AddRowVec(ag::Add(self, neigh), tape.Leaf(p[first + 2]));
      };
      return layer(ag::Relu(layer(x, 0)), 3);
    }
  }
  return {};
}

double FrobeniusRelErr(const la::Matrix& want, const la::Matrix& got) {
  double diff = 0.0, ref = 0.0;
  for (int64_t i = 0; i < want.size(); ++i) {
    diff += (got.data()[i] - want.data()[i]) * (got.data()[i] - want.data()[i]);
    ref += want.data()[i] * want.data()[i];
  }
  return std::sqrt(diff / std::max(ref, 1e-300));
}

using SparseFirstLayerParam = std::tuple<ModelKind, la::BackendKind, int>;

class SparseFirstLayer : public ::testing::TestWithParam<SparseFirstLayerParam> {};

TEST_P(SparseFirstLayer, MatchesDenseFeatureOracle) {
  const auto [kind, backend, threads] = GetParam();
  la::ScopedBackend scoped(backend, threads);
  data::NodeClassificationData data = ppfr::testing::SmallSbm(21);
  ppfr::testing::AddFeatureEdgeRows(&data);
  const GraphContext ctx = GraphContext::Build(data.graph, data.features);
  auto model = MakeModel(kind, ctx.feature_dim(), data.num_classes, 13);
  const std::vector<ag::Parameter*> params = model->Params();
  const auto laplacian = fairness::SimilarityContext::FromGraph(data.graph).laplacian;
  const std::vector<int> rows{0, 1, 17, 60};
  std::vector<int> labels;
  for (int v : rows) labels.push_back(data.labels[static_cast<size_t>(v)]);

  // Train-row NLL only keeps the logits gradient on a few rows, so every
  // backward (X·W's included) runs its row-support path; the fairness
  // regulariser's gradient covers every row, so it runs the dense path.
  for (const bool fairness : {false, true}) {
    SCOPED_TRACE(fairness ? "dense backward" : "row-support backward");
    auto run = [&](const std::function<ag::Var(ag::Tape&)>& forward) {
      for (ag::Parameter* q : params) q->ZeroGrad();
      ag::Tape tape;
      ag::Var logits = forward(tape);
      ag::Var loss = ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels,
                                     std::vector<double>(rows.size(), 1.0),
                                     static_cast<double>(rows.size()));
      if (fairness) {
        ag::Var bias = ag::LaplacianQuadratic(laplacian, ag::SoftmaxRows(logits));
        loss = ag::Add(loss, ag::Scale(bias, 0.5));
      }
      tape.Backward(loss);
      std::vector<la::Matrix> out{logits.value()};
      for (ag::Parameter* q : params) out.push_back(q->grad);
      return out;
    };
    const std::vector<la::Matrix> got =
        run([&](ag::Tape& tape) { return model->Forward(tape, ctx, ForwardOptions{}); });
    const std::vector<la::Matrix> want = run([&](ag::Tape& tape) {
      return DenseOracleForward(kind, params, ctx, data.features, tape);
    });
    ASSERT_EQ(got.size(), want.size());
    ASSERT_TRUE(got[0].SameShape(want[0]));
    for (int64_t i = 0; i < want[0].size(); ++i) {
      EXPECT_NEAR(got[0].data()[i], want[0].data()[i],
                  1e-12 * std::max(1.0, std::fabs(want[0].data()[i])))
          << "logit " << i;
    }
    for (size_t k = 0; k < params.size(); ++k) {
      ASSERT_TRUE(got[k + 1].SameShape(want[k + 1]));
      EXPECT_GT(want[k + 1].MaxAbs(), 0.0) << params[k]->name << " got no gradient";
      EXPECT_LT(FrobeniusRelErr(want[k + 1], got[k + 1]), 1e-12)
          << params[k]->name << " (parameter " << k << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsBackendsThreads, SparseFirstLayer,
    ::testing::Combine(::testing::Values(ModelKind::kGcn, ModelKind::kGat,
                                         ModelKind::kGraphSage),
                       ::testing::Values(la::BackendKind::kReference,
                                         la::BackendKind::kParallel),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return ModelKindName(std::get<0>(info.param)) +
             la::BackendKindName(std::get<1>(info.param)) + "Threads" +
             std::to_string(std::get<2>(info.param));
    });

TEST(AdamTest, MinimizesQuadratic) {
  // f(x) = ||x - 3||²; Adam should drive x to ~3.
  ag::Parameter x("x", la::Matrix(1, 1, 0.0));
  Adam adam({&x}, {.lr = 0.1});
  for (int step = 0; step < 300; ++step) {
    x.ZeroGrad();
    x.grad(0, 0) = 2.0 * (x.value(0, 0) - 3.0);
    adam.Step();
  }
  EXPECT_NEAR(x.value(0, 0), 3.0, 1e-3);
}

TEST(AdamTest, WeightDecayShrinksUnusedParameter) {
  ag::Parameter x("x", la::Matrix(1, 1, 5.0));
  Adam adam({&x}, {.lr = 0.05, .weight_decay = 1.0});
  for (int step = 0; step < 200; ++step) {
    x.ZeroGrad();  // gradient zero; only decay acts
    adam.Step();
  }
  EXPECT_LT(std::fabs(x.value(0, 0)), 0.5);
}

TEST(TrainerTest, SampleWeightsChangeTheOptimum) {
  Fixture f;
  TrainConfig base;
  base.epochs = 40;
  auto uniform = MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(uniform.get(), f.ctx, f.split.train, f.data.labels, base);

  TrainConfig weighted = base;
  weighted.sample_weights.assign(f.split.train.size(), 1.0);
  for (size_t i = 0; i < weighted.sample_weights.size(); i += 2) {
    weighted.sample_weights[i] = 0.0;  // drop half the supervision
  }
  auto reweighted =
      MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(reweighted.get(), f.ctx, f.split.train, f.data.labels, weighted);
  EXPECT_GT(la::Sub(uniform->Logits(f.ctx), reweighted->Logits(f.ctx)).MaxAbs(), 1e-4);
}

TEST(TrainerTest, ZeroWeightEqualsExclusion) {
  Fixture f;
  TrainConfig cfg;
  cfg.epochs = 25;
  // Weight zero on the second half of train nodes ...
  TrainConfig weighted = cfg;
  weighted.sample_weights.assign(f.split.train.size(), 1.0);
  const size_t half = f.split.train.size() / 2;
  for (size_t i = half; i < f.split.train.size(); ++i) weighted.sample_weights[i] = 0.0;
  auto a = MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(a.get(), f.ctx, f.split.train, f.data.labels, weighted);
  // ... must equal training on the first half only, with matching
  // normalisation (weights scaled so the denominators agree).
  std::vector<int> first_half(f.split.train.begin(), f.split.train.begin() + half);
  TrainConfig subset = cfg;
  subset.sample_weights.assign(first_half.size(),
                               static_cast<double>(first_half.size()) /
                                   static_cast<double>(f.split.train.size()));
  auto b = MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(b.get(), f.ctx, first_half, f.data.labels, subset);
  EXPECT_LT(la::Sub(a->Logits(f.ctx), b->Logits(f.ctx)).MaxAbs(), 1e-9);
}

TEST(TrainerTest, AccuracyHelper) {
  la::Matrix logits = la::Matrix::FromRows({{2, 1}, {0, 3}, {5, 4}});
  const std::vector<int> labels{0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
}

}  // namespace
}  // namespace ppfr::nn
