// Tests for the influence-engine hot path: the support-restricted block path
// (every replayed loss gradient runs on its seed nodes' exact 2-hop block),
// TapePool (parallel per-seed backward over one shared forward tape), the
// ReusableLossGraph tape arena, and the trainer's cross-epoch tape replay.
// The contracts: within the block path results are BITWISE invariant to pool
// lanes and thread count under every backend; block gradients
// match the full-graph oracle within 1e-12 relative, and block influence
// matches a full-graph solve within 1e-8 with the same evaluation count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "data/split.h"
#include "fairness/bias_metric.h"
#include "influence/influence.h"
#include "influence/param_vector.h"
#include "influence/tape_pool.h"
#include "la/backend.h"
#include "nn/adam.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr::influence {
namespace {

// The fixture graph, with an all-zero and a fully dense feature row so the
// block paths (GAT's sparse block inputs included) cover both.
data::NodeClassificationData EdgeRowSbm(uint64_t seed) {
  data::NodeClassificationData data = ppfr::testing::SmallSbm(seed, 140, 3);
  ppfr::testing::AddFeatureEdgeRows(&data);
  return data;
}

struct EngineFixture {
  data::NodeClassificationData data;
  nn::GraphContext ctx;
  data::Split split;
  std::unique_ptr<nn::GnnModel> model;

  explicit EngineFixture(nn::ModelKind kind, uint64_t seed = 31)
      : data(EdgeRowSbm(seed)),
        ctx(nn::GraphContext::Build(data.graph, data.features)),
        split(data::MakeSplit(data.graph.num_nodes(), 40, 0, 3)),
        model(nn::MakeModel(kind, ctx.feature_dim(), data.num_classes, 5)) {
    nn::TrainConfig cfg;
    cfg.epochs = 30;
    nn::Train(model.get(), ctx, split.train, data.labels, cfg);
  }

  std::vector<std::vector<double>> PerNodeGrads(const InfluenceConfig& config) {
    InfluenceCalculator calc(model.get(), ctx, split.train, data.labels, config);
    return calc.PerNodeLossGrads();
  }
};

void ExpectBitwiseEqual(const std::vector<std::vector<double>>& want,
                        const std::vector<std::vector<double>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(want[k].size(), got[k].size()) << "seed " << k;
    for (size_t i = 0; i < want[k].size(); ++i) {
      ASSERT_EQ(want[k][i], got[k][i])
          << "seed " << k << " component " << i << " differs";
    }
  }
}

// Largest per-row relative l2 distance of `got` from `want`.
double MaxRowRelErr(const std::vector<std::vector<double>>& want,
                    const std::vector<std::vector<double>>& got) {
  EXPECT_EQ(want.size(), got.size());
  double worst = 0.0;
  for (size_t k = 0; k < want.size() && k < got.size(); ++k) {
    EXPECT_EQ(want[k].size(), got[k].size()) << "row " << k;
    double diff = 0.0;
    double ref = 0.0;
    for (size_t i = 0; i < want[k].size() && i < got[k].size(); ++i) {
      diff += (got[k][i] - want[k][i]) * (got[k][i] - want[k][i]);
      ref += want[k][i] * want[k][i];
    }
    worst = std::max(worst, std::sqrt(diff / std::max(ref, 1e-300)));
  }
  return worst;
}

// Deterministic probe points around the trained parameters: small absolute
// perturbations so every point stays in the model's smooth regime.
std::vector<std::vector<double>> ProbePoints(const std::vector<double>& theta0,
                                             int count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1e-3);
  std::vector<std::vector<double>> points(static_cast<size_t>(count), theta0);
  for (auto& p : points) {
    for (double& v : p) v += normal(rng);
  }
  return points;
}

// Probe-point training-loss gradients from the calculator's GradLanePool.
std::vector<std::vector<double>> ProbeGradsAt(
    EngineFixture& fx, int pool_lanes, const std::vector<std::vector<double>>& points) {
  InfluenceConfig cfg;
  cfg.tape_pool_lanes = pool_lanes;
  // cg_block sets the probe budget the lane count is clamped to; keep it
  // wide enough that tape_pool_lanes is the binding knob in these tests.
  cfg.cg_block = 8;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                           cfg);
  return calc.BatchTrainGrad()(points);
}

// The full-graph mean training loss over a clone of the fixture's model —
// the oracle for probe-gradient evaluation and the full-graph solve.
struct FullGraphLoss {
  std::unique_ptr<nn::GnnModel> model;
  std::vector<int> labels;
  std::unique_ptr<ReusableLossGraph> graph;

  FullGraphLoss(const EngineFixture& fx, std::unique_ptr<nn::GnnModel> m)
      : model(std::move(m)) {
    for (int v : fx.split.train) labels.push_back(fx.data.labels[static_cast<size_t>(v)]);
    nn::GnnModel* raw = model.get();
    const nn::GraphContext* ctx = &fx.ctx;
    const std::vector<int>* nodes = &fx.split.train;
    const std::vector<int>* node_labels = &labels;
    graph = std::make_unique<ReusableLossGraph>(
        [raw, ctx, nodes, node_labels](ag::Tape& tape) {
          ag::Var logits = raw->Forward(tape, *ctx, nn::ForwardOptions{});
          const std::vector<double> ones(nodes->size(), 1.0);
          return ag::WeightedNll(ag::LogSoftmaxRows(logits), *nodes, *node_labels, ones,
                                 static_cast<double>(nodes->size()));
        },
        model->Params());
  }

  std::vector<std::vector<double>> GradsAt(const std::vector<std::vector<double>>& points) {
    std::vector<std::vector<double>> grads;
    for (const auto& p : points) {
      SetValues(model->Params(), p);
      grads.push_back(graph->Grad());
    }
    return grads;
  }
};

using ModelBackend = std::tuple<nn::ModelKind, la::BackendKind>;

class BlockPath : public ::testing::TestWithParam<ModelBackend> {};

TEST_P(BlockPath, BlockForwardMatchesFullGraphLogits) {
  const auto [kind, backend] = GetParam();
  la::ScopedBackend scoped(backend, 2);
  EngineFixture fx(kind);
  const std::vector<int> targets(fx.split.train.begin(), fx.split.train.begin() + 9);
  const nn::SampledBlock block = fx.ctx.ExactBlock(targets);
  const nn::BlockInputs inputs =
      fx.model->PrepareBlock(block, fx.ctx.GatherFeatures(block.frontier));
  ag::Tape tape;
  const la::Matrix got = fx.model->ForwardBlock(tape, block, inputs).value();
  const la::Matrix want = fx.model->Logits(fx.ctx);
  ASSERT_EQ(got.rows(), static_cast<int>(targets.size()));
  for (size_t i = 0; i < targets.size(); ++i) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got(static_cast<int>(i), c), want(targets[i], c),
                  1e-12 * std::max(1.0, std::fabs(want(targets[i], c))));
    }
  }
}

TEST_P(BlockPath, PerNodeGradsAreLaneInvariantAndMatchFullGraph) {
  const auto [kind, backend] = GetParam();
  la::ScopedBackend scoped(backend, 4);
  EngineFixture fx(kind);

  InfluenceConfig serial_cfg;
  serial_cfg.serial_reference_per_node = true;
  const auto oracle = fx.PerNodeGrads(serial_cfg);
  ASSERT_EQ(oracle.size(), fx.split.train.size());

  InfluenceConfig one_lane;
  one_lane.tape_pool_lanes = 1;
  const auto want = fx.PerNodeGrads(one_lane);
  EXPECT_LT(MaxRowRelErr(oracle, want), 1e-12) << "block path vs full-graph oracle";
  for (int lanes : {2, 4}) {
    InfluenceConfig pooled_cfg;
    pooled_cfg.tape_pool_lanes = lanes;
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ExpectBitwiseEqual(want, fx.PerNodeGrads(pooled_cfg));
  }
  {
    la::ScopedBackend single(backend, 1);
    InfluenceConfig pooled_cfg;
    pooled_cfg.tape_pool_lanes = 3;
    SCOPED_TRACE("threads=1 lanes=3");
    ExpectBitwiseEqual(want, fx.PerNodeGrads(pooled_cfg));
  }
}

TEST_P(BlockPath, ProbeGradsAreLaneInvariantAndMatchFullGraph) {
  // The probe replay contract on the block: for every pool lane count and
  // backend thread count, the probe gradients are bitwise those of one lane
  // on one thread — and those match the full-graph loss gradient. (Lanes are
  // clamped to the backend's thread count, and the reference backend reports
  // one thread, so only parallel runs several lanes here.)
  const auto [kind, backend] = GetParam();
  EngineFixture fx(kind, /*seed=*/47);
  const auto points =
      ProbePoints(FlattenValues(fx.model->Params()), /*count=*/5, /*seed=*/417);

  std::vector<std::vector<double>> want;
  {
    la::ScopedBackend single(backend, 1);
    want = ProbeGradsAt(fx, /*pool_lanes=*/1, points);
  }
  ASSERT_EQ(want.size(), points.size());
  FullGraphLoss full(fx, fx.model->Clone());
  EXPECT_LT(MaxRowRelErr(full.GradsAt(points), want), 1e-12)
      << "block probe gradients vs full-graph loss gradients";
  for (const int threads : {1, 4}) {
    la::ScopedBackend scoped(backend, threads);
    for (const int pool_lanes : {1, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " pool_lanes=" + std::to_string(pool_lanes));
      ExpectBitwiseEqual(want, ProbeGradsAt(fx, pool_lanes, points));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndBackends, BlockPath,
    ::testing::Combine(::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                         nn::ModelKind::kGraphSage),
                       ::testing::Values(la::BackendKind::kReference,
                                         la::BackendKind::kParallel)),
    [](const ::testing::TestParamInfo<ModelBackend>& info) {
      return nn::ModelKindName(std::get<0>(info.param)) + "_" +
             la::BackendKindName(std::get<1>(info.param));
    });

// A full-graph influence solve assembled in the test from public pieces:
// right-hand sides, training-loss and probe gradients all from full-graph
// forwards, solved with the same block-CG configuration as the calculator.
struct FullGraphSolve {
  std::vector<std::vector<double>> influence;
  int grad_evals = 0;
};

FullGraphSolve SolveOnFullGraph(EngineFixture& fx, const InfluenceConfig& cfg,
                                const std::vector<std::vector<double>>& rhs) {
  FullGraphLoss at_theta(fx, fx.model->Clone());
  FullGraphLoss probes(fx, fx.model->Clone());
  const std::vector<ag::Parameter*> params = at_theta.model->Params();
  const GradFn train_grad = [&at_theta] { return at_theta.graph->Grad(); };
  const BatchGradFn batch_grad = [&probes](const std::vector<std::vector<double>>& p) {
    return probes.GradsAt(p);
  };
  const MultiVector b = MultiVector::FromColumns(rhs);
  MultiVector s(b.dim(), b.k());
  FullGraphSolve out;
  const int block = cfg.cg_block;
  for (int begin = 0; begin < b.k(); begin += block) {
    std::vector<int> cols;
    for (int j = begin; j < std::min(begin + block, b.k()); ++j) cols.push_back(j);
    const BlockCgResult part = BlockConjugateGradientSolve(
        params, train_grad, batch_grad, b.SelectColumns(cols), cfg.cg);
    for (size_t j = 0; j < cols.size(); ++j) {
      s.SetColumn(cols[j], part.x.Column(static_cast<int>(j)));
    }
    out.grad_evals += part.stats.grad_evals;
  }
  InfluenceConfig serial_cfg;
  serial_cfg.serial_reference_per_node = true;
  const la::Matrix prod =
      BlockGram(s, MultiVector::FromColumns(fx.PerNodeGrads(serial_cfg)));
  out.influence.assign(static_cast<size_t>(b.k()), {});
  for (int i = 0; i < b.k(); ++i) {
    for (int v = 0; v < prod.cols(); ++v) out.influence[i].push_back(-prod(i, v));
  }
  return out;
}

// ∇θ f on the full graph.
std::vector<double> FullGraphFunctionGrad(EngineFixture& fx, const FunctionBuilder& f) {
  std::unique_ptr<nn::GnnModel> clone = fx.model->Clone();
  for (ag::Parameter* p : clone->Params()) p->ZeroGrad();
  ag::Tape tape;
  tape.Backward(f(tape, clone->Forward(tape, fx.ctx, nn::ForwardOptions{})));
  return FlattenGrads(clone->Params());
}

class BlockPathInfluence : public ::testing::TestWithParam<nn::ModelKind> {};

TEST_P(BlockPathInfluence, MatchesFullGraphSolveWithSameEvaluationCount) {
  EngineFixture fx(GetParam(), /*seed=*/39);
  InfluenceConfig cfg;
  cfg.cg_block = 8;
  // A PD regime where both solves converge, so they follow one Krylov path.
  cfg.cg.damping = 1.0;
  cfg.cg.max_iterations = 200;
  cfg.cg.tolerance = 1e-9;

  // Node-loss influence: targets include a repeat, which shares its
  // representative's bits within one block of columns.
  std::vector<int> targets(fx.split.train.begin(), fx.split.train.begin() + 6);
  targets.push_back(targets[1]);
  InfluenceCalculator node_calc(fx.model.get(), fx.ctx, fx.split.train,
                                fx.data.labels, cfg);
  const auto node_rows = node_calc.InfluenceOnNodeLosses(targets);
  ExpectBitwiseEqual({node_rows[1]}, {node_rows.back()});
  InfluenceConfig target_cfg;
  target_cfg.serial_reference_per_node = true;
  InfluenceCalculator target_grads(fx.model.get(), fx.ctx, targets, fx.data.labels,
                                   target_cfg);
  const FullGraphSolve node_want =
      SolveOnFullGraph(fx, cfg, target_grads.PerNodeLossGrads());
  EXPECT_LT(MaxRowRelErr(node_want.influence, node_rows), 1e-8);
  EXPECT_EQ(node_calc.block_stats().grad_evals, node_want.grad_evals);

  // Function influence: bias and utility, one block solve.
  const fairness::SimilarityContext sim =
      fairness::SimilarityContext::FromGraph(fx.data.graph);
  InfluenceCalculator fn_calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                              cfg);
  const std::vector<FunctionBuilder> builders = {
      InfluenceCalculator::BiasFunction(sim.laplacian), fn_calc.UtilityFunction()};
  const auto fn_rows = fn_calc.InfluenceOnFunctions(builders);
  std::vector<std::vector<double>> fn_rhs;
  for (const FunctionBuilder& f : builders) fn_rhs.push_back(FullGraphFunctionGrad(fx, f));
  const FullGraphSolve fn_want = SolveOnFullGraph(fx, cfg, fn_rhs);
  EXPECT_LT(MaxRowRelErr(fn_want.influence, fn_rows), 1e-8);
  EXPECT_EQ(fn_calc.block_stats().grad_evals, fn_want.grad_evals);
}

TEST_P(BlockPathInfluence, DuplicateSeedsAndWholeGraphBlocks) {
  EngineFixture fx(GetParam(), /*seed=*/41);
  InfluenceConfig serial_cfg;
  serial_cfg.serial_reference_per_node = true;
  InfluenceConfig pooled_cfg;
  pooled_cfg.tape_pool_lanes = 2;

  // Repeated training nodes share one block row.
  std::vector<int> repeated = fx.split.train;
  repeated.push_back(repeated[0]);
  repeated.push_back(repeated[5]);
  InfluenceCalculator dup(fx.model.get(), fx.ctx, repeated, fx.data.labels, pooled_cfg);
  InfluenceCalculator dup_oracle(fx.model.get(), fx.ctx, repeated, fx.data.labels,
                                 serial_cfg);
  const auto& dup_grads = dup.PerNodeLossGrads();
  EXPECT_LT(MaxRowRelErr(dup_oracle.PerNodeLossGrads(), dup_grads), 1e-12);
  ExpectBitwiseEqual({dup_grads[0]}, {dup_grads[repeated.size() - 2]});
  ExpectBitwiseEqual({dup_grads[5]}, {dup_grads.back()});

  // Every node as a seed: the block is the whole graph.
  std::vector<int> all(static_cast<size_t>(fx.ctx.num_nodes()));
  for (int v = 0; v < fx.ctx.num_nodes(); ++v) all[static_cast<size_t>(v)] = v;
  EXPECT_EQ(fx.ctx.ExactBlock(all).num_inputs(), fx.ctx.num_nodes());
  InfluenceCalculator whole(fx.model.get(), fx.ctx, all, fx.data.labels, pooled_cfg);
  InfluenceCalculator whole_oracle(fx.model.get(), fx.ctx, all, fx.data.labels,
                                   serial_cfg);
  EXPECT_LT(MaxRowRelErr(whole_oracle.PerNodeLossGrads(), whole.PerNodeLossGrads()),
            1e-12);
}

TEST_P(BlockPathInfluence, ResultsDoNotDependOnCallOrder) {
  // FR calls InfluenceOnFunctions cold; an instrumented replay of it calls
  // PerNodeLossGrads first. Both must produce the same bits, with or
  // without a cell-scoped ReplayCache.
  EngineFixture fx(GetParam(), /*seed=*/43);
  const fairness::SimilarityContext sim =
      fairness::SimilarityContext::FromGraph(fx.data.graph);
  auto run = [&](bool per_node_first, bool cached) {
    ReplayCache cache;
    InfluenceConfig cfg;
    if (cached) cfg.replay_cache = &cache;
    InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             cfg);
    if (per_node_first) calc.PerNodeLossGrads();
    return calc.InfluenceOnFunctions(
        {InfluenceCalculator::BiasFunction(sim.laplacian), calc.UtilityFunction()});
  };
  const auto want = run(false, true);
  ExpectBitwiseEqual(want, run(true, true));
  ExpectBitwiseEqual(want, run(true, false));
}

INSTANTIATE_TEST_SUITE_P(Models, BlockPathInfluence,
                         ::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                           nn::ModelKind::kGraphSage),
                         [](const ::testing::TestParamInfo<nn::ModelKind>& info) {
                           return nn::ModelKindName(info.param);
                         });

TEST(GatAttentionSupportTest, SparseSeedEqualsDenseSeedBitwise) {
  // Drives the fused GAT attention op directly: a sparse-seeded backward
  // (known row support → support-pruned path) must reproduce a dense
  // whole-matrix seed with the same nonzeros (unknown support → dense path)
  // exactly, for every parent (h, attn_left, attn_right).
  Rng rng(21);
  const int n = 7;
  const int heads = 2;
  const int dim = 3;
  auto edges = std::make_shared<ag::EdgeSet>();
  edges->num_nodes = n;
  edges->row_ptr.push_back(0);
  for (int i = 0; i < n; ++i) {  // ring + self-loops
    edges->col_idx.push_back(i);
    edges->col_idx.push_back((i + 1) % n);
    edges->col_idx.push_back((i + n - 1) % n);
    edges->row_ptr.push_back(static_cast<int64_t>(edges->col_idx.size()));
  }
  ag::Parameter hp("h", ppfr::testing::RandomMatrix(n, heads * dim, &rng));
  ag::Parameter lp("attn_l", ppfr::testing::RandomMatrix(dim, heads, &rng));
  ag::Parameter rp("attn_r", ppfr::testing::RandomMatrix(dim, heads, &rng));
  const std::vector<ag::Parameter*> params{&hp, &lp, &rp};

  auto run = [&](bool sparse_seed) {
    for (ag::Parameter* p : params) p->ZeroGrad();
    ag::Tape tape;
    ag::Var out = ag::GatAttention(tape.Leaf(&hp), tape.Leaf(&lp), tape.Leaf(&rp),
                                   edges, heads, /*leaky_slope=*/0.2);
    if (sparse_seed) {
      tape.BackwardWithSparseSeed(out, {3, 3}, {2, 4}, {1.5, -0.5});
    } else {
      la::Matrix seed(n, heads * dim);
      seed(3, 2) = 1.5;
      seed(3, 4) = -0.5;
      tape.BackwardWithSeed(out, seed);
    }
    return FlattenGrads(params);
  };

  const std::vector<double> sparse = run(true);
  const std::vector<double> dense = run(false);
  ASSERT_EQ(sparse.size(), dense.size());
  for (size_t i = 0; i < sparse.size(); ++i) {
    ASSERT_EQ(sparse[i], dense[i]) << "component " << i;
  }
}

TEST(GatherRowsSupportTest, SparseSeedEqualsDenseSeedBitwise) {
  // The block forwards gather prefix rows; a seeded backward must scatter
  // only the supported rows (repeated indices included) and still equal a
  // dense seed with the same nonzeros.
  Rng rng(23);
  ag::Parameter ap("a", ppfr::testing::RandomMatrix(6, 3, &rng));
  const std::vector<int> indices = {4, 1, 4, 0, 5};
  auto run = [&](bool sparse_seed) {
    ap.ZeroGrad();
    ag::Tape tape;
    ag::Var out = ag::Tanh(ag::GatherRows(tape.Leaf(&ap), indices));
    if (sparse_seed) {
      tape.BackwardWithSparseSeed(out, {0, 2, 3}, {1, 0, 2}, {0.5, -1.5, 2.0});
    } else {
      la::Matrix seed(5, 3);
      seed(0, 1) = 0.5;
      seed(2, 0) = -1.5;
      seed(3, 2) = 2.0;
      tape.BackwardWithSeed(out, seed);
    }
    return FlattenGrads({&ap});
  };
  const std::vector<double> sparse = run(true);
  const std::vector<double> dense = run(false);
  ASSERT_EQ(sparse, dense);
}

TEST(TapePoolTest, SparseSeedMatchesMaterialisedLossNode) {
  // Seeding -w/denom at (v, label) must equal building the WeightedNll node
  // and back-propagating a unit seed through it.
  Rng rng(7);
  ag::Parameter logits_param("logits", ppfr::testing::RandomMatrix(9, 4, &rng));

  auto grads_via_loss_node = [&] {
    logits_param.ZeroGrad();
    ag::Tape tape;
    ag::Var logp = ag::LogSoftmaxRows(tape.Leaf(&logits_param));
    ag::Var loss = ag::WeightedNll(logp, {3}, {2}, {1.0}, 1.0);
    tape.Backward(loss);
    return FlattenGrads({&logits_param});
  }();

  TapePool pool(
      [&](ag::Tape& tape) { return ag::LogSoftmaxRows(tape.Leaf(&logits_param)); },
      {&logits_param}, /*num_lanes=*/1);
  const auto pooled = pool.PerSeedGrads(
      1, [](int, std::vector<int>* rows, std::vector<int>* cols,
            std::vector<double>* values) {
        rows->push_back(3);
        cols->push_back(2);
        values->push_back(-1.0);
      });

  ASSERT_EQ(pooled.size(), 1u);
  ASSERT_EQ(pooled[0].size(), grads_via_loss_node.size());
  for (size_t i = 0; i < pooled[0].size(); ++i) {
    EXPECT_EQ(pooled[0][i], grads_via_loss_node[i]) << "component " << i;
  }
}

TEST(TapePoolTest, DoesNotTouchParameterGrads) {
  Rng rng(8);
  ag::Parameter p("p", ppfr::testing::RandomMatrix(5, 3, &rng));
  p.grad.Fill(42.0);
  TapePool pool([&](ag::Tape& tape) { return ag::LogSoftmaxRows(tape.Leaf(&p)); },
                {&p}, /*num_lanes=*/2);
  pool.PerSeedGrads(4, [](int k, std::vector<int>* rows, std::vector<int>* cols,
                          std::vector<double>* values) {
    rows->push_back(k % 5);
    cols->push_back(0);
    values->push_back(-1.0);
  });
  for (int64_t i = 0; i < p.grad.size(); ++i) {
    EXPECT_EQ(p.grad.data()[i], 42.0) << "Parameter::grad clobbered at " << i;
  }
}

TEST(ReusableLossGraphTest, ReplayedGradMatchesFreshTapeBitwise) {
  Rng rng(9);
  ag::Parameter w("w", ppfr::testing::RandomMatrix(6, 4, &rng));
  ag::Parameter b("b", ppfr::testing::RandomMatrix(1, 4, &rng));
  const std::vector<ag::Parameter*> params{&w, &b};
  auto build = [&](ag::Tape& tape) {
    ag::Var h = ag::AddRowVec(ag::Tanh(tape.Leaf(&w)), tape.Leaf(&b));
    return ag::MeanAll(ag::Square(h));
  };

  auto fresh_grad = [&] {
    for (ag::Parameter* p : params) p->ZeroGrad();
    ag::Tape tape;
    tape.Backward(build(tape));
    return FlattenGrads(params);
  };

  ReusableLossGraph graph(build, params);
  const std::vector<double> want = fresh_grad();
  // Several replays, including after a parameter update, must track the
  // fresh-tape gradient exactly.
  for (int round = 0; round < 3; ++round) {
    const std::vector<double> got = graph.Grad();
    const std::vector<double> expect = fresh_grad();
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "round " << round << " component " << i;
    }
    for (int64_t i = 0; i < w.value.size(); ++i) w.value.data()[i] += 0.01 * (round + 1);
  }
  (void)want;
}

class TrainerReplay : public ::testing::TestWithParam<nn::ModelKind> {};

TEST_P(TrainerReplay, ReplayedEpochsMatchFreshTapesBitwise) {
  const auto data = ppfr::testing::SmallSbm(12, 90, 3);
  auto ctx = nn::GraphContext::Build(data.graph, data.features);
  const auto split = data::MakeSplit(data.graph.num_nodes(), 25, 0, 3);

  auto run = [&](bool reuse) {
    auto model = nn::MakeModel(GetParam(), ctx.feature_dim(), data.num_classes, 5);
    nn::TrainConfig cfg;
    cfg.epochs = 12;
    cfg.reuse_tape = reuse;
    const nn::TrainStats stats = nn::Train(model.get(), ctx, split.train,
                                           data.labels, cfg);
    std::vector<double> flat = FlattenValues(model->Params());
    flat.insert(flat.end(), stats.epoch_losses.begin(), stats.epoch_losses.end());
    return flat;
  };

  const std::vector<double> replayed = run(true);
  const std::vector<double> fresh = run(false);
  ASSERT_EQ(replayed.size(), fresh.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    ASSERT_EQ(replayed[i], fresh[i]) << "component " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, TrainerReplay,
                         ::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                           nn::ModelKind::kGraphSage),
                         [](const ::testing::TestParamInfo<nn::ModelKind>& info) {
                           return nn::ModelKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Block-CG multi-RHS solver. Contracts under test (see influence/hvp.h):
// k = 1 equals the single-RHS oracle bit for bit; k > 1 agrees per column to
// solver tolerance; a fixed block is bitwise invariant across thread and lane
// counts; converged columns deflate individually; zero and duplicate RHS
// columns are handled exactly.
// ---------------------------------------------------------------------------

// Quadratic test bed L(θ) = ½θᵀAθ - bᵀθ (exact Hessian A), same shape as the
// fixture in influence_test.cc, plus the batch evaluation the block solver
// consumes: ∇L at an absolute point p is A·p - c, independent of θ.
struct BlockQuadratic {
  ag::Parameter theta;
  la::Matrix a;  // SPD (n x n)
  std::vector<double> c;

  explicit BlockQuadratic(int n, uint64_t seed) : theta("theta", la::Matrix(n, 1)) {
    Rng rng(seed);
    la::Matrix m = ppfr::testing::RandomMatrix(n, n, &rng);
    a = la::MatMulTransA(m, m);
    for (int i = 0; i < n; ++i) a(i, i) += 1.0;
    c.resize(static_cast<size_t>(n));
    for (auto& v : c) v = rng.Normal();
    for (int i = 0; i < n; ++i) theta.value(i, 0) = rng.Normal();
  }

  std::vector<double> GradAt(const std::vector<double>& point) const {
    std::vector<double> g(static_cast<size_t>(a.rows()));
    for (int i = 0; i < a.rows(); ++i) {
      double s = -c[static_cast<size_t>(i)];
      for (int j = 0; j < a.cols(); ++j) s += a(i, j) * point[static_cast<size_t>(j)];
      g[static_cast<size_t>(i)] = s;
    }
    return g;
  }

  GradFn MakeGradFn() {
    return [this] { return GradAt(FlattenValues({&theta})); };
  }

  BatchGradFn MakeBatchGradFn() {
    return [this](const std::vector<std::vector<double>>& points) {
      std::vector<std::vector<double>> grads;
      grads.reserve(points.size());
      for (const auto& p : points) grads.push_back(GradAt(p));
      return grads;
    };
  }

  std::vector<ag::Parameter*> Params() { return {&theta}; }
};

MultiVector RandomRhs(int64_t dim, int k, uint64_t seed) {
  Rng rng(seed);
  MultiVector b(dim, k);
  for (int j = 0; j < k; ++j) {
    for (int64_t i = 0; i < dim; ++i) b.col(j)[i] = rng.Normal();
  }
  return b;
}

class BlockCgBackend : public ::testing::TestWithParam<la::BackendKind> {};

TEST_P(BlockCgBackend, SingleColumnBlockEqualsOracleBitwise) {
  la::ScopedBackend scoped(GetParam(), 4);
  BlockQuadratic problem(10, 17);
  const MultiVector b = RandomRhs(10, 1, 18);
  CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;

  const CgResult oracle = ConjugateGradientSolve(problem.Params(), problem.MakeGradFn(),
                                                 b.Column(0), options);
  const BlockCgResult block =
      BlockConjugateGradientSolve(problem.Params(), problem.MakeGradFn(),
                                  problem.MakeBatchGradFn(), b, options);

  ASSERT_EQ(block.x.k(), 1);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(block.x.col(0)[i], oracle.x[static_cast<size_t>(i)]) << "component " << i;
  }
  EXPECT_EQ(block.residual_norm[0], oracle.residual_norm);
  EXPECT_EQ(block.iterations[0], oracle.iterations);
}

TEST_P(BlockCgBackend, BlockMatchesOraclePerColumnWithinTolerance) {
  la::ScopedBackend scoped(GetParam(), 2);
  const int n = 12;
  BlockQuadratic problem(n, 23);
  CgOptions options;
  options.max_iterations = 80;
  options.tolerance = 1e-10;

  for (int k : {2, 3, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const MultiVector b = RandomRhs(n, k, 100 + static_cast<uint64_t>(k));
    const BlockCgResult block =
        BlockConjugateGradientSolve(problem.Params(), problem.MakeGradFn(),
                                    problem.MakeBatchGradFn(), b, options);
    for (int j = 0; j < k; ++j) {
      EXPECT_TRUE(block.converged[static_cast<size_t>(j)]) << "column " << j;
      const CgResult oracle = ConjugateGradientSolve(
          problem.Params(), problem.MakeGradFn(), b.Column(j), options);
      double num = 0.0;
      double den = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const double d = block.x.col(j)[i] - oracle.x[static_cast<size_t>(i)];
        num += d * d;
        den += oracle.x[static_cast<size_t>(i)] * oracle.x[static_cast<size_t>(i)];
      }
      EXPECT_LT(std::sqrt(num / std::max(den, 1e-30)), 1e-6)
          << "column " << j << " diverges from the single-RHS oracle";
    }
  }
}

TEST_P(BlockCgBackend, FixedBlockIsBitwiseInvariantAcrossThreadCounts) {
  const int n = 14;
  const int k = 4;
  CgOptions options;
  options.max_iterations = 80;
  options.tolerance = 1e-10;

  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 4}) {
    la::ScopedBackend scoped(GetParam(), threads);
    BlockQuadratic problem(n, 41);  // rebuilt identically per run
    const MultiVector b = RandomRhs(n, k, 42);
    const BlockCgResult block =
        BlockConjugateGradientSolve(problem.Params(), problem.MakeGradFn(),
                                    problem.MakeBatchGradFn(), b, options);
    std::vector<double> flat;
    for (int j = 0; j < k; ++j) {
      const std::vector<double> col = block.x.Column(j);
      flat.insert(flat.end(), col.begin(), col.end());
      flat.push_back(block.residual_norm[static_cast<size_t>(j)]);
      flat.push_back(static_cast<double>(block.iterations[static_cast<size_t>(j)]));
    }
    runs.push_back(std::move(flat));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_EQ(runs[r][i], runs[0][i]) << "thread-count run " << r << " entry " << i;
    }
  }
}

TEST(BlockCgTest, DeflationRetiresEasyColumnsEarly) {
  // Diagonal Hessian: a single-coordinate RHS lives in a 1-dimensional Krylov
  // space and converges on the first block iteration, while a dense RHS needs
  // one iteration per distinct eigenvalue — so the easy column must deflate
  // out with a strictly smaller per-RHS iteration count.
  const int n = 10;
  BlockQuadratic problem(n, 55);
  problem.a = la::Matrix(n, n);
  for (int i = 0; i < n; ++i) problem.a(i, i) = 1.0 + 0.37 * i;

  MultiVector b(n, 2);
  for (int64_t i = 0; i < n; ++i) b.col(0)[i] = 1.0;  // dense: needs n eigenvalues
  b.col(1)[3] = 2.5;                                  // single coordinate: 1 iteration

  CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;
  const BlockCgResult block =
      BlockConjugateGradientSolve(problem.Params(), problem.MakeGradFn(),
                                  problem.MakeBatchGradFn(), b, options);

  EXPECT_TRUE(block.converged[0]);
  EXPECT_TRUE(block.converged[1]);
  EXPECT_LT(block.iterations[1], block.iterations[0]);
  // Exact solutions of (A + λI) x = b for the diagonal A.
  for (int64_t i = 0; i < n; ++i) {
    const double denom = problem.a(static_cast<int>(i), static_cast<int>(i)) +
                         options.damping;
    EXPECT_NEAR(block.x.col(0)[i], 1.0 / denom, 1e-7) << "dense column entry " << i;
    EXPECT_NEAR(block.x.col(1)[i], (i == 3 ? 2.5 : 0.0) / denom, 1e-7)
        << "sparse column entry " << i;
  }
}

TEST(BlockCgTest, ZeroAndDuplicateColumnsAreExact) {
  const int n = 9;
  BlockQuadratic problem(n, 71);
  const MultiVector base = RandomRhs(n, 2, 72);
  MultiVector b(n, 4);
  // col 0: zero. col 1 and col 3: bitwise duplicates. col 2: independent.
  b.SetColumn(1, base.Column(0));
  b.SetColumn(2, base.Column(1));
  b.SetColumn(3, base.Column(0));

  CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;
  const BlockCgResult block =
      BlockConjugateGradientSolve(problem.Params(), problem.MakeGradFn(),
                                  problem.MakeBatchGradFn(), b, options);

  EXPECT_TRUE(block.converged[0]);
  EXPECT_EQ(block.iterations[0], 0);
  EXPECT_EQ(block.residual_norm[0], 0.0);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(block.x.col(0)[i], 0.0) << "zero RHS must yield the zero solution";
    ASSERT_EQ(block.x.col(1)[i], block.x.col(3)[i])
        << "duplicate RHS columns must share the representative's bits";
  }
  EXPECT_EQ(block.iterations[1], block.iterations[3]);
  EXPECT_EQ(block.residual_norm[1], block.residual_norm[3]);
}

TEST(InfluenceConfigDeathTest, NonPositiveCgBlockDies) {
  EngineFixture fx(nn::ModelKind::kGcn);
  for (int block : {0, -3}) {
    InfluenceConfig cfg;
    cfg.cg_block = block;
    EXPECT_DEATH(
        {
          InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train,
                                   fx.data.labels, cfg);
        },
        "cg_block must be positive");
  }
}

TEST(BlockInfluenceTest, CgBlockOneReproducesSingleRhsOracleBitwise) {
  // On the real GNN pipeline: cg_block = 1 routes every RHS through the
  // single-RHS oracle, so InfluenceOnFunctions must equal the per-function
  // entry points bit for bit.
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/37);
  InfluenceConfig cfg;
  cfg.cg_block = 1;
  // A PD regime where the solve actually converges (the default damping of
  // 0.01 leaves this trained model's Hessian indefinite, and the oracle
  // truncates via its p_ap <= 0 safeguard), so converged_rhs is checkable.
  cfg.cg.damping = 1.0;
  cfg.cg.max_iterations = 300;
  cfg.cg.tolerance = 1e-6;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                           cfg);
  InfluenceCalculator oracle(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             cfg);
  const auto batched = calc.InfluenceOnFunctions({calc.UtilityFunction()});
  const auto single = oracle.InfluenceOnUtility();
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_EQ(batched[0].size(), single.size());
  for (size_t v = 0; v < single.size(); ++v) {
    ASSERT_EQ(batched[0][v], single[v]) << "node " << v;
  }
  EXPECT_EQ(calc.block_stats().total_rhs, 1);
  EXPECT_EQ(calc.block_stats().converged_rhs, 1);
}

TEST(BlockInfluenceTest, BlockedInfluenceMatchesOracleWithinTolerance) {
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/39);
  InfluenceConfig cfg;
  cfg.cg_block = 8;
  // Damping that keeps the trained model's damped Hessian positive definite,
  // so both sides run CONVERGED solves (unconverged truncations of the two
  // Krylov processes would differ arbitrarily).
  cfg.cg.damping = 1.0;
  cfg.cg.max_iterations = 200;
  cfg.cg.tolerance = 1e-9;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                           cfg);
  InfluenceConfig oracle_cfg = cfg;
  oracle_cfg.cg_block = 1;
  InfluenceCalculator oracle(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             oracle_cfg);

  std::vector<int> targets;
  for (int t = 0; t < 12; ++t) targets.push_back(fx.split.train[static_cast<size_t>(t)]);
  const auto blocked = calc.InfluenceOnNodeLosses(targets);
  const auto single = oracle.InfluenceOnNodeLosses(targets);
  ASSERT_EQ(blocked.size(), single.size());
  double max_rel = 0.0;
  for (size_t t = 0; t < blocked.size(); ++t) {
    double num = 0.0;
    double den = 0.0;
    ASSERT_EQ(blocked[t].size(), single[t].size());
    for (size_t v = 0; v < blocked[t].size(); ++v) {
      const double d = blocked[t][v] - single[t][v];
      num += d * d;
      den += single[t][v] * single[t][v];
    }
    max_rel = std::max(max_rel, std::sqrt(num / std::max(den, 1e-30)));
  }
  // Both sides are converged solves of the same systems; they differ only in
  // Krylov-space roundoff, far below the solver tolerance's effect on I.
  EXPECT_LT(max_rel, 1e-4) << "blocked influence sweep diverges from the oracle";
  EXPECT_GT(calc.block_stats().grad_evals, 0);
  EXPECT_EQ(calc.block_stats().total_rhs, static_cast<int>(targets.size()));
}

TEST(BlockInfluenceTest, FixedBlockIsBitwiseInvariantAcrossLaneCounts) {
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/43);
  std::vector<int> targets;
  for (int t = 0; t < 6; ++t) targets.push_back(fx.split.train[static_cast<size_t>(t)]);

  auto run = [&](int lanes) {
    InfluenceConfig cfg;
    cfg.cg_block = 6;
    cfg.tape_pool_lanes = lanes;
    InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             cfg);
    return calc.InfluenceOnNodeLosses(targets);
  };

  const auto want = run(1);
  for (int lanes : {2, 4}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ExpectBitwiseEqual(want, run(lanes));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BlockCgBackend,
                         ::testing::Values(la::BackendKind::kReference,
                                           la::BackendKind::kParallel),
                         [](const ::testing::TestParamInfo<la::BackendKind>& info) {
                           return la::BackendKindName(info.param);
                         });

// ---- Probe replay: gradient correctness ----

TEST(ProbeReplayTest, ProbeGradsMatchCentralDifferencesOfTheLoss) {
  // Gradient correctness, not just parity: at each probe point the pooled
  // probe gradient must reproduce directional central differences of the
  // training loss evaluated from scratch.
  la::ScopedBackend scoped(la::BackendKind::kParallel, 2);
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/59);
  const std::vector<double> theta0 = FlattenValues(fx.model->Params());
  const auto points = ProbePoints(theta0, /*count=*/3, /*seed=*/73);
  const auto grads = ProbeGradsAt(fx, /*pool_lanes=*/2, points);

  std::unique_ptr<nn::GnnModel> clone = fx.model->Clone();
  nn::GnnModel* m = clone.get();
  std::vector<int> labels;
  for (int v : fx.split.train) {
    labels.push_back(fx.data.labels[static_cast<size_t>(v)]);
  }
  const std::vector<double> ones(fx.split.train.size(), 1.0);
  auto loss_at = [&](const std::vector<double>& p) {
    SetValues(m->Params(), p);
    ag::Tape tape;
    ag::Var logits = m->Forward(tape, fx.ctx, nn::ForwardOptions{});
    ag::Var loss =
        ag::WeightedNll(ag::LogSoftmaxRows(logits), fx.split.train, labels, ones,
                        static_cast<double>(fx.split.train.size()));
    return loss.scalar();
  };

  std::mt19937_64 rng(97);
  std::normal_distribution<double> normal(0.0, 1.0);
  const double eps = 1e-5;
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<double> dir(theta0.size());
    double norm = 0.0;
    for (double& d : dir) {
      d = normal(rng);
      norm += d * d;
    }
    norm = std::sqrt(norm);
    std::vector<double> plus = points[i];
    std::vector<double> minus = points[i];
    double want_dot = 0.0;
    for (size_t j = 0; j < dir.size(); ++j) {
      dir[j] /= norm;
      plus[j] += eps * dir[j];
      minus[j] -= eps * dir[j];
      want_dot += grads[i][j] * dir[j];
    }
    const double fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps);
    EXPECT_NEAR(fd, want_dot, 1e-6 * std::max(1.0, std::fabs(fd)))
        << "probe point " << i;
  }
}

}  // namespace
}  // namespace ppfr::influence
