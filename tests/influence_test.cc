#include <gtest/gtest.h>

#include <cmath>

#include "data/split.h"
#include "fairness/bias_metric.h"
#include "influence/hvp.h"
#include "influence/influence.h"
#include "influence/param_vector.h"
#include "la/stats.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr::influence {
namespace {

TEST(ParamVectorTest, FlattenRoundTrip) {
  Rng rng(1);
  ag::Parameter a("a", ppfr::testing::RandomMatrix(2, 3, &rng));
  ag::Parameter b("b", ppfr::testing::RandomMatrix(1, 4, &rng));
  const std::vector<ag::Parameter*> params{&a, &b};
  EXPECT_EQ(TotalParamSize(params), 10);
  std::vector<double> flat = FlattenValues(params);
  EXPECT_EQ(flat.size(), 10u);
  EXPECT_DOUBLE_EQ(flat[0], a.value(0, 0));
  EXPECT_DOUBLE_EQ(flat[6], b.value(0, 0));
  for (auto& v : flat) v += 1.0;
  SetValues(params, flat);
  EXPECT_DOUBLE_EQ(a.value(1, 2), flat[5]);
  EXPECT_DOUBLE_EQ(b.value(0, 3), flat[9]);
}

TEST(ParamVectorTest, VectorAlgebra) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{-1, 0, 2};
  EXPECT_DOUBLE_EQ(VecDot(a, b), 5.0);
  EXPECT_DOUBLE_EQ(VecNorm({3, 4}), 5.0);
  std::vector<double> y{1, 1, 1};
  VecAxpy(2.0, a, &y);
  EXPECT_EQ(y, (std::vector<double>{3, 5, 7}));
}

// Quadratic test bed: L(θ) = ½ θᵀ A θ - bᵀθ with known SPD A, so the exact
// Hessian is A and CG solutions are checkable.
struct QuadraticProblem {
  ag::Parameter theta;
  la::Matrix a;  // SPD matrix (n x n)
  std::vector<double> b;

  explicit QuadraticProblem(int n, uint64_t seed) : theta("theta", la::Matrix(n, 1)) {
    Rng rng(seed);
    la::Matrix m = ppfr::testing::RandomMatrix(n, n, &rng);
    a = la::MatMulTransA(m, m);  // SPD
    for (int i = 0; i < n; ++i) a(i, i) += 1.0;
    b.resize(n);
    for (auto& v : b) v = rng.Normal();
    for (int i = 0; i < n; ++i) theta.value(i, 0) = rng.Normal();
  }

  GradFn MakeGradFn() {
    return [this]() {
      // grad = A θ - b
      std::vector<double> g(a.rows());
      for (int i = 0; i < a.rows(); ++i) {
        double s = -b[i];
        for (int j = 0; j < a.cols(); ++j) s += a(i, j) * theta.value(j, 0);
        g[i] = s;
      }
      return g;
    };
  }
};

TEST(HvpTest, MatchesExactHessianOnQuadratic) {
  QuadraticProblem problem(6, 3);
  Rng rng(4);
  std::vector<double> v(6);
  for (auto& x : v) x = rng.Normal();
  const std::vector<double> hv =
      HessianVectorProduct({&problem.theta}, problem.MakeGradFn(), v);
  for (int i = 0; i < 6; ++i) {
    double want = 0;
    for (int j = 0; j < 6; ++j) want += problem.a(i, j) * v[j];
    EXPECT_NEAR(hv[i], want, 1e-5 * std::max(1.0, std::fabs(want)));
  }
}

TEST(HvpTest, ZeroVectorGivesZero) {
  QuadraticProblem problem(4, 5);
  const std::vector<double> hv = HessianVectorProduct(
      {&problem.theta}, problem.MakeGradFn(), std::vector<double>(4, 0.0));
  for (double x : hv) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(HvpTest, RestoresParameters) {
  QuadraticProblem problem(5, 6);
  const std::vector<double> before = FlattenValues({&problem.theta});
  Rng rng(7);
  std::vector<double> v(5);
  for (auto& x : v) x = rng.Normal();
  HessianVectorProduct({&problem.theta}, problem.MakeGradFn(), v);
  const std::vector<double> after = FlattenValues({&problem.theta});
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(CgTest, SolvesDampedSystemOnQuadratic) {
  QuadraticProblem problem(8, 8);
  Rng rng(9);
  std::vector<double> rhs(8);
  for (auto& x : rhs) x = rng.Normal();
  CgOptions options;
  options.damping = 0.5;
  options.max_iterations = 100;
  options.tolerance = 1e-10;
  const CgResult result =
      ConjugateGradientSolve({&problem.theta}, problem.MakeGradFn(), rhs, options);
  // Verify (A + λI) x == b directly.
  for (int i = 0; i < 8; ++i) {
    double lhs = options.damping * result.x[i];
    for (int j = 0; j < 8; ++j) lhs += problem.a(i, j) * result.x[j];
    EXPECT_NEAR(lhs, rhs[i], 1e-3);
  }
}

// The Pearson r each model's leave-one-out check must stay under. Measured
// on this fixture: GCN -0.93, GAT -0.53, SAGE -0.95, identical to four
// decimals under every backend and thread count. The gates sit about 0.13
// looser, so they catch a broken estimate, not rounding.
double LeaveOneOutGate(nn::ModelKind kind) {
  switch (kind) {
    case nn::ModelKind::kGcn:
      return -0.8;
    case nn::ModelKind::kGat:
      return -0.4;
    case nn::ModelKind::kGraphSage:
      return -0.8;
  }
  return 0.0;
}

class LeaveOneOut : public ::testing::TestWithParam<nn::ModelKind> {};

// End-to-end: influence scores must anti-correlate with actual
// leave-one-out retraining effects (the returned quantity is the
// upweighting derivative; leaving out = downweighting). SAGE trains at full
// fanout, so its training loss is the deterministic full-mean loss the
// influence engine differentiates.
TEST_P(LeaveOneOut, PredictsLeaveOneOutBiasChange) {
  const auto data = ppfr::testing::SmallSbm(21, 150, 3);
  auto ctx = nn::GraphContext::Build(data.graph, data.features);
  const auto split = data::MakeSplit(data.graph.num_nodes(), 40, 0, 3);
  const fairness::SimilarityContext sim =
      fairness::SimilarityContext::FromGraph(data.graph);

  nn::TrainConfig train_cfg;
  train_cfg.epochs = 100;
  train_cfg.sage_fanout = nn::kAllNeighbors;
  auto train_on = [&](const std::vector<int>& nodes) {
    auto model = nn::MakeModel(GetParam(), ctx.feature_dim(), data.num_classes, 5);
    nn::Train(model.get(), ctx, nodes, data.labels, train_cfg);
    return model;
  };
  auto model = train_on(split.train);
  const double bias0 =
      fairness::RawBias(la::SoftmaxRows(model->Logits(ctx)), *sim.laplacian);

  InfluenceCalculator calc(model.get(), ctx, split.train, data.labels,
                           InfluenceConfig{});
  const std::vector<double> influence = calc.InfluenceOnBias(sim.laplacian);
  ASSERT_EQ(influence.size(), split.train.size());

  std::vector<double> predicted, actual;
  for (size_t k = 0; k < split.train.size(); k += 4) {
    std::vector<int> loo = split.train;
    loo.erase(loo.begin() + static_cast<int64_t>(k));
    auto retrained = train_on(loo);
    actual.push_back(
        fairness::RawBias(la::SoftmaxRows(retrained->Logits(ctx)), *sim.laplacian) -
        bias0);
    predicted.push_back(influence[k]);
  }
  const double r = la::PearsonCorrelation(predicted, actual);
  EXPECT_LT(r, LeaveOneOutGate(GetParam()))
      << "leave-out changes should anti-correlate with the upweighting derivative, "
         "got r = "
      << r;
}

INSTANTIATE_TEST_SUITE_P(Models, LeaveOneOut,
                         ::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                           nn::ModelKind::kGraphSage),
                         [](const ::testing::TestParamInfo<nn::ModelKind>& info) {
                           return nn::ModelKindName(info.param);
                         });

TEST(InfluenceTest, UtilityInfluenceHasPlausibleScale) {
  const auto data = ppfr::testing::SmallSbm(22, 120, 3);
  auto ctx = nn::GraphContext::Build(data.graph, data.features);
  const auto split = data::MakeSplit(data.graph.num_nodes(), 30, 0, 3);
  auto model =
      nn::MakeModel(nn::ModelKind::kGcn, ctx.feature_dim(), data.num_classes, 5);
  nn::TrainConfig train_cfg;
  train_cfg.epochs = 80;
  nn::Train(model.get(), ctx, split.train, data.labels, train_cfg);

  InfluenceCalculator calc(model.get(), ctx, split.train, data.labels,
                           InfluenceConfig{});
  const std::vector<double> util = calc.InfluenceOnUtility();
  ASSERT_EQ(util.size(), split.train.size());
  double max_abs = 0;
  for (double u : util) {
    ASSERT_TRUE(std::isfinite(u));
    max_abs = std::max(max_abs, std::fabs(u));
  }
  EXPECT_GT(max_abs, 0.0);
  EXPECT_LT(max_abs, 1e4);
}

TEST(InfluenceTest, RiskInfluenceIsFiniteAndNonDegenerate) {
  const auto data = ppfr::testing::SmallSbm(23, 120, 3);
  auto ctx = nn::GraphContext::Build(data.graph, data.features);
  const auto split = data::MakeSplit(data.graph.num_nodes(), 30, 0, 3);
  auto model =
      nn::MakeModel(nn::ModelKind::kGcn, ctx.feature_dim(), data.num_classes, 5);
  nn::TrainConfig train_cfg;
  train_cfg.epochs = 80;
  nn::Train(model.get(), ctx, split.train, data.labels, train_cfg);
  const privacy::PairSample pairs = privacy::SamplePairs(data.graph, 150, 7);

  InfluenceCalculator calc(model.get(), ctx, split.train, data.labels,
                           InfluenceConfig{});
  const std::vector<double> risk = calc.InfluenceOnRisk(pairs);
  int nonzero = 0;
  for (double x : risk) {
    ASSERT_TRUE(std::isfinite(x));
    nonzero += std::fabs(x) > 1e-12;
  }
  EXPECT_GT(nonzero, static_cast<int>(risk.size()) / 2);
}

}  // namespace
}  // namespace ppfr::influence
