#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "data/datasets.h"
#include "privacy/attack/link_stealing.h"
#include "privacy/attack/pair_sampler.h"
#include "privacy/defense/edge_rand.h"
#include "privacy/defense/heterophilic_perturbation.h"
#include "privacy/defense/lap_graph.h"
#include "privacy/defense/lap_graph_internal.h"
#include "privacy/distance.h"
#include "privacy/risk_metric.h"
#include "test_util.h"

namespace ppfr::privacy {
namespace {

using ::ppfr::testing::SmallSbm;

std::vector<std::pair<int, int>> EdgeList(const graph::Graph& g) {
  std::vector<std::pair<int, int>> out;
  for (const graph::Edge& e : g.Edges()) out.emplace_back(e.u, e.v);
  return out;
}

TEST(DistanceTest, KnownValues) {
  const std::vector<double> a{1, 0, 0};
  const std::vector<double> b{0, 1, 0};
  EXPECT_NEAR(Distance(DistanceKind::kCosine, a, b), 1.0, 1e-12);
  EXPECT_NEAR(Distance(DistanceKind::kEuclidean, a, b), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(Distance(DistanceKind::kSqeuclidean, a, b), 2.0, 1e-12);
  EXPECT_NEAR(Distance(DistanceKind::kChebyshev, a, b), 1.0, 1e-12);
  EXPECT_NEAR(Distance(DistanceKind::kCityblock, a, b), 2.0, 1e-12);
  EXPECT_NEAR(Distance(DistanceKind::kBraycurtis, a, b), 1.0, 1e-12);
  EXPECT_NEAR(Distance(DistanceKind::kCanberra, a, b), 2.0, 1e-12);
}

class DistancePropertySweep : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(DistancePropertySweep, IdentityAndSymmetryAndNonNegativity) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(5), b(5);
    for (auto& x : a) x = 0.05 + rng.Uniform();  // positive, probability-like
    for (auto& x : b) x = 0.05 + rng.Uniform();
    const double dab = Distance(GetParam(), a, b);
    const double dba = Distance(GetParam(), b, a);
    EXPECT_NEAR(dab, dba, 1e-12);
    EXPECT_GE(dab, 0.0);
    EXPECT_NEAR(Distance(GetParam(), a, a), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DistancePropertySweep, ::testing::ValuesIn(AllDistanceKinds()),
    [](const auto& info) { return DistanceName(info.param); });

TEST(PairSamplerTest, PositivesAreEdgesNegativesAreNot) {
  const auto data = SmallSbm(1, 100, 3);
  const PairSample pairs = SamplePairs(data.graph, 50, 7);
  EXPECT_EQ(pairs.connected.size(), pairs.unconnected.size());
  EXPECT_LE(pairs.connected.size(), 50u);
  for (const auto& [u, v] : pairs.connected) EXPECT_TRUE(data.graph.HasEdge(u, v));
  for (const auto& [u, v] : pairs.unconnected) {
    EXPECT_FALSE(data.graph.HasEdge(u, v));
    EXPECT_NE(u, v);
  }
}

TEST(PairSamplerTest, UsesAllEdgesWhenBelowCap) {
  const auto data = SmallSbm(2, 60, 3);
  const PairSample pairs =
      SamplePairs(data.graph, static_cast<int>(data.graph.num_edges()) + 100, 7);
  EXPECT_EQ(static_cast<int64_t>(pairs.connected.size()), data.graph.num_edges());
}

TEST(LinkStealingTest, RandomPredictionsGiveChanceAuc) {
  const auto data = SmallSbm(3, 150, 3);
  const PairSample pairs = SamplePairs(data.graph, 400, 11);
  Rng rng(5);
  la::Matrix probs(data.graph.num_nodes(), 3);
  for (int v = 0; v < probs.rows(); ++v) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) {
      probs(v, c) = 0.01 + rng.Uniform();
      sum += probs(v, c);
    }
    for (int c = 0; c < 3; ++c) probs(v, c) /= sum;
  }
  const AttackResult result = LinkStealingAttack(probs, pairs);
  EXPECT_NEAR(result.mean_auc, 0.5, 0.08);
}

TEST(LinkStealingTest, HomophilousOneHotPredictionsLeakEdges) {
  const auto data = SmallSbm(4, 150, 3);
  const PairSample pairs = SamplePairs(data.graph, 400, 11);
  // Predictions = smoothed one-hot labels: connected nodes mostly share a
  // class, so their distances are small -> attack succeeds.
  la::Matrix probs(data.graph.num_nodes(), 3, 0.05);
  for (int v = 0; v < probs.rows(); ++v) probs(v, data.labels[v]) = 0.9;
  const AttackResult result = LinkStealingAttack(probs, pairs);
  EXPECT_GT(result.mean_auc, 0.7);
  EXPECT_GT(result.cluster_f1, 0.6);
  EXPECT_EQ(result.auc_per_distance.size(), AllDistanceKinds().size());
}

TEST(RiskMetricTest, DeltaDZeroForIdenticalDistributions) {
  const auto data = SmallSbm(5, 100, 3);
  const PairSample pairs = SamplePairs(data.graph, 100, 3);
  la::Matrix uniform(data.graph.num_nodes(), 3, 1.0 / 3);
  EXPECT_NEAR(DeltaD(uniform, pairs, DistanceKind::kCosine), 0.0, 1e-12);
}

TEST(RiskMetricTest, SurrogateMatchesNumericDefinition) {
  const auto data = SmallSbm(6, 100, 3);
  const PairSample pairs = SamplePairs(data.graph, 200, 3);
  Rng rng(9);
  const la::Matrix logits =
      ppfr::testing::RandomMatrix(data.graph.num_nodes(), 3, &rng);
  ag::Tape tape;
  ag::Var logits_var = tape.Constant(logits);
  // Constant input -> needs a leaf somewhere for Backward, but value-only
  // comparison works without backward.
  const double surrogate =
      RiskSurrogate(tape, logits_var, pairs).value()(0, 0);
  const double reference = NormalizedDeltaD(la::SoftmaxRows(logits), pairs,
                                            DistanceKind::kSqeuclidean);
  EXPECT_NEAR(surrogate, reference, 1e-6 * std::max(1.0, reference));
}

TEST(EdgeRandTest, FlipProbabilityFormula) {
  EXPECT_NEAR(EdgeRandFlipProbability(std::log(3.0)), 0.5, 1e-12);
  EXPECT_GT(EdgeRandFlipProbability(1.0), EdgeRandFlipProbability(5.0));
}

TEST(EdgeRandTest, HighEpsilonPreservesGraph) {
  const auto data = SmallSbm(7, 120, 3);
  const graph::Graph noisy = EdgeRand(data.graph, 20.0, 3);
  // s = 2/(1+e^20) ~ 4e-9: expect essentially no flips.
  EXPECT_EQ(noisy.num_edges(), data.graph.num_edges());
}

TEST(EdgeRandTest, FlipCountMatchesRate) {
  const auto data = SmallSbm(8, 150, 3);
  const double eps = 6.0;
  const graph::Graph noisy = EdgeRand(data.graph, eps, 5);
  // Count differing cells between the two edge sets.
  int64_t flips = 0;
  for (const auto& e : data.graph.Edges()) flips += !noisy.HasEdge(e.u, e.v);
  for (const auto& e : noisy.Edges()) flips += !data.graph.HasEdge(e.u, e.v);
  const int64_t n = data.graph.num_nodes();
  const double expected = EdgeRandFlipProbability(eps) * (n * (n - 1) / 2.0);
  EXPECT_NEAR(static_cast<double>(flips), expected, 4.0 * std::sqrt(expected) + 5.0);
}

TEST(EdgeRandTest, DeterministicInSeed) {
  const auto data = SmallSbm(9, 100, 3);
  const graph::Graph a = EdgeRand(data.graph, 4.0, 11);
  const graph::Graph b = EdgeRand(data.graph, 4.0, 11);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (const auto& e : a.Edges()) EXPECT_TRUE(b.HasEdge(e.u, e.v));
}

// Above ε ≈ 43 the geometric skip passes 2^63; the walk must stop on it as a
// double instead of wrapping the cursor into garbage pairs.
TEST(EdgeRandTest, HugeEpsilonReturnsTheInputGraph) {
  const auto data = SmallSbm(15, 300, 3);
  for (const double eps : {43.0, 50.0, 100.0, 700.0}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      EXPECT_EQ(EdgeList(EdgeRand(data.graph, eps, seed)), EdgeList(data.graph))
          << "eps " << eps << " seed " << seed;
    }
  }
}

// LapGraph as it was before the selection streamed: every noisy cell stored,
// then nth_element. The test-local oracle for the streamed selection. It
// also asserts that the |E|-th and (|E|+1)-th scores differ, the case in
// which the kept set does not depend on how ties are broken.
graph::Graph FullCellSelection(const graph::Graph& g, double epsilon, uint64_t seed) {
  const int n = g.num_nodes();
  const int64_t num_pairs = static_cast<int64_t>(n) * (n - 1) / 2;
  const int64_t num_edges = g.num_edges();
  Rng rng(seed);
  struct Cell {
    double score;
    int u;
    int v;
  };
  std::vector<Cell> cells;
  cells.reserve(num_pairs);
  const double scale = 1.0 / epsilon;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double base = g.HasEdge(u, v) ? 1.0 : 0.0;
      cells.push_back({base + rng.Laplace(scale), u, v});
    }
  }

  const int64_t keep = std::min<int64_t>(num_edges, num_pairs);
  std::nth_element(cells.begin(), cells.begin() + keep, cells.end(),
                   [](const Cell& a, const Cell& b) { return a.score > b.score; });
  if (keep > 0 && keep < num_pairs) {
    const double last_kept =
        std::min_element(cells.begin(), cells.begin() + keep,
                         [](const Cell& a, const Cell& b) { return a.score < b.score; })
            ->score;
    EXPECT_NE(last_kept, cells[keep].score) << "a tie at the selection boundary";
  }
  std::vector<graph::Edge> edges;
  edges.reserve(keep);
  for (int64_t i = 0; i < keep; ++i) edges.push_back({cells[i].u, cells[i].v});
  return graph::Graph::FromEdges(n, edges);
}

TEST(LapGraphTest, SameEdgesAsFullCellSelection) {
  for (const uint64_t graph_seed : {10, 16}) {
    const auto data = SmallSbm(graph_seed, 150, 3);
    for (const double eps : {0.1, 1.0, 4.0, 50.0}) {
      for (const uint64_t seed : {uint64_t{3}, uint64_t{7 ^ 0xd9}, uint64_t{99}}) {
        EXPECT_EQ(EdgeList(LapGraph(data.graph, eps, seed)),
                  EdgeList(FullCellSelection(data.graph, eps, seed)))
            << "graph " << graph_seed << " eps " << eps << " seed " << seed;
      }
    }
  }
  // table4's PubmedLike DP context: 3,000 nodes, ε = 4, seed 7 ^ 0xd9.
  const graph::Graph pubmed =
      data::GenerateSbm(data::DatasetConfig(data::DatasetId::kPubmedLike),
                        core::kDefaultEnvSeed)
          .graph;
  ASSERT_EQ(pubmed.num_nodes(), 3000);
  EXPECT_EQ(EdgeList(LapGraph(pubmed, 4.0, 7 ^ 0xd9)),
            EdgeList(FullCellSelection(pubmed, 4.0, 7 ^ 0xd9)));
}

TEST(LapGraphTest, EdgelessAndTinyGraphsStayEdgeless) {
  for (const int n : {0, 1, 2, 40}) {
    const graph::Graph out = LapGraph(graph::Graph::FromEdges(n, {}), 1.0, 5);
    EXPECT_EQ(out.num_nodes(), n);
    EXPECT_EQ(out.num_edges(), 0) << "n " << n;
  }
  // keep = n(n-1)/2: the one cell of a 2-node graph is kept at any ε.
  const graph::Graph pair = LapGraph(graph::Graph::FromEdges(2, {{0, 1}}), 0.1, 5);
  EXPECT_EQ(EdgeList(pair), (std::vector<std::pair<int, int>>{{0, 1}}));
}

// The selection order with crafted scores: score descending, then pair index
// ascending, whatever order the cells are offered in.
TEST(LapGraphTest, SelectionBreaksTiesByPairIndex) {
  using internal::OfferCell;
  using internal::ScoredCell;
  const auto kept_indices = [](const std::vector<ScoredCell>& kept) {
    std::vector<int64_t> out;
    for (const ScoredCell& c : kept) out.push_back(c.index);
    std::sort(out.begin(), out.end());
    return out;
  };
  // Three cells tie at the boundary score 0.5; the lowest index wins.
  std::vector<ScoredCell> kept;
  for (const ScoredCell& c : {ScoredCell{0.5, 6, 0, 0}, ScoredCell{2.0, 9, 0, 0},
                              ScoredCell{0.5, 4, 0, 0}, ScoredCell{-1.0, 0, 0, 0},
                              ScoredCell{0.5, 5, 0, 0}}) {
    OfferCell(c, 2, &kept);
  }
  EXPECT_EQ(kept_indices(kept), (std::vector<int64_t>{4, 9}));

  // keep == 0 keeps nothing.
  kept.clear();
  OfferCell({1.0, 0, 0, 1}, 0, &kept);
  EXPECT_TRUE(kept.empty());

  // Streams full of ties against a full sort under the same order.
  Rng rng(21);
  for (const size_t keep : {size_t{1}, size_t{7}, size_t{50}, size_t{200}}) {
    std::vector<ScoredCell> stream;
    for (int64_t i = 0; i < 200; ++i) {
      stream.push_back({static_cast<double>(rng.UniformInt(5)), i, 0, 0});
    }
    rng.Shuffle(&stream);
    kept.clear();
    for (const ScoredCell& c : stream) OfferCell(c, keep, &kept);
    std::sort(stream.begin(), stream.end(), internal::RanksAbove);
    stream.resize(keep);
    EXPECT_EQ(kept_indices(kept), kept_indices(stream)) << "keep " << keep;
  }
}

TEST(LapGraphTest, KeepsEdgeBudget) {
  const auto data = SmallSbm(10, 100, 3);
  const graph::Graph noisy = LapGraph(data.graph, 4.0, 3);
  EXPECT_EQ(noisy.num_edges(), data.graph.num_edges());
}

TEST(LapGraphTest, HighEpsilonRecoversOriginalEdges) {
  const auto data = SmallSbm(11, 100, 3);
  const graph::Graph noisy = LapGraph(data.graph, 50.0, 3);
  int64_t preserved = 0;
  for (const auto& e : data.graph.Edges()) preserved += noisy.HasEdge(e.u, e.v);
  EXPECT_GT(static_cast<double>(preserved),
            0.95 * static_cast<double>(data.graph.num_edges()));
}

TEST(LapGraphTest, LowEpsilonDestroysStructure) {
  const auto data = SmallSbm(12, 100, 3);
  const graph::Graph noisy = LapGraph(data.graph, 0.1, 3);
  int64_t preserved = 0;
  for (const auto& e : data.graph.Edges()) preserved += noisy.HasEdge(e.u, e.v);
  // At eps=0.1 the Laplace noise dominates: most kept cells are random.
  EXPECT_LT(static_cast<double>(preserved),
            0.5 * static_cast<double>(data.graph.num_edges()));
}

TEST(HeterophilicPerturbationTest, ZeroGammaIsIdentity) {
  const auto data = SmallSbm(13, 100, 3);
  const graph::Graph out =
      AddHeterophilicEdges(data.graph, data.labels, 0.0, 3);
  EXPECT_EQ(out.num_edges(), data.graph.num_edges());
}

TEST(HeterophilicPerturbationTest, AddsOnlyCrossLabelNonEdges) {
  const auto data = SmallSbm(14, 120, 3);
  const std::vector<int>& predicted = data.labels;
  const graph::Graph out = AddHeterophilicEdges(data.graph, predicted, 0.5, 3);
  EXPECT_GT(out.num_edges(), data.graph.num_edges());
  for (const auto& e : out.Edges()) {
    if (data.graph.HasEdge(e.u, e.v)) continue;  // original edge
    EXPECT_NE(predicted[e.u], predicted[e.v])
        << "added edge must be heterophilic: (" << e.u << "," << e.v << ")";
  }
}

TEST(HeterophilicPerturbationTest, BudgetScalesWithGamma) {
  const auto data = SmallSbm(15, 150, 3);
  const graph::Graph small = AddHeterophilicEdges(data.graph, data.labels, 0.3, 3);
  const graph::Graph large = AddHeterophilicEdges(data.graph, data.labels, 1.0, 3);
  const int64_t added_small = small.num_edges() - data.graph.num_edges();
  const int64_t added_large = large.num_edges() - data.graph.num_edges();
  EXPECT_GT(added_large, 2 * added_small);
  // γ=1 adds about one heterophilic edge per existing edge endpoint (some
  // collisions are deduplicated, so allow slack).
  EXPECT_GT(static_cast<double>(added_large),
            0.6 * static_cast<double>(data.graph.num_edges()));
}

TEST(HeterophilicPerturbationTest, ReducesHomophily) {
  const auto data = SmallSbm(16, 150, 3);
  const graph::Graph out = AddHeterophilicEdges(data.graph, data.labels, 1.0, 3);
  EXPECT_LT(out.EdgeHomophily(data.labels), data.graph.EdgeHomophily(data.labels));
}

}  // namespace
}  // namespace ppfr::privacy
