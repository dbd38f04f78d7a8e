#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "data/sbm.h"
#include "graph/graph.h"
#include "graph/graph_ops.h"
#include "graph/jaccard.h"
#include "la/backend.h"
#include "test_util.h"

namespace ppfr::graph {
namespace {

using ::ppfr::testing::ExpectSameCsrBits;
using ::ppfr::testing::SmallGraph;

TEST(GraphTest, FromEdgesCanonicalizes) {
  // Duplicates, reversed duplicates and self-loops all collapse.
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {3, 1}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, NeighborsSortedAndDegreesMatch) {
  const Graph g = SmallGraph();
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.Degree(0), 4);
  EXPECT_EQ(g.Degree(4), 1);
  EXPECT_EQ(g.Degree(5), 0);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 6 / 6);
}

TEST(GraphTest, EdgeHomophily) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}, {0, 2}});
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(g.EdgeHomophily(labels), 2.0 / 3.0);
}

TEST(GraphOpsTest, GcnNormalizedAdjacencyIsSymmetricWithSelfLoops) {
  const Graph g = SmallGraph();
  const la::CsrMatrix a = GcnNormalizedAdjacency(g);
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_GT(a.At(i, i), 0.0);  // self loop
    for (int j = 0; j < g.num_nodes(); ++j) {
      EXPECT_NEAR(a.At(i, j), a.At(j, i), 1e-14);
    }
  }
  // Known value: edge (4, 0), deg(4)=1, deg(0)=4 -> 1/sqrt(2)/sqrt(5).
  EXPECT_NEAR(a.At(4, 0), 1.0 / std::sqrt(2.0 * 5.0), 1e-14);
}

TEST(GraphOpsTest, MeanAggregationRowsSumToOneExceptIsolated) {
  const Graph g = SmallGraph();
  const la::CsrMatrix m = MeanAggregationMatrix(g);
  la::Matrix ones(g.num_nodes(), 1, 1.0);
  const la::Matrix row_sums = m.Multiply(ones);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(row_sums(i, 0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(row_sums(5, 0), 0.0);  // isolated node 5
}

TEST(GraphOpsTest, SampledMeanAggregationRespectsFanout) {
  const auto data = ppfr::testing::SmallSbm(7, 100, 2);
  Rng rng(5);
  const la::CsrMatrix m = SampledMeanAggregationMatrix(data.graph, 3, &rng);
  for (int i = 0; i < data.graph.num_nodes(); ++i) {
    const int64_t nnz_row = m.row_ptr()[i + 1] - m.row_ptr()[i];
    EXPECT_LE(nnz_row, 3);
    if (data.graph.Degree(i) > 0) {
      EXPECT_GT(nnz_row, 0);
      double sum = 0.0;
      for (int64_t k = m.row_ptr()[i]; k < m.row_ptr()[i + 1]; ++k) {
        sum += m.values()[k];
        // Sampled columns must be true neighbours.
        EXPECT_TRUE(data.graph.HasEdge(i, m.col_idx()[k]));
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

// The sampled mean operator built from triplets, the oracle for the direct
// CSR build: each row's (sampled) neighbours at weight 1/count, sorted by
// FromTriplets.
la::CsrMatrix TripletSampledMean(const Graph& g, int fanout, Rng* rng) {
  std::vector<la::Triplet> triplets;
  for (int v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.Neighbors(v);
    const int deg = static_cast<int>(nbrs.size());
    if (deg == 0) continue;
    if (deg <= fanout) {
      for (int u : nbrs) triplets.push_back({v, u, 1.0 / deg});
    } else {
      for (int idx : rng->SampleWithoutReplacement(deg, fanout)) {
        triplets.push_back({v, nbrs[idx], 1.0 / fanout});
      }
    }
  }
  return la::CsrMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(triplets));
}

// The direct CSR build gives the same bits and draws the same random
// numbers as the triplet build, for a fanout that samples most rows and one
// above the largest degree that samples none.
TEST(GraphOpsTest, SampledMeanAggregationEqualsTripletBuild) {
  const auto data = ppfr::testing::SmallSbm(7, 300, 2);
  const Graph& g = data.graph;
  int max_degree = 0;
  for (int v = 0; v < g.num_nodes(); ++v) max_degree = std::max(max_degree, g.Degree(v));
  for (const int fanout : {2, max_degree + 1}) {
    SCOPED_TRACE("fanout=" + std::to_string(fanout));
    Rng want_rng(11), got_rng(11);
    ExpectSameCsrBits(SampledMeanAggregationMatrix(g, fanout, &got_rng),
                      TripletSampledMean(g, fanout, &want_rng));
    EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64());
  }
}

// The GCN and mean operators built from triplets, the oracles for the direct
// CSR builds: the same products, summed and sorted by FromTriplets.
la::CsrMatrix TripletGcn(const Graph& g) {
  std::vector<double> inv_sqrt_deg(g.num_nodes());
  for (int v = 0; v < g.num_nodes(); ++v) {
    inv_sqrt_deg[v] = 1.0 / std::sqrt(static_cast<double>(g.Degree(v)) + 1.0);
  }
  std::vector<la::Triplet> triplets;
  for (int v = 0; v < g.num_nodes(); ++v) {
    triplets.push_back({v, v, inv_sqrt_deg[v] * inv_sqrt_deg[v]});
    for (int u : g.Neighbors(v)) triplets.push_back({v, u, inv_sqrt_deg[v] * inv_sqrt_deg[u]});
  }
  return la::CsrMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(triplets));
}

la::CsrMatrix TripletMean(const Graph& g) {
  std::vector<la::Triplet> triplets;
  for (int v = 0; v < g.num_nodes(); ++v) {
    for (int u : g.Neighbors(v)) triplets.push_back({v, u, 1.0 / g.Degree(v)});
  }
  return la::CsrMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(triplets));
}

// The direct CSR builds merge the self-loop into each sorted row: first in
// rows 0 and 1, inside rows 2 and 4, last in row 5; rows 3 and 6 are
// isolated (a lone self-loop for Â, an empty row for the mean). Rows are
// written in parallel, so the 5000-node graph, several row chunks, runs at 1
// and 4 backend threads.
TEST(GraphOpsTest, DirectGcnAndMeanOperatorsEqualTripletBuilds) {
  const Graph edge_cases =
      Graph::FromEdges(7, {{0, 2}, {0, 4}, {1, 2}, {2, 5}, {4, 5}});
  const auto sbm = ppfr::testing::SmallSbm(7, 300, 2);
  const auto large = ppfr::testing::SmallSbm(7, 5000, 2);
  for (const int threads : {1, 4}) {
    la::ScopedBackend scoped(la::BackendKind::kParallel, threads);
    for (const Graph* g : {&edge_cases, &sbm.graph, &large.graph}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " nodes=" + std::to_string(g->num_nodes()));
      ExpectSameCsrBits(GcnNormalizedAdjacency(*g), TripletGcn(*g));
      ExpectSameCsrBits(MeanAggregationMatrix(*g), TripletMean(*g));
    }
  }
  const la::CsrMatrix gcn = GcnNormalizedAdjacency(edge_cases);
  EXPECT_EQ(gcn.row_ptr()[4] - gcn.row_ptr()[3], 1);
  EXPECT_EQ(gcn.col_idx()[static_cast<size_t>(gcn.row_ptr()[3])], 3);
  const la::CsrMatrix mean = MeanAggregationMatrix(edge_cases);
  EXPECT_EQ(mean.row_ptr()[7] - mean.row_ptr()[6], 0);
}

TEST(GraphOpsTest, BfsHopsOnPathGraph) {
  const Graph path = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<int> hops = BfsHops(path, 0, 10);
  EXPECT_EQ(hops, (std::vector<int>{0, 1, 2, 3, 4}));
  // Capped BFS marks everything beyond the cap as cap + 1.
  const std::vector<int> capped = BfsHops(path, 0, 2);
  EXPECT_EQ(capped[3], 3);
  EXPECT_EQ(capped[4], 3);
}

TEST(GraphOpsTest, HopDistanceHandlesDisconnected) {
  const Graph g = SmallGraph();
  EXPECT_EQ(HopDistance(g, 0, 1, 5), 1);
  EXPECT_EQ(HopDistance(g, 4, 3, 5), 2);
  EXPECT_EQ(HopDistance(g, 0, 5, 5), 6);  // isolated -> cap + 1
}

TEST(JaccardTest, KnownValuesOnSquareGraph) {
  // Square 0-1-2-3 with diagonal 0-2, pendant 4-0 (closed neighbourhoods).
  const Graph g = SmallGraph();
  const la::CsrMatrix s = JaccardSimilarity(g);
  // N[0] = {0,1,2,3,4}, N[1] = {0,1,2}: inter {0,1,2} = 3, union 5 -> 0.6.
  EXPECT_NEAR(s.At(0, 1), 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(s.At(1, 0), 3.0 / 5.0, 1e-12);
  // N[1] = {0,1,2}, N[3] = {0,2,3}: inter {0,2} = 2, union 4 -> 0.5.
  EXPECT_NEAR(s.At(1, 3), 0.5, 1e-12);
  // Diagonal excluded.
  EXPECT_DOUBLE_EQ(s.At(2, 2), 0.0);
  // Isolated node has no similarity entries.
  for (int j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(s.At(5, j), 0.0);
}

// Lemma V.1: S_ij > 0 exactly when hop(i, j) <= 2 (closed neighbourhoods).
class JaccardLemmaSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JaccardLemmaSweep, PositiveIffWithinTwoHops) {
  const auto data = ppfr::testing::SmallSbm(GetParam(), 80, 3);
  const Graph& g = data.graph;
  const la::CsrMatrix s = JaccardSimilarity(g);
  for (int i = 0; i < g.num_nodes(); ++i) {
    const std::vector<int> hops = BfsHops(g, i, 3);
    for (int j = 0; j < g.num_nodes(); ++j) {
      if (i == j) continue;
      const double sij = s.At(i, j);
      if (hops[j] <= 2) {
        EXPECT_GT(sij, 0.0) << "hop(" << i << "," << j << ")=" << hops[j];
        EXPECT_LE(sij, 1.0);
      } else {
        EXPECT_DOUBLE_EQ(sij, 0.0) << "hop(" << i << "," << j << ")=" << hops[j];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardLemmaSweep, ::testing::Values(1ull, 2ull, 3ull));

TEST(JaccardTest, SimilarityIsSymmetric) {
  const auto data = ppfr::testing::SmallSbm(9, 100, 3);
  const la::CsrMatrix s = JaccardSimilarity(data.graph);
  for (int i = 0; i < s.rows(); ++i) {
    for (int64_t k = s.row_ptr()[i]; k < s.row_ptr()[i + 1]; ++k) {
      EXPECT_NEAR(s.values()[k], s.At(s.col_idx()[k], i), 1e-14);
    }
  }
}

TEST(JaccardTest, LaplacianRowsSumToZero) {
  const auto data = ppfr::testing::SmallSbm(10, 90, 3);
  const la::CsrMatrix s = JaccardSimilarity(data.graph);
  const la::CsrMatrix lap = SimilarityLaplacian(s);
  la::Matrix ones(lap.rows(), 1, 1.0);
  const la::Matrix row_sums = lap.Multiply(ones);
  for (int i = 0; i < lap.rows(); ++i) EXPECT_NEAR(row_sums(i, 0), 0.0, 1e-10);
}

TEST(JaccardTest, LaplacianQuadraticFormIsNonNegative) {
  const auto data = ppfr::testing::SmallSbm(11, 90, 3);
  const la::CsrMatrix lap = SimilarityLaplacian(JaccardSimilarity(data.graph));
  Rng rng(1);
  const la::Matrix y = ppfr::testing::RandomMatrix(lap.rows(), 4, &rng);
  const la::Matrix ly = lap.Multiply(y);
  EXPECT_GE(la::Dot(y, ly), -1e-9);
}

}  // namespace
}  // namespace ppfr::graph
