// Tests for the scale axis's data layer: the streamed power-law block-model
// generator (data/scale_gen) and the bounded-peak-memory CSR builder
// (graph/csr_builder). The load-bearing properties: every stream is a pure
// function of (config, seed), replays bit-identically and equals the
// per-draw std::pow formula, batched vector ranks included; the two-pass CSR
// build produces the same structure as the edge-list path for any part
// split and backend thread count; the hardening contracts (non-finite
// configs, node-count ceiling, endpoint bounds, replay mismatch) abort with
// messages naming their limits.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/scale_gen.h"
#include "data/scale_gen_internal.h"
#include "graph/csr_builder.h"
#include "graph/graph.h"
#include "la/backend.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"
#include "test_util.h"

namespace ppfr {
namespace {

using ::ppfr::testing::ExpectSameCsrBits;

data::ScaleGraphConfig SmallScaleConfig(int64_t nodes = 2000) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_blocks = 4;
  cfg.feature_dim = 32;
  cfg.average_degree = 8.0;
  return cfg;
}

std::vector<std::pair<int64_t, int64_t>> CollectEdges(
    const data::ScaleGraphConfig& cfg, uint64_t seed) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  data::StreamScaleEdges(cfg, seed,
                         [&](int64_t u, int64_t v) { edges.emplace_back(u, v); });
  return edges;
}

TEST(ScaleGenTest, EdgeStreamReplaysBitIdentically) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig();
  const auto first = CollectEdges(cfg, 7);
  const auto second = CollectEdges(cfg, 7);
  EXPECT_EQ(first, second);  // identical sequence, not just multiset
  EXPECT_GT(first.size(), 0u);

  const auto other_seed = CollectEdges(cfg, 8);
  EXPECT_NE(first, other_seed);
}

// A local rank drawn as the generator first wrote it: top^(1−alpha),
// 1/(1−alpha) and log(top) are evaluated afresh on every draw.
int64_t PerDrawPowerLawRank(int64_t n, double alpha, Rng* rng) {
  if (alpha <= 0.0) return rng->UniformInt(n);
  const double u = rng->Uniform();
  const double top = static_cast<double>(n) + 1.0;
  double x;
  if (std::fabs(alpha - 1.0) < 1e-12) {
    x = std::exp(u * std::log(top));
  } else {
    const double e = 1.0 - alpha;
    x = std::pow(1.0 + u * (std::pow(top, e) - 1.0), 1.0 / e);
  }
  const int64_t rank = static_cast<int64_t>(std::floor(x)) - 1;
  return std::clamp<int64_t>(rank, 0, n - 1);
}

// The edge stream written out from its definition: block pairs a <= b in
// order, each with its homophily-calibrated budget and its own
// Rng(MixSeed(MixSeed(MixSeed(seed, "EDGE"), a), b)) stream, drawing both
// endpoints with PerDrawPowerLawRank.
std::vector<std::pair<int64_t, int64_t>> PerDrawReferenceEdges(
    const data::ScaleGraphConfig& cfg, uint64_t seed) {
  constexpr uint64_t kEdgeStreamTag = 0x45444745;  // "EDGE"
  const int64_t n = cfg.num_nodes;
  const double total_edges = static_cast<double>(n) * cfg.average_degree / 2.0;
  const auto size_of = [&cfg](int b) { return cfg.BlockStart(b + 1) - cfg.BlockStart(b); };
  double cross_weight = 0.0;
  for (int a = 0; a < cfg.num_blocks; ++a) {
    for (int b = a + 1; b < cfg.num_blocks; ++b) {
      cross_weight += static_cast<double>(size_of(a)) * static_cast<double>(size_of(b));
    }
  }
  const double alpha = cfg.power_law_alpha;
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int a = 0; a < cfg.num_blocks; ++a) {
    for (int b = a; b < cfg.num_blocks; ++b) {
      if (a == b ? size_of(a) < 2 : cross_weight <= 0.0) continue;
      const double size_a = static_cast<double>(size_of(a));
      const double size_b = static_cast<double>(size_of(b));
      const double budget =
          a == b ? cfg.homophily * total_edges * size_a / static_cast<double>(n)
                 : (1.0 - cfg.homophily) * total_edges * (size_a * size_b) / cross_weight;
      Rng rng(MixSeed(MixSeed(MixSeed(seed, kEdgeStreamTag), static_cast<uint64_t>(a)),
                      static_cast<uint64_t>(b)));
      for (int64_t e = 0; e < std::llround(budget); ++e) {
        const int64_t u = cfg.BlockStart(a) + PerDrawPowerLawRank(size_of(a), alpha, &rng);
        const int64_t v = cfg.BlockStart(b) + PerDrawPowerLawRank(size_of(b), alpha, &rng);
        edges.emplace_back(u, v);
      }
    }
  }
  return edges;
}

// The same edge sequence, reporting the first edge that differs.
void ExpectSameEdges(const std::vector<std::pair<int64_t, int64_t>>& got,
                     const std::vector<std::pair<int64_t, int64_t>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e], want[e]) << "edge " << e;
  }
}

// The generator draws each block pair's ranks in vector lanes and defers to
// std::pow only near integer boundaries; the stream must stay the per-draw
// formula's, element for element, on the power-law branch (alpha below and
// above 1), the alpha = 1 (log) branch and the uniform branch, at 10^5
// nodes, and on blocks of one to three nodes.
TEST(ScaleGenTest, StreamEqualsPerDrawPowerLawReference) {
  for (const double alpha : {0.5, 0.8, 0.95, 1.0, 1.5, 0.0, -0.5}) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    data::ScaleGraphConfig cfg = SmallScaleConfig(1003);  // uneven blocks
    cfg.power_law_alpha = alpha;
    const auto want = PerDrawReferenceEdges(cfg, 17);
    ASSERT_GT(want.size(), 0u);
    ExpectSameEdges(CollectEdges(cfg, 17), want);
  }
  {
    SCOPED_TRACE("10^5 nodes");
    const data::ScaleGraphConfig cfg = SmallScaleConfig(100000);
    const auto want = PerDrawReferenceEdges(cfg, 1);
    ASSERT_EQ(want.size(), 400000u);
    ExpectSameEdges(CollectEdges(cfg, 1), want);
  }
  // 40 blocks of 1, 1–2, 2–3 and 3 nodes (size-1 blocks hold no intra pair).
  for (const int64_t nodes : {40, 60, 100, 120}) {
    for (const double alpha : {0.8, 1.0, 1.5}) {
      SCOPED_TRACE("nodes=" + std::to_string(nodes) + " alpha=" + std::to_string(alpha));
      data::ScaleGraphConfig cfg = SmallScaleConfig(nodes);
      cfg.num_blocks = 40;
      cfg.average_degree = 200.0;
      cfg.power_law_alpha = alpha;
      const auto want = PerDrawReferenceEdges(cfg, 5);
      ASSERT_GT(want.size(), 0u);
      ExpectSameEdges(CollectEdges(cfg, 5), want);
    }
  }
}

// The batched ranks where the fast evaluation and std::pow can fall on
// different sides of an integer: uniforms whose exact image is an integer k,
// u = (k^(1−alpha) − 1)/span (ln k / ln(n + 1) at alpha = 1), and their
// neighbours up to 8 ulp either side, for k spread over [1, n + 1]. Every
// rank must be the per-draw formula's.
TEST(ScaleGenTest, BatchedRanksEqualPerDrawRanksAtIntegerBoundaries) {
  using data::internal::kRankBatch;
  using data::internal::PowerLawBlock;
  for (const double alpha : {0.5, 0.8, 0.95, 1.0, 1.5}) {
    for (const int64_t n : {1, 2, 1000, 250000}) {
      SCOPED_TRACE("alpha=" + std::to_string(alpha) + " n=" + std::to_string(n));
      const PowerLawBlock block(n, alpha);
      std::vector<double> us = {0.0, 1.0 - 0x1p-53};
      const double top = static_cast<double>(n) + 1.0;
      for (double k = 1.0; k <= top; k = k < 64.0 ? k + 1.0 : std::ceil(k * 1.05)) {
        double lo = block.log_branch ? std::log(k) / block.log_top
                                     : (std::pow(k, 1.0 - alpha) - 1.0) / block.span;
        double hi = lo;
        us.push_back(lo);
        for (int step = 0; step < 8; ++step) {
          lo = std::nextafter(lo, -1.0);
          hi = std::nextafter(hi, 2.0);
          us.push_back(lo);
          us.push_back(hi);
        }
      }
      std::erase_if(us, [](double u) { return !(u >= 0.0 && u < 1.0); });
      int64_t got[kRankBatch] = {};
      for (size_t first = 0; first < us.size(); first += kRankBatch) {
        const int count = static_cast<int>(std::min<size_t>(kRankBatch, us.size() - first));
        data::internal::PowerLawRanks(block, us.data() + first, count, got);
        for (int i = 0; i < count; ++i) {
          const double u = us[first + static_cast<size_t>(i)];
          ASSERT_EQ(got[i], data::internal::PowerLawRank(block, u)) << "u=" << std::hexfloat << u;
        }
      }
    }
  }
}

// NaN or infinite parameters used to reach std::llround and the rank's
// double-to-integer conversion, where the result is unspecified: a NaN alpha
// built a 6-edge graph and an infinite degree streamed no edges. Both the
// stream and the dataset reject them.
TEST(ScaleGenDeathTest, RejectsNonFiniteConfigs) {
  const auto stream = [](const data::ScaleGraphConfig& cfg) {
    data::StreamScaleEdges(cfg, 1, [](int64_t, int64_t) {});
  };
  for (const double alpha : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    data::ScaleGraphConfig cfg = SmallScaleConfig(1000);
    cfg.power_law_alpha = alpha;
    EXPECT_DEATH(stream(cfg), "power_law_alpha .* is not finite");
    EXPECT_DEATH(data::ScaleDataset(cfg, 1), "power_law_alpha .* is not finite");
  }
  data::ScaleGraphConfig cfg = SmallScaleConfig(1000);
  cfg.average_degree = HUGE_VAL;
  EXPECT_DEATH(stream(cfg), "average_degree inf is not finite");
  EXPECT_DEATH(data::ScaleDataset(cfg, 1), "average_degree inf is not finite");
  cfg = SmallScaleConfig(1000);
  cfg.homophily = std::nan("");
  EXPECT_DEATH(stream(cfg), "homophily .* is not finite");
}

// A feature row is drawn as one 64-bit mask.
TEST(ScaleDatasetDeathTest, RejectsFeatureRowsWiderThanAMask) {
  data::ScaleGraphConfig cfg = SmallScaleConfig(1000);
  cfg.feature_dim = 65;
  EXPECT_DEATH(data::ScaleDataset(cfg, 1), "64-bit mask");
}

TEST(ScaleGenTest, EndpointsStayInRangeAndDegreeIsCalibrated) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig(4000);
  const auto edges = CollectEdges(cfg, 3);
  for (const auto& [u, v] : edges) {
    ASSERT_GE(u, 0);
    ASSERT_LT(u, cfg.num_nodes);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, cfg.num_nodes);
  }
  // The emitted multiset targets n·d/2 draws; dedupe/self-loop losses must
  // not collapse the realised degree (the alpha >= 1 failure mode).
  EXPECT_NEAR(static_cast<double>(edges.size()),
              static_cast<double>(cfg.num_nodes) * cfg.average_degree / 2.0,
              0.02 * static_cast<double>(cfg.num_nodes) * cfg.average_degree);
  const data::ScaleDataset dataset(cfg, 3);
  EXPECT_GT(dataset.adjacency().AverageDegree(), 0.6 * cfg.average_degree);
}

TEST(ScaleGenTest, BlockLabelsPartitionTheIdSpace) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig(1003);  // uneven blocks
  EXPECT_EQ(cfg.BlockStart(0), 0);
  EXPECT_EQ(cfg.BlockStart(cfg.num_blocks), cfg.num_nodes);
  for (int b = 0; b < cfg.num_blocks; ++b) {
    EXPECT_LT(cfg.BlockStart(b), cfg.BlockStart(b + 1));
    for (int64_t v = cfg.BlockStart(b); v < cfg.BlockStart(b + 1); ++v) {
      ASSERT_EQ(cfg.BlockOf(v), b);
    }
  }
}

// The same nodes, rows and canonical edge list, element for element.
void ExpectSameGraph(const graph::Graph& got, const graph::Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (int v = 0; v < want.num_nodes(); ++v) {
    const auto got_row = got.Neighbors(v);
    const auto want_row = want.Neighbors(v);
    ASSERT_TRUE(std::equal(got_row.begin(), got_row.end(), want_row.begin(), want_row.end()))
        << "row " << v;
  }
  for (size_t e = 0; e < want.Edges().size(); ++e) {
    ASSERT_EQ(got.Edges()[e].u, want.Edges()[e].u) << "edge " << e;
    ASSERT_EQ(got.Edges()[e].v, want.Edges()[e].v) << "edge " << e;
  }
}

TEST(CsrBuilderTest, MatchesEdgeListGraphBitForBit) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig();
  const data::ScaleDataset dataset(cfg, 11);
  const graph::CsrAdjacency& adj = dataset.adjacency();

  // Reference construction through the materialised edge-list path.
  std::vector<graph::Edge> edges;
  data::StreamScaleEdges(cfg, 11, [&](int64_t u, int64_t v) {
    if (u != v) edges.push_back({static_cast<int>(u), static_cast<int>(v)});
  });
  const graph::Graph reference =
      graph::Graph::FromEdges(static_cast<int>(cfg.num_nodes), edges);
  const graph::CsrAdjacency from_graph = graph::CsrAdjacency::FromGraph(reference);

  EXPECT_EQ(adj.row_ptr(), from_graph.row_ptr());
  EXPECT_EQ(adj.adj(), from_graph.adj());
  EXPECT_EQ(adj.num_edges(), reference.num_edges());

  // Round trip back to the edge-list world.
  ExpectSameGraph(adj.ToGraph(), reference);
}

// ToGraph adopts the CSR rows and reads the edge list off them; the edge
// cases of that scan are rows with no neighbours at all and rows whose
// neighbours all lie below the row's node.
TEST(CsrBuilderTest, ToGraphEqualsFromEdgesOnEdgeCases) {
  const std::vector<std::pair<int, std::vector<graph::Edge>>> cases = {
      // Isolated nodes 0, 3 and 7 (first, inner, last).
      {8, {{1, 2}, {2, 4}, {1, 5}, {4, 6}, {5, 6}}},
      // Node 5's neighbours all lie below it; node 0's all lie above it.
      {6, {{0, 5}, {1, 5}, {4, 5}, {0, 2}, {0, 3}}},
      // No edges, and no nodes.
      {4, {}},
      {0, {}},
  };
  for (const auto& [num_nodes, edges] : cases) {
    SCOPED_TRACE("nodes=" + std::to_string(num_nodes) +
                 " edges=" + std::to_string(edges.size()));
    const graph::Graph reference = graph::Graph::FromEdges(num_nodes, edges);
    ExpectSameGraph(graph::CsrAdjacency::FromGraph(reference).ToGraph(), reference);
  }
  // A default-constructed adjacency is the empty graph.
  ExpectSameGraph(graph::CsrAdjacency().ToGraph(), graph::Graph::FromEdges(0, {}));
}

TEST(CsrBuilderTest, NeighboursAreSortedDeduplicatedAndSymmetric) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 19);
  const graph::CsrAdjacency& adj = dataset.adjacency();
  for (int64_t v = 0; v < adj.num_nodes(); ++v) {
    const auto nbrs = adj.Neighbors(v);
    for (size_t i = 0; i + 1 < nbrs.size(); ++i) {
      ASSERT_LT(nbrs[i], nbrs[i + 1]);  // sorted AND duplicate-free
    }
    for (int u : nbrs) {
      ASSERT_NE(u, v);  // self-loops dropped
      const auto back = adj.Neighbors(u);
      ASSERT_TRUE(std::binary_search(back.begin(), back.end(),
                                     static_cast<int>(v)));
    }
  }
}

// The partitioned build is a function of the edge multiset alone: one part
// (FromGraph) and the ten block-pair parts of ScaleDataset give the same
// arrays as the edge-list oracle at every backend thread count. The graph is
// large enough that the row sort runs in several chunks, so at 2 and 4
// threads the count, placement and sort passes all run concurrently.
TEST(CsrBuilderTest, PartitionedBuildIsInvariantToPartsAndThreads) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig(20000);
  std::vector<graph::Edge> edges;
  data::StreamScaleEdges(cfg, 13, [&](int64_t u, int64_t v) {
    edges.push_back({static_cast<int>(u), static_cast<int>(v)});
  });
  const graph::Graph reference =
      graph::Graph::FromEdges(static_cast<int>(cfg.num_nodes), edges);
  std::vector<int64_t> want_row_ptr{0};
  std::vector<int> want_adj;
  for (int v = 0; v < reference.num_nodes(); ++v) {
    const auto nbrs = reference.Neighbors(v);
    want_adj.insert(want_adj.end(), nbrs.begin(), nbrs.end());
    want_row_ptr.push_back(static_cast<int64_t>(want_adj.size()));
  }

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    la::ScopedBackend scoped(la::BackendKind::kParallel, threads);
    const data::ScaleDataset dataset(cfg, 13);  // ten block-pair parts
    EXPECT_EQ(dataset.adjacency().row_ptr(), want_row_ptr);
    EXPECT_EQ(dataset.adjacency().adj(), want_adj);
    const graph::CsrAdjacency one_part = graph::CsrAdjacency::FromGraph(reference);
    EXPECT_EQ(one_part.row_ptr(), want_row_ptr);
    EXPECT_EQ(one_part.adj(), want_adj);
  }
}

// Builds on a 2-thread backend made inside the death-test child, so the
// parts run on pool workers there as well (a pool inherited across fork
// runs inline).
graph::CsrAdjacency BuildOnTwoThreads(int64_t num_nodes, int num_parts,
                                      const graph::EdgeStreamPart& part) {
  la::ScopedBackend scoped(la::BackendKind::kParallel, 2);
  return graph::BuildCsrFromEdgeStream(num_nodes, num_parts, part);
}

TEST(CsrBuilderDeathTest, RejectsNodeCountsPastTheInt32Ceiling) {
  EXPECT_DEATH(graph::BuildCsrFromEdgeStream(graph::kMaxCsrNodes + 1, 1,
                                             [](int, const graph::EdgeEmit&) {}),
               "kMaxCsrNodes");
}

TEST(CsrBuilderDeathTest, RejectsOutOfRangeEndpoints) {
  EXPECT_DEATH(BuildOnTwoThreads(10, 3,
                                 [](int p, const graph::EdgeEmit& emit) {
                                   emit(p, p + 1);
                                   if (p == 2) emit(3, 10);  // v == num_nodes
                                 }),
               "CHECK failed");
  EXPECT_DEATH(BuildOnTwoThreads(10, 3,
                                 [](int p, const graph::EdgeEmit& emit) {
                                   emit(p, p + 1);
                                   if (p == 1) emit(-1, 3);
                                 }),
               "CHECK failed");
}

TEST(CsrBuilderDeathTest, RejectsNonReplayableStreams) {
  // Part 1 emits one edge on the count pass and two on the placement pass:
  // the passes disagree, which must abort, not corrupt.
  EXPECT_DEATH(BuildOnTwoThreads(
                   10, 3,
                   [calls = std::vector<int>(3, 0)](int p,
                                                    const graph::EdgeEmit& emit) mutable {
                     emit(p, p + 5);
                     if (p == 1 && ++calls[1] == 2) emit(3, 4);
                   }),
               "replay");
  // Part 2 emits a different edge of the same count on replay: no part
  // overruns its count, but rows 8 and 9 would take slots they never
  // counted.
  EXPECT_DEATH(BuildOnTwoThreads(
                   10, 3,
                   [calls = std::vector<int>(3, 0)](int p,
                                                    const graph::EdgeEmit& emit) mutable {
                     if (p == 2 && ++calls[2] == 2) {
                       emit(8, 9);
                     } else {
                       emit(p, p + 5);
                     }
                   }),
               "replay");
  // Fewer edges on replay.
  EXPECT_DEATH(BuildOnTwoThreads(
                   10, 3,
                   [calls = std::vector<int>(3, 0)](int p,
                                                    const graph::EdgeEmit& emit) mutable {
                     if (p != 0 || ++calls[0] == 1) emit(p, p + 5);
                   }),
               "replay");
}

// FromDense of FillFeatureRow's rows for `nodes`: what GatherFeatures
// returns, entry for entry.
la::CsrMatrix FillFeatureRowsAsCsr(const data::ScaleDataset& dataset,
                                   const std::vector<int>& nodes) {
  la::Matrix rows(static_cast<int>(nodes.size()), dataset.config().feature_dim);
  for (int r = 0; r < rows.rows(); ++r) {
    dataset.FillFeatureRow(nodes[static_cast<size_t>(r)], rows.row(r));
  }
  return la::CsrMatrix::FromDense(rows);
}

TEST(ScaleDatasetTest, FeatureRowsRegenerateInIsolation) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 23);
  const la::Matrix all = dataset.MaterializeFeatures();

  // Any gather, in any order, any number of times, reproduces the same rows.
  const std::vector<int> nodes = {1999, 3, 512, 3, 0};
  const la::CsrMatrix gathered = dataset.GatherFeatures(nodes);
  ASSERT_EQ(gathered.rows(), static_cast<int>(nodes.size()));
  ASSERT_EQ(gathered.cols(), all.cols());
  ExpectSameCsrBits(gathered, FillFeatureRowsAsCsr(dataset, nodes));
  const la::Matrix dense = gathered.ToDense();
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int f = 0; f < all.cols(); ++f) {
      ASSERT_EQ(dense(static_cast<int>(i), f), all(nodes[i], f))
          << "node " << nodes[i] << " feature " << f;
    }
  }
  const la::CsrMatrix none = dataset.GatherFeatures({});
  EXPECT_EQ(none.rows(), 0);
  EXPECT_EQ(none.cols(), all.cols());
  EXPECT_EQ(none.nnz(), 0);

  // Signature structure: a node's class signature window fires far more often
  // than the noise floor, aggregated over a block.
  const data::ScaleGraphConfig& cfg = dataset.config();
  double sig_mass = 0.0, noise_mass = 0.0;
  int sig_count = 0, noise_count = 0;
  for (int64_t v = 0; v < cfg.num_nodes; ++v) {
    const int cls = dataset.Label(v);
    for (int f = 0; f < cfg.feature_dim; ++f) {
      const bool in_sig = f >= cls * cfg.signature_size &&
                          f < (cls + 1) * cfg.signature_size;
      (in_sig ? sig_mass : noise_mass) += all(static_cast<int>(v), f);
      ++(in_sig ? sig_count : noise_count);
    }
  }
  EXPECT_GT(sig_mass / sig_count, 5.0 * (noise_mass / noise_count));
}

// Feature rows as the generator drew them before rows were drawn as masks
// (one Bernoulli draw per feature, in feature order, written as 1.0 or 0.0):
// bit f of `mask` is feature f of the node's row.
TEST(ScaleDatasetTest, FeatureRowsKeepTheirRecordedBits) {
  struct Recorded {
    int64_t num_nodes;
    int num_blocks;
    int feature_dim;
    double average_degree;
    uint64_t seed;
    int64_t node;
    uint64_t mask;
  };
  const Recorded recorded[] = {
      {2000, 4, 32, 8.0, 23, 0, 0x000000b8},    {2000, 4, 32, 8.0, 23, 3, 0x0000209c},
      {2000, 4, 32, 8.0, 23, 512, 0x0000e200},  {2000, 4, 32, 8.0, 23, 1999, 0x4e000000},
      {2000, 4, 32, 8.0, 41, 1, 0x000820ac},    {2000, 4, 32, 8.0, 41, 777, 0x00108c04},
      {2000, 4, 32, 8.0, 41, 1500, 0x88000000}, {900, 3, 24, 6.0, 41, 0, 0x0000008d},
      {900, 3, 24, 6.0, 41, 450, 0x00004500},   {900, 3, 24, 6.0, 41, 899, 0x00314000},
  };
  for (const Recorded& r : recorded) {
    SCOPED_TRACE("seed " + std::to_string(r.seed) + " node " + std::to_string(r.node));
    data::ScaleGraphConfig cfg = SmallScaleConfig(r.num_nodes);
    cfg.num_blocks = r.num_blocks;
    cfg.feature_dim = r.feature_dim;
    cfg.average_degree = r.average_degree;
    const data::ScaleDataset dataset(cfg, r.seed);
    std::vector<double> row(static_cast<size_t>(cfg.feature_dim));
    dataset.FillFeatureRow(r.node, row.data());
    for (int f = 0; f < cfg.feature_dim; ++f) {
      EXPECT_EQ(row[static_cast<size_t>(f)], (r.mask >> f & 1) != 0 ? 1.0 : 0.0) << "feature " << f;
    }
  }
}

// GatherFeatures runs two passes over disjoint rows, and MaterializeFeatures
// writes into an uninitialised buffer (NaN-filled in builds without NDEBUG),
// both on the backend's threads: the gather must be FromDense of
// FillFeatureRow's rows, and every materialised row FillFeatureRow's, bit for
// bit, at any thread count.
TEST(ScaleDatasetTest, FeatureFillsEqualFillFeatureRowAtAnyThreadCount) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 41);
  const int dim = dataset.config().feature_dim;
  std::vector<int> nodes = dataset.StridedNodes(1500, /*salt=*/3);  // several row chunks
  nodes.push_back(nodes.front());
  nodes.push_back(nodes[700]);
  std::vector<double> want(static_cast<size_t>(dim));
  const auto expect_row = [&](const la::Matrix& m, int r, int64_t v) {
    dataset.FillFeatureRow(v, want.data());
    ASSERT_EQ(std::memcmp(m.row(r), want.data(), want.size() * sizeof(double)), 0)
        << "row " << r << " node " << v;
  };
  // A full 64-bit mask: feature 63 is noise, on in about 2% of rows.
  data::ScaleGraphConfig wide_cfg = SmallScaleConfig();
  wide_cfg.feature_dim = 64;
  const data::ScaleDataset wide(wide_cfg, 41);
  std::vector<int> all_nodes(static_cast<size_t>(wide.num_nodes()));
  for (int v = 0; v < wide.num_nodes(); ++v) all_nodes[static_cast<size_t>(v)] = v;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    la::ScopedBackend scoped(la::BackendKind::kParallel, threads);
    ExpectSameCsrBits(dataset.GatherFeatures(nodes), FillFeatureRowsAsCsr(dataset, nodes));
    ExpectSameCsrBits(dataset.GatherFeatures({}), FillFeatureRowsAsCsr(dataset, {}));
    const la::CsrMatrix wide_rows = wide.GatherFeatures(all_nodes);
    ExpectSameCsrBits(wide_rows, FillFeatureRowsAsCsr(wide, all_nodes));
    EXPECT_NE(std::count(wide_rows.col_idx().begin(), wide_rows.col_idx().end(), 63), 0);
    const la::Matrix all = dataset.MaterializeFeatures();
    ASSERT_EQ(all.rows(), static_cast<int>(dataset.num_nodes()));
    for (int v = 0; v < all.rows(); ++v) expect_row(all, v, v);
  }
}

TEST(ScaleDatasetTest, LabelsAndStridedSplitsAreDeterministic) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 29);
  const std::vector<int> labels = dataset.MaterializeLabels();
  ASSERT_EQ(labels.size(), static_cast<size_t>(dataset.num_nodes()));
  for (int64_t v = 0; v < dataset.num_nodes(); ++v) {
    ASSERT_EQ(labels[static_cast<size_t>(v)], dataset.Label(v));
  }

  const std::vector<int> train = dataset.StridedNodes(64, /*salt=*/1);
  EXPECT_EQ(train, dataset.StridedNodes(64, /*salt=*/1));
  EXPECT_EQ(train.size(), 64u);
  std::set<int> unique(train.begin(), train.end());
  EXPECT_EQ(unique.size(), train.size());
  for (int v : train) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, dataset.num_nodes());
  }
  // Balanced across the contiguous label blocks by construction.
  std::vector<int> per_class(static_cast<size_t>(dataset.num_classes()), 0);
  for (int v : train) ++per_class[static_cast<size_t>(dataset.Label(v))];
  for (int count : per_class) EXPECT_NEAR(count, 16, 2);
}

TEST(ScaleDatasetTest, IdenticalSeedsYieldIdenticalStructure) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig();
  const data::ScaleDataset a(cfg, 31);
  const data::ScaleDataset b(cfg, 31);
  EXPECT_EQ(a.adjacency().row_ptr(), b.adjacency().row_ptr());
  EXPECT_EQ(a.adjacency().adj(), b.adjacency().adj());
  const data::ScaleDataset c(cfg, 32);
  EXPECT_NE(a.adjacency().adj(), c.adjacency().adj());
}

TEST(ArenaAccountingTest, TracksLiveBufferBytesAndPeak) {
  const int64_t base = la::ArenaBytesInUse();
  la::ResetArenaPeakBytes();
  {
    la::Matrix m(100, 50);
    const int64_t expect = 100 * 50 * static_cast<int64_t>(sizeof(double));
    EXPECT_EQ(la::ArenaBytesInUse(), base + expect);
    EXPECT_GE(la::ArenaPeakBytes(), base + expect);

    la::Matrix copy = m;  // copies register too
    EXPECT_EQ(la::ArenaBytesInUse(), base + 2 * expect);
  }
  EXPECT_EQ(la::ArenaBytesInUse(), base);  // destruction unwinds the counter
  EXPECT_GE(la::ArenaPeakBytes(), base);

  // The CSR adjacency registers its logical bytes as well.
  const data::ScaleDataset dataset(SmallScaleConfig(), 37);
  const graph::CsrAdjacency& adj = dataset.adjacency();
  const int64_t csr_bytes =
      static_cast<int64_t>(adj.row_ptr().size()) * sizeof(int64_t) +
      static_cast<int64_t>(adj.adj().size()) * sizeof(int);
  EXPECT_GE(la::ArenaBytesInUse(), base + csr_bytes);

  // Peak-RSS readout: monotone, and available on Linux.
  const int64_t rss = la::ProcessPeakRssBytes();
  EXPECT_GE(rss, 0);
#ifdef __linux__
  EXPECT_GT(rss, 0);
#endif
}

}  // namespace
}  // namespace ppfr
