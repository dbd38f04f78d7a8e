#include "privacy/defense/edge_rand.h"

#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"

namespace ppfr::privacy {

double EdgeRandFlipProbability(double epsilon) {
  PPFR_CHECK_GT(epsilon, 0.0);
  return 2.0 / (1.0 + std::exp(epsilon));
}

graph::Graph EdgeRand(const graph::Graph& g, double epsilon, uint64_t seed) {
  const int n = g.num_nodes();
  const double flip_prob = EdgeRandFlipProbability(epsilon);
  Rng rng(seed);

  // Geometric skipping over the n(n-1)/2 upper-triangular cells, so the cost
  // is proportional to the number of flips rather than to n².
  std::unordered_set<int64_t> flipped;
  const int64_t num_pairs = static_cast<int64_t>(n) * (n - 1) / 2;
  if (flip_prob > 0.0 && flip_prob < 1.0) {
    const double log1mp = std::log1p(-flip_prob);
    int64_t cursor = -1;
    while (true) {
      const double u = std::max(rng.Uniform(), 1e-300);
      // The skip stays a double until it is known to land inside the range:
      // from ε ≈ 43 it can exceed 2^63, where the conversion is undefined.
      const double skip = std::floor(std::log(u) / log1mp);
      if (skip >= static_cast<double>(num_pairs - 1 - cursor)) break;
      cursor += 1 + static_cast<int64_t>(skip);
      flipped.insert(cursor);
    }
  }

  // Pair index of the canonical cell (u, v), u < v: cells are laid out row by
  // row, row u holding (n - 1 - u) cells starting at offset(u).
  auto pair_index = [n](int u, int v) {
    const int64_t offset =
        static_cast<int64_t>(u) * n - static_cast<int64_t>(u) * (u + 1) / 2 - u - 1;
    return offset + v;
  };

  std::vector<graph::Edge> edges;
  edges.reserve(g.Edges().size() + flipped.size());
  // Existing edges survive unless flipped.
  for (const graph::Edge& e : g.Edges()) {
    if (flipped.count(pair_index(e.u, e.v)) == 0) edges.push_back(e);
  }
  // Flipped non-edges are added: unrank each flipped index back to (u, v).
  for (int64_t idx : flipped) {
    // Binary search the row u with row_start(u) <= idx < row_start(u+1),
    // where row u holds the (n - 1 - u) cells (u, u+1) .. (u, n-1).
    auto row_start = [n](int64_t u) {
      return u * static_cast<int64_t>(n) - u - u * (u - 1) / 2;
    };
    int64_t lo = 0, hi = n - 1;
    while (lo + 1 < hi) {
      const int64_t mid = (lo + hi) / 2;
      if (row_start(mid) <= idx) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const int u = static_cast<int>(lo);
    const int v = static_cast<int>(idx - row_start(lo) + u + 1);
    if (!g.HasEdge(u, v)) edges.push_back({u, v});
  }
  return graph::Graph::FromEdges(n, edges);
}

}  // namespace ppfr::privacy
