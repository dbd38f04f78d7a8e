#include "privacy/defense/lap_graph.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "privacy/defense/lap_graph_internal.h"

namespace ppfr::privacy {

namespace internal {

void OfferCell(const ScoredCell& cell, size_t keep, std::vector<ScoredCell>* kept) {
  // A std heap's root compares less than no other element; with RanksAbove
  // as the comparison, that is the lowest-ranked kept cell.
  if (kept->size() < keep) {
    kept->push_back(cell);
    std::push_heap(kept->begin(), kept->end(), RanksAbove);
  } else if (!kept->empty() && RanksAbove(cell, kept->front())) {
    std::pop_heap(kept->begin(), kept->end(), RanksAbove);
    kept->back() = cell;
    std::push_heap(kept->begin(), kept->end(), RanksAbove);
  }
}

}  // namespace internal

graph::Graph LapGraph(const graph::Graph& g, double epsilon, uint64_t seed) {
  PPFR_CHECK_GT(epsilon, 0.0);
  const int n = g.num_nodes();
  const int64_t num_pairs = static_cast<int64_t>(n) * (n - 1) / 2;
  const auto keep = static_cast<size_t>(std::min<int64_t>(g.num_edges(), num_pairs));
  Rng rng(seed);

  std::vector<internal::ScoredCell> kept;
  kept.reserve(keep);
  const double scale = 1.0 / epsilon;
  int64_t index = 0;
  for (int u = 0; u < n; ++u) {
    // Row u's cells are (u, u+1) .. (u, n−1); its edges are u's sorted
    // neighbours above u, walked alongside v.
    const std::span<const int> neighbors = g.Neighbors(u);
    auto next = std::upper_bound(neighbors.begin(), neighbors.end(), u);
    for (int v = u + 1; v < n; ++v, ++index) {
      const bool edge = next != neighbors.end() && *next == v;
      if (edge) ++next;
      internal::OfferCell({(edge ? 1.0 : 0.0) + rng.Laplace(scale), index, u, v}, keep,
                          &kept);
    }
  }

  std::vector<graph::Edge> edges;
  edges.reserve(kept.size());
  for (const internal::ScoredCell& cell : kept) edges.push_back({cell.u, cell.v});
  return graph::Graph::FromEdges(n, edges);
}

}  // namespace ppfr::privacy
