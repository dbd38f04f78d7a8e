#include "graph/graph_ops.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/check.h"

namespace ppfr::graph {

la::CsrMatrix GcnNormalizedAdjacency(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<double> inv_sqrt_deg(n);
  for (int v = 0; v < n; ++v) {
    inv_sqrt_deg[v] = 1.0 / std::sqrt(static_cast<double>(g.Degree(v)) + 1.0);
  }
  std::vector<la::Triplet> triplets;
  triplets.reserve(2 * g.num_edges() + n);
  for (int v = 0; v < n; ++v) {
    triplets.push_back({v, v, inv_sqrt_deg[v] * inv_sqrt_deg[v]});
    for (int u : g.Neighbors(v)) {
      triplets.push_back({v, u, inv_sqrt_deg[v] * inv_sqrt_deg[u]});
    }
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

la::CsrMatrix LeftNormalizedAdjacency(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<la::Triplet> triplets;
  triplets.reserve(2 * g.num_edges() + n);
  for (int v = 0; v < n; ++v) {
    const double w = 1.0 / (static_cast<double>(g.Degree(v)) + 1.0);
    triplets.push_back({v, v, w});
    for (int u : g.Neighbors(v)) triplets.push_back({v, u, w});
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

la::CsrMatrix MeanAggregationMatrix(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<la::Triplet> triplets;
  triplets.reserve(2 * g.num_edges());
  for (int v = 0; v < n; ++v) {
    const int deg = g.Degree(v);
    if (deg == 0) continue;
    const double w = 1.0 / deg;
    for (int u : g.Neighbors(v)) triplets.push_back({v, u, w});
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

la::CsrMatrix SampledMeanAggregationMatrix(const Graph& g, int fanout, Rng* rng) {
  PPFR_CHECK_GT(fanout, 0);
  const int n = g.num_nodes();
  // Rows come out in order and every adjacency list is sorted and free of
  // duplicates, so the CSR is written directly; only a row's sampled columns
  // need sorting.
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int> col_idx;
  std::vector<double> values;
  // nnz is bounded by both n·fanout and the full adjacency; the min keeps the
  // reserve sane when fanout is a "take everything" sentinel like INT_MAX.
  const auto max_nnz = static_cast<size_t>(
      std::min<int64_t>(static_cast<int64_t>(n) * fanout, 2 * g.num_edges()));
  col_idx.reserve(max_nnz);
  values.reserve(max_nnz);
  for (int v = 0; v < n; ++v) {
    const auto nbrs = g.Neighbors(v);
    const int deg = static_cast<int>(nbrs.size());
    if (deg <= fanout) {
      col_idx.insert(col_idx.end(), nbrs.begin(), nbrs.end());
      values.insert(values.end(), static_cast<size_t>(deg), 1.0 / deg);
    } else {
      const size_t first = col_idx.size();
      for (int idx : rng->SampleWithoutReplacement(deg, fanout)) {
        col_idx.push_back(nbrs[idx]);
      }
      std::sort(col_idx.begin() + static_cast<int64_t>(first), col_idx.end());
      values.insert(values.end(), static_cast<size_t>(fanout), 1.0 / fanout);
    }
    row_ptr[static_cast<size_t>(v) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return la::CsrMatrix::FromSortedRows(n, n, std::move(row_ptr), std::move(col_idx),
                                       std::move(values));
}

std::vector<int> BfsHops(const Graph& g, int source, int max_hops) {
  const int n = g.num_nodes();
  std::vector<int> hops(n, max_hops + 1);
  hops[source] = 0;
  std::deque<int> queue{source};
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop_front();
    if (hops[v] >= max_hops) continue;
    for (int u : g.Neighbors(v)) {
      if (hops[u] > hops[v] + 1) {
        hops[u] = hops[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return hops;
}

int HopDistance(const Graph& g, int u, int v, int cap) {
  if (u == v) return 0;
  std::vector<int> hops = BfsHops(g, u, cap);
  return hops[v];
}

}  // namespace ppfr::graph
