#include "graph/graph_ops.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/check.h"
#include "la/backend.h"

namespace ppfr::graph {

la::CsrMatrix GcnNormalizedAdjacency(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<double> inv_sqrt_deg(n);
  for (int v = 0; v < n; ++v) {
    inv_sqrt_deg[v] = 1.0 / std::sqrt(static_cast<double>(g.Degree(v)) + 1.0);
  }
  // Row v is N(v) ∪ {v}: the adjacency list is sorted and never holds v, so
  // the self-loop is merged in at its sorted position and the CSR is written
  // directly, rows in parallel.
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) row_ptr[v + 1] = row_ptr[v] + g.Degree(v) + 1;
  std::vector<int> col_idx(static_cast<size_t>(row_ptr[n]));
  std::vector<double> values(col_idx.size());
  la::ActiveBackend().Apply(n, kOperatorRowGrain, [&](int64_t lo, int64_t hi) {
    for (int v = static_cast<int>(lo); v < hi; ++v) {
      const auto nbrs = g.Neighbors(v);
      const auto self = std::lower_bound(nbrs.begin(), nbrs.end(), v);
      int64_t k = row_ptr[v];
      const auto put = [&](int u) {
        col_idx[k] = u;
        values[k++] = inv_sqrt_deg[v] * inv_sqrt_deg[u];
      };
      for (auto it = nbrs.begin(); it != self; ++it) put(*it);
      put(v);
      for (auto it = self; it != nbrs.end(); ++it) put(*it);
    }
  });
  return la::CsrMatrix::FromSortedRows(n, n, std::move(row_ptr), std::move(col_idx),
                                       std::move(values));
}

la::CsrMatrix MeanAggregationMatrix(const Graph& g) {
  const int n = g.num_nodes();
  // The adjacency lists are the rows, already sorted and duplicate-free.
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) row_ptr[v + 1] = row_ptr[v] + g.Degree(v);
  std::vector<int> col_idx(static_cast<size_t>(row_ptr[n]));
  std::vector<double> values(col_idx.size());
  la::ActiveBackend().Apply(n, kOperatorRowGrain, [&](int64_t lo, int64_t hi) {
    for (int v = static_cast<int>(lo); v < hi; ++v) {
      const auto nbrs = g.Neighbors(v);
      if (nbrs.empty()) continue;  // isolated node: zero row
      std::copy(nbrs.begin(), nbrs.end(), col_idx.begin() + row_ptr[v]);
      std::fill_n(values.begin() + row_ptr[v], nbrs.size(), 1.0 / g.Degree(v));
    }
  });
  return la::CsrMatrix::FromSortedRows(n, n, std::move(row_ptr), std::move(col_idx),
                                       std::move(values));
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
