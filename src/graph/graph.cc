#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace ppfr::graph {

Graph Graph::FromEdges(int num_nodes, const std::vector<Edge>& edges) {
  Graph g;
  g.num_nodes_ = num_nodes;
  std::vector<Edge> canon;
  canon.reserve(edges.size());
  for (const Edge& e : edges) {
    PPFR_CHECK_GE(e.u, 0);
    PPFR_CHECK_LT(e.u, num_nodes);
    PPFR_CHECK_GE(e.v, 0);
    PPFR_CHECK_LT(e.v, num_nodes);
    if (e.u == e.v) continue;
    canon.push_back(e.u < e.v ? e : Edge{e.v, e.u});
  }
  std::sort(canon.begin(), canon.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  canon.erase(std::unique(canon.begin(), canon.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              canon.end());
  g.edges_ = std::move(canon);

  std::vector<int> degree(num_nodes, 0);
  for (const Edge& e : g.edges_) {
    degree[e.u]++;
    degree[e.v]++;
  }
  g.row_ptr_.assign(num_nodes + 1, 0);
  for (int v = 0; v < num_nodes; ++v) g.row_ptr_[v + 1] = g.row_ptr_[v] + degree[v];
  g.adj_.resize(g.row_ptr_[num_nodes]);
  std::vector<int64_t> cursor(g.row_ptr_.begin(), g.row_ptr_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.adj_[cursor[e.u]++] = e.v;
    g.adj_[cursor[e.v]++] = e.u;
  }
  for (int v = 0; v < num_nodes; ++v) {
    std::sort(g.adj_.begin() + g.row_ptr_[v], g.adj_.begin() + g.row_ptr_[v + 1]);
  }
  return g;
}

Graph::Graph(int num_nodes, std::vector<int64_t> row_ptr, std::vector<int> adj)
    : num_nodes_(num_nodes), row_ptr_(std::move(row_ptr)), adj_(std::move(adj)) {
  if (row_ptr_.empty()) row_ptr_.push_back(0);  // a default-constructed CsrAdjacency
  PPFR_CHECK_EQ(row_ptr_.size(), static_cast<size_t>(num_nodes) + 1);
  edges_.reserve(adj_.size() / 2);
  for (int v = 0; v < num_nodes; ++v) {
    const auto row_end = adj_.begin() + row_ptr_[v + 1];
    for (auto it = std::upper_bound(adj_.begin() + row_ptr_[v], row_end, v); it != row_end;
         ++it) {
      edges_.push_back({v, *it});
    }
  }
}

std::span<const int> Graph::Neighbors(int v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes_);
  return {adj_.data() + row_ptr_[v], adj_.data() + row_ptr_[v + 1]};
}

int Graph::Degree(int v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes_);
  return static_cast<int>(row_ptr_[v + 1] - row_ptr_[v]);
}

bool Graph::HasEdge(int u, int v) const {
  if (u == v) return false;
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::AverageDegree() const {
  if (num_nodes_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / num_nodes_;
}

double Graph::EdgeHomophily(const std::vector<int>& labels) const {
  PPFR_CHECK_EQ(labels.size(), static_cast<size_t>(num_nodes_));
  if (edges_.empty()) return 0.0;
  int64_t same = 0;
  for (const Edge& e : edges_) {
    if (labels[e.u] == labels[e.v]) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(edges_.size());
}

}  // namespace ppfr::graph
