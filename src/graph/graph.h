#ifndef PPFR_GRAPH_GRAPH_H_
#define PPFR_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ppfr::graph {

class CsrAdjacency;

// An undirected edge (u, v). Stored canonically with u < v.
struct Edge {
  int u;
  int v;
};

// Immutable undirected simple graph in CSR form (sorted adjacency lists,
// no self-loops, no multi-edges). Structure perturbations (DP noise, PP
// heterophilic edges) build new Graph instances from edited edge lists.
class Graph {
 public:
  Graph() : num_nodes_(0) {}

  // Builds from an edge list; duplicates and self-loops are dropped,
  // (u, v) / (v, u) are unified.
  static Graph FromEdges(int num_nodes, const std::vector<Edge>& edges);

  int num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  // Sorted neighbours of node v.
  std::span<const int> Neighbors(int v) const;
  int Degree(int v) const;
  bool HasEdge(int u, int v) const;

  // Canonical (u < v) edge list.
  const std::vector<Edge>& Edges() const { return edges_; }

  // Average degree 2|E| / n.
  double AverageDegree() const;

  // Fraction of edges whose endpoints share a label (edge homophily).
  double EdgeHomophily(const std::vector<int>& labels) const;

 private:
  friend class CsrAdjacency;

  // Adopts CSR rows that are already sorted, duplicate-free and free of
  // self-loops (CsrAdjacency::ToGraph), and derives the canonical edge list
  // from them in one scan: the same Graph FromEdges builds, without its sort.
  Graph(int num_nodes, std::vector<int64_t> row_ptr, std::vector<int> adj);

  int num_nodes_;
  std::vector<int64_t> row_ptr_;
  std::vector<int> adj_;
  std::vector<Edge> edges_;
};

}  // namespace ppfr::graph

#endif  // PPFR_GRAPH_GRAPH_H_
