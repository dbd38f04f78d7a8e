#ifndef PPFR_GRAPH_CSR_BUILDER_H_
#define PPFR_GRAPH_CSR_BUILDER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "la/matrix.h"

namespace ppfr::graph {

// Hard node-count ceiling imposed by the int32 column indices of the CSR
// layout (la::CsrMatrix and CsrAdjacency share it). Builders reject larger
// graphs with an error naming this limit instead of silently wrapping.
inline constexpr int64_t kMaxCsrNodes = 2147483647;  // INT32_MAX

// An edge sink, and one part of a partitioned edge stream: part(p, emit)
// emits the edges of part p (see BuildCsrFromEdgeStream).
using EdgeEmit = std::function<void(int64_t, int64_t)>;
using EdgeStreamPart = std::function<void(int, const EdgeEmit&)>;

// Undirected simple graph stored as bare CSR (row_ptr + sorted adjacency) —
// no materialised edge list, unlike graph::Graph, so a 10^7-node graph costs
// 8(n+1) + 4·2m bytes and nothing else. This is the structure the streamed
// generator builds into and the neighbour sampler reads from; `ToGraph()`
// bridges back to the edge-list world (the influence stage's dense bridge).
class CsrAdjacency {
 public:
  CsrAdjacency() = default;

  int64_t num_nodes() const { return num_nodes_; }
  // Undirected edge count (each edge stored twice in adj_).
  int64_t num_edges() const { return static_cast<int64_t>(adj_.size()) / 2; }

  // Sorted, deduplicated neighbours of node v.
  std::span<const int> Neighbors(int64_t v) const;
  int Degree(int64_t v) const;
  int MaxDegree() const;
  double AverageDegree() const;

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& adj() const { return adj_; }

  // The same Graph that Graph::FromEdges builds from this edge set, in O(E)
  // with no sort: the rows are copied as they are (already sorted,
  // duplicate-free and loop-free) and the canonical edge list is read off
  // them in one scan. The Graph costs this CSR again plus 8 bytes per edge.
  Graph ToGraph() const;
  static CsrAdjacency FromGraph(const Graph& g);

 private:
  friend CsrAdjacency BuildCsrFromEdgeStream(int64_t, int, const EdgeStreamPart&);

  void RegisterArenaBytes() {
    arena_.Set(static_cast<int64_t>(row_ptr_.size() * sizeof(int64_t) +
                                    adj_.size() * sizeof(int)));
  }

  int64_t num_nodes_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int> adj_;
  // Last member: default copy/move/destroy keep the arena counters in sync.
  la::internal::ArenaRegistration arena_;
};

// Builds a CsrAdjacency from a REPLAYABLE edge stream split into `num_parts`
// parts, without ever holding an edge list. `part(p, emit)` emits part p's
// edges; the parts together emit the graph's edge multiset, and every part
// must emit the same multiset each time it is called (the counter-based
// generator in data/scale_gen, one part per block pair, satisfies this by
// construction).
//
// Pass 1 counts degrees and pass 2 places both endpoints of every edge
// through per-row cursors; each pass calls every part exactly once, and the
// parts run concurrently on the active la backend's threads, so `part` must
// be safe to call for distinct p at the same time. The degree counts and
// the cursors are relaxed std::atomic_ref increments: a row's entries land
// in an order that depends on thread timing, and each row is then sorted and
// deduplicated (multi-edges collapse; self-loops are dropped on emit), rows
// in parallel. So the result is a function of the multiset alone, the same
// bits for any part split and any thread count. Peak memory is the final CSR
// plus one int64 cursor array: no edge list, and no per-thread array of size
// num_nodes.
//
// Aborts rather than corrupting the structure: endpoints are validated
// against [0, num_nodes) and num_nodes against kMaxCsrNodes, the total
// directed entry count is bounds-checked before the adjacency buffer is
// allocated, and a part that emits different edges on replay (more edges
// than it counted, a different count, or more entries into some row) fails
// a check whose message names the replay.
CsrAdjacency BuildCsrFromEdgeStream(int64_t num_nodes, int num_parts,
                                    const EdgeStreamPart& part);

}  // namespace ppfr::graph

#endif  // PPFR_GRAPH_CSR_BUILDER_H_
