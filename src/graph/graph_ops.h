#ifndef PPFR_GRAPH_GRAPH_OPS_H_
#define PPFR_GRAPH_GRAPH_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"

namespace ppfr::graph {

// Graph rows per backend chunk in the operator builds, which write disjoint
// rows on the active la backend's threads (the same bits at any count).
inline constexpr int64_t kOperatorRowGrain = 1024;

// Symmetric GCN propagation operator Â = D̃^{-1/2} (A + I) D̃^{-1/2},
// with D̃ the degree matrix of (A + I) (Kipf & Welling).
la::CsrMatrix GcnNormalizedAdjacency(const Graph& g);

// Row-stochastic neighbour-mean operator M: M_ij = 1/deg(i) for j ∈ N(i)
// (rows of isolated nodes are zero). The GraphSAGE mean aggregator.
la::CsrMatrix MeanAggregationMatrix(const Graph& g);

// Sampled GraphSAGE aggregator: for every node, at most `fanout` neighbours
// are drawn without replacement and weighted 1/#sampled. Rebuilt per epoch.
la::CsrMatrix SampledMeanAggregationMatrix(const Graph& g, int fanout, Rng* rng);

// BFS hop distances from `source`, capped at `max_hops` (entries beyond the
// cap, including unreachable nodes, are max_hops + 1).
std::vector<int> BfsHops(const Graph& g, int source, int max_hops);

// Hop distance between u and v, capped at `cap` (returns cap + 1 when the
// distance exceeds the cap or the nodes are disconnected).
int HopDistance(const Graph& g, int u, int v, int cap);

}  // namespace ppfr::graph

#endif  // PPFR_GRAPH_GRAPH_OPS_H_
