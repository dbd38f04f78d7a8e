#ifndef PPFR_PRIVACY_DEFENSE_LAP_GRAPH_H_
#define PPFR_PRIVACY_DEFENSE_LAP_GRAPH_H_

#include <cstdint>

#include "graph/graph.h"

namespace ppfr::privacy {

// LapGraph ε-edge-DP mechanism (Wu et al., LinkTeller, S&P'22): adds
// Laplace(1/ε) noise to every upper-triangular adjacency cell, then keeps the
// top-|E| noisy cells as the perturbed edge set (|E| estimated privately in
// the original; here the true count is used, which only helps the baseline).
//
// Cost: n(n−1)/2 Laplace draws, one per cell in row-major order (u, then
// v > u), and O(|E|) memory: the top cells are selected while they are drawn.
// Cells rank by noisy score, highest first; equal scores rank by row-major
// pair index, lowest first.
graph::Graph LapGraph(const graph::Graph& g, double epsilon, uint64_t seed);

}  // namespace ppfr::privacy

#endif  // PPFR_PRIVACY_DEFENSE_LAP_GRAPH_H_
