#ifndef PPFR_PRIVACY_DEFENSE_LAP_GRAPH_INTERNAL_H_
#define PPFR_PRIVACY_DEFENSE_LAP_GRAPH_INTERNAL_H_

// LapGraph's bounded top-cell selection, exposed for its tie-order test.
// Users of the mechanism include privacy/defense/lap_graph.h.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppfr::privacy::internal {

// One noisy adjacency cell: its score, its row-major pair index and (u, v).
struct ScoredCell {
  double score;
  int64_t index;
  int u;
  int v;
};

// LapGraph's order: a ranks above b iff a's score is higher, or the scores
// are equal and a comes first in row-major order.
inline bool RanksAbove(const ScoredCell& a, const ScoredCell& b) {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

// Offers `cell` to `kept`, a heap of at most `keep` cells whose root is the
// lowest-ranked kept cell. Below capacity the cell joins; at capacity it
// replaces the root iff it ranks above it. After every cell of a stream has
// been offered, `kept` holds the stream's `keep` highest-ranked cells, in
// heap order.
void OfferCell(const ScoredCell& cell, size_t keep, std::vector<ScoredCell>* kept);

}  // namespace ppfr::privacy::internal

#endif  // PPFR_PRIVACY_DEFENSE_LAP_GRAPH_INTERNAL_H_
