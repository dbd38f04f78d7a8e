#ifndef PPFR_DATA_SCALE_GEN_INTERNAL_H_
#define PPFR_DATA_SCALE_GEN_INTERNAL_H_

// The edge stream's power-law rank routines, exposed for their exactness
// tests. Users of the generator include data/scale_gen.h.

#include <cstdint>

namespace ppfr::data::internal {

// One block's inverse-CDF constants, computed once per block pair: with
// top = n + 1 and e = 1 − alpha, `span` = top^e − 1, `inv_e` = 1/e and
// `log_top` = log(top). The rank of a uniform u is floor(x) − 1, clamped to
// [0, n), with x = (1 + u·span)^(1/e), or x = e^(u·log top) at alpha = 1:
// the inverse CDF of density ∝ x^(−alpha) over [1, n + 1], so rank 0 is the
// block's biggest hub. alpha <= 0 draws ranks uniformly instead.
struct PowerLawBlock {
  PowerLawBlock(int64_t size, double alpha);

  int64_t n;
  bool uniform;
  bool log_branch;
  double span;
  double inv_e;
  double log_top;
};

// Uniforms per PowerLawRanks call: the edge stream draws its endpoints in
// batches of this many edges, one call per endpoint block.
inline constexpr int kRankBatch = 128;

// The rank of uniform u evaluated per draw with std::pow (std::exp at
// alpha = 1): the formula every rank must equal. Not for uniform blocks.
int64_t PowerLawRank(const PowerLawBlock& block, double u);

// ranks[i] = PowerLawRank(block, u[i]) for i < count <= kRankBatch, bit for
// bit, from a vectorised evaluation that defers to PowerLawRank on the draws
// it cannot vouch for. Not for uniform blocks.
void PowerLawRanks(const PowerLawBlock& block, const double* u, int count, int64_t* ranks);

}  // namespace ppfr::data::internal

#endif  // PPFR_DATA_SCALE_GEN_INTERNAL_H_
