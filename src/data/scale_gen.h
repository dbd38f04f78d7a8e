#ifndef PPFR_DATA_SCALE_GEN_H_
#define PPFR_DATA_SCALE_GEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/csr_builder.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"

namespace ppfr::data {

// Configuration for the streamed power-law block-model generator — the scale
// axis counterpart of SbmConfig (data/sbm.h). Same block-model semantics
// (homophily-calibrated intra/inter edge budgets, class-signature features)
// but engineered for 10^5–10^7 nodes: labels are closed-form over contiguous
// node-id blocks, edges stream per block pair from counter-based RNG, and
// feature rows are generated on demand per node — nothing global beyond the
// CSR is ever materialised.
struct ScaleGraphConfig {
  int64_t num_nodes = 100000;
  int num_blocks = 4;  // classes; node ids are split into contiguous blocks
  int feature_dim = 32;  // at most 64 for ScaleDataset

  // Expected average degree and fraction of edges that stay within a block.
  double average_degree = 8.0;
  double homophily = 0.7;

  // Within-block endpoint skew: endpoints are drawn with density ∝ x^(-alpha)
  // over each block's local rank, so low ranks become hubs (power-law-ish
  // degrees). alpha <= 0 selects endpoints uniformly. Keep alpha well below
  // 1: at alpha >= 1 the density mass piles onto rank 0, most draws collide
  // on the same hub pairs, and the builder's dedupe collapses the realised
  // average degree far under `average_degree`.
  double power_law_alpha = 0.8;

  // Feature model as in SbmConfig: each class owns `signature_size` feature
  // ids; signature features fire with `feature_on_prob`, the rest with
  // `feature_noise_prob`.
  int signature_size = 8;
  double feature_on_prob = 0.4;
  double feature_noise_prob = 0.02;

  // First node id of block b (blocks are contiguous, sizes differ by <= 1).
  int64_t BlockStart(int b) const;
  // Block (= label) of node v, inverse of BlockStart.
  int BlockOf(int64_t v) const;
};

// Streams the deterministic edge multiset for (config, seed) into `emit`,
// one Rng(MixSeed(MixSeed(seed, a), b)) stream per block pair, the pairs in
// order — replaying the call yields the identical sequence. ScaleDataset
// hands the same per-pair streams to BuildCsrFromEdgeStream as separate
// parts, which is what lets the two-pass build run without an edge list and
// run the pairs concurrently. Self-loops and duplicates may be emitted; the
// build drops/collapses them.
//
// Each pair draws its power-law endpoints in batches of edges, evaluated in
// vector lanes: bit for bit the per-draw inverse-CDF formula with std::pow,
// which every draw near an integer boundary evaluates instead (see
// data/scale_gen_internal.h). Aborts on a config whose alpha, degree or
// homophily is not finite or out of range, as ScaleDataset does.
void StreamScaleEdges(const ScaleGraphConfig& config, uint64_t seed,
                      const std::function<void(int64_t, int64_t)>& emit);

// A generated attributed graph whose only resident state is the CSR
// adjacency: labels are computed, feature rows are regenerated from their
// per-node counter-based stream on each request. Deterministic in
// (config, seed); Materialize* bridges to the dense representation for
// small-scale parity tests and the dense bridge. The constructor requires
// feature_dim <= 64: a row is drawn as one 64-bit mask.
class ScaleDataset {
 public:
  ScaleDataset(const ScaleGraphConfig& config, uint64_t seed);

  const ScaleGraphConfig& config() const { return config_; }
  const graph::CsrAdjacency& adjacency() const { return adj_; }
  int64_t num_nodes() const { return config_.num_nodes; }
  int num_classes() const { return config_.num_blocks; }

  int Label(int64_t v) const { return config_.BlockOf(v); }
  std::vector<int> LabelsFor(const std::vector<int>& nodes) const;

  // Writes node v's feature row (config().feature_dim entries of 1.0 or 0.0)
  // into `row`: the bits of the node's mask, whose feature f takes the f-th
  // Bernoulli draw of the node's own RNG stream. So any row can be
  // regenerated in isolation, in any order, any number of times.
  void FillFeatureRow(int64_t v, double* row) const;
  // The feature rows of `nodes` (repeats allowed) as CSR rows, the mini-batch
  // feature path: each set bit is one entry of value 1.0, in column order, so
  // the result is FromDense of the FillFeatureRow rows, and no dense row is
  // ever written. One pass on the active la backend's threads draws and
  // counts each row's mask, a second writes the entries.
  la::CsrMatrix GatherFeatures(const std::vector<int>& nodes) const;

  // Full dense materialisations (small graphs / parity tests, and the dense
  // bridge of the scale pipeline); rows fill as FillFeatureRow's on the
  // active la backend's threads.
  la::Matrix MaterializeFeatures() const;
  std::vector<int> MaterializeLabels() const;

  // `count` nodes spread evenly over [0, num_nodes) by a strided pick with a
  // salt-dependent phase in [0, stride) — deterministic, and balanced across
  // the contiguous label blocks by construction. Two calls do NOT give
  // disjoint sets: the phase is a hash taken mod the stride, so two salts
  // can share a phase, and calls of different counts have different strides
  // and may overlap whatever their salts (a 2,048-node set can lie entirely
  // inside a 16,384-node one). Callers that need disjoint train and
  // validation sets must check for it themselves (ROADMAP).
  std::vector<int> StridedNodes(int64_t count, uint64_t salt) const;

 private:
  // Node v's feature row as a mask: bit f is feature f's Bernoulli draw, the
  // draws taken in feature order from the node's stream.
  uint64_t FeatureBits(int64_t v) const;

  ScaleGraphConfig config_;
  uint64_t seed_;
  graph::CsrAdjacency adj_;
};

}  // namespace ppfr::data

#endif  // PPFR_DATA_SCALE_GEN_H_
