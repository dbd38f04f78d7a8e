#ifndef PPFR_NN_SAMPLER_H_
#define PPFR_NN_SAMPLER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "graph/csr_builder.h"
#include "la/csr_matrix.h"

namespace ppfr::nn {

// Fanout value meaning "take every neighbour" — the cap never binds, making
// the sampled block an exact restriction of the full-graph mean aggregator
// (the parity case the tests pin).
inline constexpr int kAllNeighbors = std::numeric_limits<int>::max();

struct SamplerConfig {
  // Max neighbours aggregated per node per hop; nodes at or under the cap
  // keep all neighbours (mean over deg), matching
  // graph::SampledMeanAggregationMatrix semantics.
  int fanout = 5;
  int num_hops = 2;  // SAGE depth
  uint64_t seed = 1;
};

// One hop of a block: local operators mapping activations over the input
// frontier F_h (columns) to the output frontier F_{h+1} (rows).
struct SampledHop {
  // Row-stochastic neighbour mean (GraphSAGE): row o averages the <= fanout
  // sampled neighbours of frontier node o with weight 1/k.
  std::shared_ptr<const ag::SparseOperand> agg;
  // Exact blocks only (GraphContext::ExactBlock), null on sampled ones: the
  // same rows of the context's GCN operator Â and of GAT's A+I attention
  // pattern, with the full graph's weights and local column indices.
  std::shared_ptr<const ag::SparseOperand> gcn;
  std::shared_ptr<const ag::EdgeSet> edges;

  int num_in() const { return agg->mat.cols(); }
  int num_out() const { return agg->mat.rows(); }
};

// A k-hop mini-batch block. `frontier` holds global node ids with the PREFIX
// property F_{num_hops} ⊆ … ⊆ F_1 ⊆ F_0 = frontier, where F_h is the
// leading hop_sizes[h] entries and F_{num_hops} is exactly `targets` in call
// order. The prefix property is what lets a layer's self-term (SAGE) or
// destination scores (GAT) be the leading rows of its input activations.
// `hops` is in forward order: layer h consumes activations over F_h and
// produces F_{h+1}. The one block type of the library: NeighborSampler
// draws fanout-capped ones for mini-batch SAGE, GraphContext::ExactBlock
// slices exact ones for the support-restricted influence engine.
struct SampledBlock {
  std::vector<int> frontier;
  std::vector<int> hop_sizes;  // num_hops + 1 entries, non-increasing
  std::vector<SampledHop> hops;

  int num_inputs() const { return hop_sizes.front(); }
  int num_targets() const { return hop_sizes.back(); }
};

// Fanout-capped k-hop block sampler over a CSR adjacency (non-owning).
// Every (hop, node) pair draws from its own counter-based RNG stream derived
// from (seed, epoch, batch, hop, node) — the sampled block is a pure function
// of those values plus `targets`, independent of thread count, iteration
// order or any other sampling that happened before (the property the
// determinism tests pin across runs and backends).
class NeighborSampler {
 public:
  NeighborSampler(const graph::CsrAdjacency* adj, const SamplerConfig& config);

  const SamplerConfig& config() const { return config_; }

  // Builds the block for one mini-batch of target nodes. Sampled neighbours
  // are kept in ascending node-id order, so the frontier layout itself is
  // canonical. Rows are sampled on the active la backend's threads, so
  // concurrent callers follow the backend's threading contract
  // (la/backend.h); the global-to-local id map is a dense array over the
  // graph's nodes, 4 bytes per node for the duration of the call.
  SampledBlock SampleBlock(const std::vector<int>& targets, int epoch,
                           int batch) const;

  // Deterministically shuffles `nodes` for `epoch` and chunks them into
  // batches of `batch_nodes` (last batch may be short); batch_nodes <= 0
  // means one batch holding everything.
  static std::vector<std::vector<int>> EpochBatches(const std::vector<int>& nodes,
                                                    int batch_nodes, uint64_t seed,
                                                    int epoch);

 private:
  const graph::CsrAdjacency* adj_;
  SamplerConfig config_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_SAMPLER_H_
