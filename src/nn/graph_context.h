#ifndef PPFR_NN_GRAPH_CONTEXT_H_
#define PPFR_NN_GRAPH_CONTEXT_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"
#include "nn/sampler.h"

namespace ppfr::nn {

// A snapshot of everything a GNN forward pass needs about one graph:
// features plus the propagation operators for each architecture. PPFR's
// structure perturbations produce a *new* context from the edited graph and
// hand it to the same model — which is what makes the method model-agnostic.
struct GraphContext {
  graph::Graph graph;
  // The node features X, kept only as their CSR: bag-of-words rows are a few
  // percent nonzero, so every first layer computes X·W as ag::SpMM over it,
  // and the weight gradient Xᵀ·G uses the operand's transpose, built once
  // per context by the first backward that needs it.
  std::shared_ptr<const ag::SparseOperand> features;

  // Symmetric GCN operator D̃^{-1/2}(A+I)D̃^{-1/2}.
  std::shared_ptr<const ag::SparseOperand> gcn_adj;
  // Row-stochastic neighbour mean (GraphSAGE full-graph aggregator).
  std::shared_ptr<const ag::SparseOperand> mean_adj;
  // Destination-grouped edges including self-loops (GAT attention support).
  std::shared_ptr<const ag::EdgeSet> edges_with_self;

  int num_nodes() const { return graph.num_nodes(); }
  int feature_dim() const { return features->mat.cols(); }

  // Builds all operators from a graph + feature matrix, each written rows
  // in parallel on the active la backend's threads (the same bits at any
  // thread count).
  static GraphContext Build(graph::Graph g, la::Matrix features);

  // The feature CSR's rows of `nodes`, one row per entry in order, repeats
  // allowed: the input a block forward's GnnModel::PrepareBlock takes, and
  // FromDense of the dense rows it replaces.
  la::CsrMatrix GatherFeatures(const std::vector<int>& nodes) const;

  // Per-epoch sampled GraphSAGE aggregator (fanout neighbours per node).
  std::shared_ptr<const ag::SparseOperand> SampledMeanAdj(int fanout, Rng* rng) const;

  // The exact 2-hop block of `targets` (distinct node ids): F_2 = targets
  // in call order, F_1 = F_2 plus their neighbours, F_0 = F_1 plus theirs,
  // prefix-ordered like a NeighborSampler block. Each hop carries the output
  // rows of mean_adj, gcn_adj and edges_with_self with the full graph's
  // weights, so a 2-layer block forward of any model yields the full-graph
  // logits at the targets (up to summation order). The global-to-local id
  // map is a dense array over the graph's nodes, 4 bytes per node for the
  // duration of the call. Each output row's local columns are sorted once
  // per hop, on their own (no sort over the whole block), and the mean_adj
  // and gcn_adj rows are both sliced through that order.
  SampledBlock ExactBlock(const std::vector<int>& targets) const;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GRAPH_CONTEXT_H_
