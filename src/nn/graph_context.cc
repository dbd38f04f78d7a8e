#include "nn/graph_context.h"

#include <algorithm>
#include <unordered_map>

#include "graph/graph_ops.h"

namespace ppfr::nn {
namespace {

using LocalIds = std::unordered_map<int, int>;  // global node id -> frontier index

int LocalId(const LocalIds& local, int v, int num_in) {
  const auto it = local.find(v);
  PPFR_CHECK(it != local.end() && it->second < num_in)
      << "node " << v << " lies outside the block's input frontier";
  return it->second;
}

// Rows frontier[0, num_out) of `op`, columns mapped onto the input frontier
// F_h = frontier[0, num_in).
std::shared_ptr<const ag::SparseOperand> SliceRows(const ag::SparseOperand& op,
                                                   const std::vector<int>& frontier,
                                                   int num_out, int num_in,
                                                   const LocalIds& local) {
  const la::CsrMatrix& m = op.mat;
  std::vector<la::Triplet> triplets;
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    for (int64_t k = m.row_ptr()[v]; k < m.row_ptr()[v + 1]; ++k) {
      triplets.push_back({o, LocalId(local, m.col_idx()[k], num_in),
                          m.values()[static_cast<size_t>(k)]});
    }
  }
  return ag::MakeSparseOperand(
      la::CsrMatrix::FromTriplets(num_out, num_in, std::move(triplets)),
      /*symmetric=*/false);
}

// Same rows of a destination-grouped edge set, in the full graph's order.
std::shared_ptr<const ag::EdgeSet> SliceRows(const ag::EdgeSet& edges,
                                             const std::vector<int>& frontier,
                                             int num_out, int num_in,
                                             const LocalIds& local) {
  auto out = std::make_shared<ag::EdgeSet>();
  out->num_nodes = num_out;
  out->row_ptr.assign(1, 0);
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    for (int64_t k = edges.row_ptr[v]; k < edges.row_ptr[v + 1]; ++k) {
      out->col_idx.push_back(LocalId(local, edges.col_idx[k], num_in));
    }
    out->row_ptr.push_back(static_cast<int64_t>(out->col_idx.size()));
  }
  return out;
}

}  // namespace

GraphContext GraphContext::Build(graph::Graph g, la::Matrix features) {
  PPFR_CHECK_EQ(g.num_nodes(), features.rows());
  GraphContext ctx;
  ctx.gcn_adj = ag::MakeSparseOperand(graph::GcnNormalizedAdjacency(g), /*symmetric=*/true);
  ctx.mean_adj =
      ag::MakeSparseOperand(graph::MeanAggregationMatrix(g), /*symmetric=*/false);

  auto edges = std::make_shared<ag::EdgeSet>();
  const int n = g.num_nodes();
  edges->num_nodes = n;
  edges->row_ptr.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    edges->row_ptr[v + 1] = edges->row_ptr[v] + g.Degree(v) + 1;  // +1 self-loop
  }
  edges->col_idx.resize(edges->row_ptr[n]);
  for (int v = 0; v < n; ++v) {
    int64_t k = edges->row_ptr[v];
    edges->col_idx[k++] = v;
    for (int u : g.Neighbors(v)) edges->col_idx[k++] = u;
  }
  ctx.edges_with_self = std::move(edges);

  ctx.graph = std::move(g);
  ctx.features =
      ag::MakeSparseOperand(la::CsrMatrix::FromDense(features), /*symmetric=*/false);
  return ctx;
}

la::Matrix GraphContext::GatherFeatures(const std::vector<int>& nodes) const {
  const la::CsrMatrix& x = features->mat;
  la::Matrix out(static_cast<int>(nodes.size()), x.cols());
  for (int i = 0; i < out.rows(); ++i) {
    const int v = nodes[static_cast<size_t>(i)];
    PPFR_DCHECK_GE(v, 0);
    PPFR_DCHECK_LT(v, x.rows());
    double* row = out.row(i);
    for (int64_t k = x.row_ptr()[v]; k < x.row_ptr()[v + 1]; ++k) {
      row[x.col_idx()[k]] = x.values()[static_cast<size_t>(k)];
    }
  }
  return out;
}

std::shared_ptr<const ag::SparseOperand> GraphContext::SampledMeanAdj(int fanout,
                                                                      Rng* rng) const {
  return ag::MakeSparseOperand(graph::SampledMeanAggregationMatrix(graph, fanout, rng),
                               /*symmetric=*/false);
}

SampledBlock GraphContext::ExactBlock(const std::vector<int>& targets) const {
  PPFR_CHECK(!targets.empty());
  SampledBlock block;
  block.frontier = targets;
  LocalIds local;
  local.reserve(targets.size() * 16);
  for (size_t i = 0; i < targets.size(); ++i) {
    PPFR_CHECK_GE(targets[i], 0);
    PPFR_CHECK_LT(targets[i], num_nodes());
    PPFR_CHECK(local.emplace(targets[i], static_cast<int>(i)).second)
        << "duplicate target node " << targets[i];
  }
  // Expand F_2 -> F_1 -> F_0; every new neighbour is appended, so each
  // frontier is a prefix of the next.
  std::vector<int> sizes{static_cast<int>(targets.size())};
  for (int h = 0; h < 2; ++h) {
    const int num_out = sizes.back();
    for (int o = 0; o < num_out; ++o) {
      for (int u : graph.Neighbors(block.frontier[static_cast<size_t>(o)])) {
        if (local.emplace(u, static_cast<int>(block.frontier.size())).second) {
          block.frontier.push_back(u);
        }
      }
    }
    sizes.push_back(static_cast<int>(block.frontier.size()));
  }
  std::reverse(sizes.begin(), sizes.end());
  block.hop_sizes = sizes;
  for (int h = 0; h < 2; ++h) {
    const int num_in = sizes[static_cast<size_t>(h)];
    const int num_out = sizes[static_cast<size_t>(h) + 1];
    SampledHop hop;
    hop.agg = SliceRows(*mean_adj, block.frontier, num_out, num_in, local);
    hop.gcn = SliceRows(*gcn_adj, block.frontier, num_out, num_in, local);
    hop.edges = SliceRows(*edges_with_self, block.frontier, num_out, num_in, local);
    block.hops.push_back(std::move(hop));
  }
  return block;
}

}  // namespace ppfr::nn
