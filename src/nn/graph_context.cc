#include "nn/graph_context.h"

#include <algorithm>
#include <utility>

#include "graph/graph_ops.h"
#include "la/backend.h"

namespace ppfr::nn {
namespace {

// Frontier index of global node v; `local` is dense over the graph's nodes
// (-1: not in the block).
int LocalId(const std::vector<int>& local, int v, int num_in) {
  const int id = local[static_cast<size_t>(v)];
  PPFR_CHECK(id >= 0 && id < num_in) << "node " << v << " lies outside the block's input frontier";
  return id;
}

// Row offsets of rows frontier[0, num_out) of a CSR with offsets `row_ptr`.
std::vector<int64_t> SliceRowPtr(const std::vector<int64_t>& row_ptr,
                                 const std::vector<int>& frontier, int num_out) {
  std::vector<int64_t> out(static_cast<size_t>(num_out) + 1, 0);
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    out[static_cast<size_t>(o) + 1] = out[static_cast<size_t>(o)] + row_ptr[v + 1] - row_ptr[v];
  }
  return out;
}

// Rows frontier[0, num_out) of `op`, columns mapped onto the input frontier
// F_h = frontier[0, num_in), each row sorted by local column with its
// weights copied: bit for bit the FromTriplets build of the same entries,
// whose 0.0 + w sums change only a −0.0 weight, which the operators never
// hold (theirs are positive).
std::shared_ptr<const ag::SparseOperand> SliceRows(const ag::SparseOperand& op,
                                                   const std::vector<int>& frontier,
                                                   int num_out, int num_in,
                                                   const std::vector<int>& local) {
  const la::CsrMatrix& m = op.mat;
  std::vector<int64_t> row_ptr = SliceRowPtr(m.row_ptr(), frontier, num_out);
  std::vector<int> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size());
  std::vector<std::pair<int, double>> row;
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    row.clear();
    for (int64_t k = m.row_ptr()[v]; k < m.row_ptr()[v + 1]; ++k) {
      row.emplace_back(LocalId(local, m.col_idx()[k], num_in), m.values()[static_cast<size_t>(k)]);
    }
    std::sort(row.begin(), row.end());  // the columns are distinct
    int64_t k = row_ptr[static_cast<size_t>(o)];
    for (const auto& [col, value] : row) {
      col_idx[static_cast<size_t>(k)] = col;
      values[static_cast<size_t>(k++)] = value;
    }
  }
  return ag::MakeSparseOperand(
      la::CsrMatrix::FromSortedRows(num_out, num_in, std::move(row_ptr), std::move(col_idx),
                                    std::move(values)),
      /*symmetric=*/false);
}

// Same rows of a destination-grouped edge set, in the full graph's order.
std::shared_ptr<const ag::EdgeSet> SliceRows(const ag::EdgeSet& edges,
                                             const std::vector<int>& frontier,
                                             int num_out, int num_in,
                                             const std::vector<int>& local) {
  auto out = std::make_shared<ag::EdgeSet>();
  out->num_nodes = num_out;
  out->row_ptr = SliceRowPtr(edges.row_ptr, frontier, num_out);
  out->col_idx.resize(static_cast<size_t>(out->row_ptr.back()));
  int* col = out->col_idx.data();
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    for (int64_t k = edges.row_ptr[v]; k < edges.row_ptr[v + 1]; ++k) {
      *col++ = LocalId(local, edges.col_idx[k], num_in);
    }
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
  la::ActiveBackend().Apply(n, graph::kOperatorRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      int* col = edges->col_idx.data() + edges->row_ptr[v];
      *col++ = static_cast<int>(v);
      const auto nbrs = g.Neighbors(static_cast<int>(v));
      std::copy(nbrs.begin(), nbrs.end(), col);
    }
  });
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
  // Global node id -> frontier index (-1: not in the frontier yet), dense
  // over the graph's nodes.
  std::vector<int> local(static_cast<size_t>(num_nodes()), -1);
  for (size_t i = 0; i < targets.size(); ++i) {
    PPFR_CHECK_GE(targets[i], 0);
    PPFR_CHECK_LT(targets[i], num_nodes());
    int& id = local[static_cast<size_t>(targets[i])];
    PPFR_CHECK_LT(id, 0) << "duplicate target node " << targets[i];
    id = static_cast<int>(i);
  }
  // Expand F_2 -> F_1 -> F_0; every new neighbour is appended, so each
  // frontier is a prefix of the next.
  std::vector<int> sizes{static_cast<int>(targets.size())};
  for (int h = 0; h < 2; ++h) {
    const int num_out = sizes.back();
    for (int o = 0; o < num_out; ++o) {
      for (int u : graph.Neighbors(block.frontier[static_cast<size_t>(o)])) {
        int& id = local[static_cast<size_t>(u)];
        if (id < 0) {
          id = static_cast<int>(block.frontier.size());
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
