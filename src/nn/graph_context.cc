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

// Rows frontier[0, num_out) of `mean_adj` and `gcn_adj` into hop->agg and
// hop->gcn, columns mapped onto the input frontier F_h = frontier[0, num_in),
// each row sorted by local column with its weights copied: bit for bit the
// FromTriplets builds of the same entries, whose 0.0 + w sums change only a
// −0.0 weight, which the operators never hold (theirs are positive). Row v
// of gcn_adj is row v of mean_adj with the self-loop v merged in at its
// sorted position (Build), so each row's local columns are sorted once, as
// gcn_adj's, and mean_adj's row is the same order less the self-loop.
void SliceOperatorRows(const la::CsrMatrix& mean_adj, const la::CsrMatrix& gcn_adj,
                       const std::vector<int>& frontier, int num_out, int num_in,
                       const std::vector<int>& local, SampledHop* hop) {
  std::vector<int64_t> agg_ptr = SliceRowPtr(mean_adj.row_ptr(), frontier, num_out);
  std::vector<int64_t> gcn_ptr = SliceRowPtr(gcn_adj.row_ptr(), frontier, num_out);
  std::vector<int> agg_col(static_cast<size_t>(agg_ptr.back()));
  std::vector<double> agg_val(agg_col.size());
  std::vector<int> gcn_col(static_cast<size_t>(gcn_ptr.back()));
  std::vector<double> gcn_val(gcn_col.size());
  std::vector<uint64_t> order;  // local column << 32 | position in the gcn_adj row
  for (int o = 0; o < num_out; ++o) {
    const int v = frontier[static_cast<size_t>(o)];
    const int64_t begin = gcn_adj.row_ptr()[v];
    const int64_t agg_begin = mean_adj.row_ptr()[v];
    PPFR_DCHECK_EQ(gcn_adj.row_ptr()[v + 1] - begin, mean_adj.row_ptr()[v + 1] - agg_begin + 1);
    order.clear();
    uint64_t self = 0;
    for (int64_t k = begin; k < gcn_adj.row_ptr()[v + 1]; ++k) {
      const int col = gcn_adj.col_idx()[k];
      if (col == v) self = static_cast<uint64_t>(k - begin);
      order.push_back(static_cast<uint64_t>(LocalId(local, col, num_in)) << 32 |
                      static_cast<uint64_t>(k - begin));
    }
    std::sort(order.begin(), order.end());  // the columns are distinct
    int64_t g = gcn_ptr[static_cast<size_t>(o)];
    int64_t a = agg_ptr[static_cast<size_t>(o)];
    for (const uint64_t key : order) {
      const int col = static_cast<int>(key >> 32);
      const uint64_t j = key & 0xffffffffu;
      gcn_col[static_cast<size_t>(g)] = col;
      gcn_val[static_cast<size_t>(g++)] = gcn_adj.values()[static_cast<size_t>(begin) + j];
      if (j == self) continue;
      const size_t k = static_cast<size_t>(agg_begin) + j - (j > self ? 1 : 0);
      PPFR_DCHECK_EQ(mean_adj.col_idx()[k], gcn_adj.col_idx()[static_cast<size_t>(begin) + j]);
      agg_col[static_cast<size_t>(a)] = col;
      agg_val[static_cast<size_t>(a++)] = mean_adj.values()[k];
    }
  }
  hop->agg = ag::MakeSparseOperand(
      la::CsrMatrix::FromSortedRows(num_out, num_in, std::move(agg_ptr), std::move(agg_col),
                                    std::move(agg_val)),
      /*symmetric=*/false);
  hop->gcn = ag::MakeSparseOperand(
      la::CsrMatrix::FromSortedRows(num_out, num_in, std::move(gcn_ptr), std::move(gcn_col),
                                    std::move(gcn_val)),
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

la::CsrMatrix GraphContext::GatherFeatures(const std::vector<int>& nodes) const {
  const la::CsrMatrix& x = features->mat;
  const int rows = static_cast<int>(nodes.size());
  for (const int v : nodes) {
    PPFR_CHECK(v >= 0 && v < x.rows()) << "node " << v << " is not in the graph";
  }
  std::vector<int64_t> row_ptr = SliceRowPtr(x.row_ptr(), nodes, rows);
  std::vector<int> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size());
  for (int i = 0; i < rows; ++i) {
    const int64_t begin = x.row_ptr()[nodes[i]];
    const int64_t end = x.row_ptr()[nodes[i] + 1];
    std::copy(x.col_idx().begin() + begin, x.col_idx().begin() + end, col_idx.begin() + row_ptr[i]);
    std::copy(x.values().begin() + begin, x.values().begin() + end, values.begin() + row_ptr[i]);
  }
  return la::CsrMatrix::FromSortedRows(rows, x.cols(), std::move(row_ptr), std::move(col_idx),
                                       std::move(values));
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
    SliceOperatorRows(mean_adj->mat, gcn_adj->mat, block.frontier, num_out, num_in, local, &hop);
    hop.edges = SliceRows(*edges_with_self, block.frontier, num_out, num_in, local);
    block.hops.push_back(std::move(hop));
  }
  return block;
}

}  // namespace ppfr::nn
