#include "nn/sampler.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "la/backend.h"

namespace ppfr::nn {
namespace {
constexpr uint64_t kBlockStreamTag = 0x424c4f43;  // "BLOC"
constexpr uint64_t kBatchStreamTag = 0x42415443;  // "BATC"
// Frontier rows per backend chunk in the sampler's row loops.
constexpr int64_t kSampleRowGrain = 256;
}  // namespace

NeighborSampler::NeighborSampler(const graph::CsrAdjacency* adj,
                                 const SamplerConfig& config)
    : adj_(adj), config_(config) {
  PPFR_CHECK(adj != nullptr);
  PPFR_CHECK_GT(config.fanout, 0);
  PPFR_CHECK_GE(config.num_hops, 1);
}

SampledBlock NeighborSampler::SampleBlock(const std::vector<int>& targets,
                                          int epoch, int batch) const {
  PPFR_CHECK(!targets.empty());
  const uint64_t block_seed = MixSeed(
      MixSeed(MixSeed(config_.seed, kBlockStreamTag), static_cast<uint64_t>(epoch)),
      static_cast<uint64_t>(batch));
  const la::Backend& backend = la::ActiveBackend();

  SampledBlock out;
  out.frontier = targets;
  // Global node id -> frontier index (-1: not in the frontier yet), dense
  // over the graph's nodes.
  std::vector<int> local(static_cast<size_t>(adj_->num_nodes()), -1);
  for (size_t i = 0; i < targets.size(); ++i) {
    PPFR_CHECK_GE(targets[i], 0);
    PPFR_CHECK_LT(targets[i], adj_->num_nodes());
    int& id = local[static_cast<size_t>(targets[i])];
    PPFR_CHECK_LT(id, 0) << "duplicate target node " << targets[i] << " in batch";
    id = static_cast<int>(i);
  }

  // Build hops backward from the targets: the hop feeding frontier F_{h+1}
  // expands it (prefix-preserving) into F_h.
  std::vector<int> sizes{static_cast<int>(targets.size())};
  std::vector<SampledHop> hops_backward;
  for (int h = config_.num_hops - 1; h >= 0; --h) {
    const int num_out = static_cast<int>(out.frontier.size());
    const uint64_t hop_seed = MixSeed(block_seed, static_cast<uint64_t>(h));

    // Row o keeps min(deg, fanout) neighbours (an isolated node keeps none:
    // a zero aggregation row).
    std::vector<int64_t> row_ptr(static_cast<size_t>(num_out) + 1, 0);
    for (int o = 0; o < num_out; ++o) {
      row_ptr[o + 1] = row_ptr[o] + std::min(adj_->Degree(out.frontier[o]), config_.fanout);
    }
    const int64_t nnz = row_ptr[static_cast<size_t>(num_out)];

    // Each row's sampled neighbours as global ids in ascending order, rows in
    // parallel: every (hop, node) pair draws from its own stream.
    std::vector<int> col_idx(static_cast<size_t>(nnz));
    std::vector<double> values(static_cast<size_t>(nnz));
    backend.Apply(num_out, kSampleRowGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t o = lo; o < hi; ++o) {
        const int v = out.frontier[static_cast<size_t>(o)];
        const auto nbrs = adj_->Neighbors(v);
        const int deg = static_cast<int>(nbrs.size());
        const int64_t begin = row_ptr[static_cast<size_t>(o)];
        const int64_t count = row_ptr[static_cast<size_t>(o) + 1] - begin;
        if (count == 0) continue;
        int* const cols = col_idx.data() + begin;
        if (deg <= config_.fanout) {
          std::copy(nbrs.begin(), nbrs.end(), cols);
        } else {
          Rng rng(MixSeed(hop_seed, static_cast<uint64_t>(v)));
          std::vector<int> picks = rng.SampleWithoutReplacement(deg, config_.fanout);
          std::sort(picks.begin(), picks.end());  // ascending node ids (nbrs sorted)
          for (int j = 0; j < config_.fanout; ++j) cols[j] = nbrs[picks[j]];
        }
        std::fill_n(values.data() + begin, count, 1.0 / static_cast<double>(count));
      }
    });

    // Local ids in first-seen order over rows, then ascending node ids: the
    // canonical frontier layout. Only this walk is serial.
    for (int& u : col_idx) {
      int& id = local[static_cast<size_t>(u)];
      if (id < 0) {
        id = static_cast<int>(out.frontier.size());
        out.frontier.push_back(u);
      }
      u = id;
    }
    // A row's values are all equal, so sorting its local columns is the
    // whole canonicalisation.
    backend.Apply(num_out, kSampleRowGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t o = lo; o < hi; ++o) {
        std::sort(col_idx.begin() + row_ptr[static_cast<size_t>(o)],
                  col_idx.begin() + row_ptr[static_cast<size_t>(o) + 1]);
      }
    });

    SampledHop hop;
    hop.agg = ag::MakeSparseOperand(
        la::CsrMatrix::FromSortedRows(num_out, static_cast<int>(out.frontier.size()),
                                      std::move(row_ptr), std::move(col_idx),
                                      std::move(values)),
        /*symmetric=*/false);
    hops_backward.push_back(std::move(hop));
    sizes.push_back(static_cast<int>(out.frontier.size()));
  }

  std::reverse(sizes.begin(), sizes.end());
  out.hop_sizes = std::move(sizes);
  out.hops.reserve(hops_backward.size());
  for (auto it = hops_backward.rbegin(); it != hops_backward.rend(); ++it) {
    out.hops.push_back(std::move(*it));
  }
  return out;
}

std::vector<std::vector<int>> NeighborSampler::EpochBatches(
    const std::vector<int>& nodes, int batch_nodes, uint64_t seed, int epoch) {
  PPFR_CHECK(!nodes.empty());
  if (batch_nodes <= 0 || batch_nodes >= static_cast<int>(nodes.size())) {
    return {nodes};
  }
  std::vector<int> order = nodes;
  Rng rng(MixSeed(MixSeed(seed, kBatchStreamTag), static_cast<uint64_t>(epoch)));
  rng.Shuffle(&order);
  std::vector<std::vector<int>> batches;
  for (size_t begin = 0; begin < order.size(); begin += batch_nodes) {
    const size_t end = std::min(order.size(), begin + batch_nodes);
    batches.emplace_back(order.begin() + begin, order.begin() + end);
  }
  return batches;
}

}  // namespace ppfr::nn
