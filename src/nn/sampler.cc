#include "nn/sampler.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"

namespace ppfr::nn {
namespace {
constexpr uint64_t kBlockStreamTag = 0x424c4f43;  // "BLOC"
constexpr uint64_t kBatchStreamTag = 0x42415443;  // "BATC"
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

  SampledBlock out;
  out.frontier = targets;
  std::unordered_map<int, int> local;  // global node id -> frontier index
  local.reserve(targets.size() * 4);
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto [it, inserted] = local.emplace(targets[i], static_cast<int>(i));
    PPFR_CHECK(inserted) << "duplicate target node " << targets[i] << " in batch";
  }

  // Build hops backward from the targets: the hop feeding frontier F_{h+1}
  // expands it (prefix-preserving) into F_h.
  std::vector<int> sizes{static_cast<int>(targets.size())};
  std::vector<SampledHop> hops_backward;
  std::vector<int> sampled;  // neighbour scratch, reused across nodes
  for (int h = config_.num_hops - 1; h >= 0; --h) {
    const int num_out = static_cast<int>(out.frontier.size());
    const uint64_t hop_seed = MixSeed(block_seed, static_cast<uint64_t>(h));
    std::vector<la::Triplet> triplets;
    triplets.reserve(static_cast<size_t>(num_out) *
                     std::min<int64_t>(config_.fanout, 16));
    for (int o = 0; o < num_out; ++o) {
      const int v = out.frontier[o];
      const auto nbrs = adj_->Neighbors(v);
      const int deg = static_cast<int>(nbrs.size());
      if (deg == 0) continue;  // isolated node: zero aggregation row
      sampled.clear();
      if (deg <= config_.fanout) {
        sampled.assign(nbrs.begin(), nbrs.end());
      } else {
        Rng rng(MixSeed(hop_seed, static_cast<uint64_t>(v)));
        std::vector<int> picks = rng.SampleWithoutReplacement(deg, config_.fanout);
        std::sort(picks.begin(), picks.end());  // ascending node ids (nbrs sorted)
        for (int idx : picks) sampled.push_back(nbrs[idx]);
      }
      const double w = 1.0 / static_cast<double>(sampled.size());
      for (int u : sampled) {
        auto [it, inserted] = local.emplace(u, static_cast<int>(out.frontier.size()));
        if (inserted) out.frontier.push_back(u);
        triplets.push_back({o, it->second, w});
      }
    }
    SampledHop hop;
    hop.agg = ag::MakeSparseOperand(
        la::CsrMatrix::FromTriplets(num_out, static_cast<int>(out.frontier.size()),
                                    std::move(triplets)),
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
