#include "data/scale_gen.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "la/backend.h"

namespace ppfr::data {
namespace {

// Stream-tag constants folded into the base seed so the edge, feature and
// split streams never alias each other.
constexpr uint64_t kEdgeStreamTag = 0x45444745;     // "EDGE"
constexpr uint64_t kFeatureStreamTag = 0x46454154;  // "FEAT"
constexpr uint64_t kSplitStreamTag = 0x53504c54;    // "SPLT"

// Feature rows per backend chunk: each row is its own RNG stream, so rows
// fill in any order and on any thread with the same bits.
constexpr int64_t kFeatureRowGrain = 256;

// One block's inverse-CDF constants for PowerLawRank, computed once per block
// pair: with top = n + 1 and e = 1 − alpha, `span` = top^e − 1, `inv_e` =
// 1/e and `log_top` = log(top). Each draw then evaluates the same
// expressions as a per-draw evaluation of the constants would, bit for bit.
struct PowerLawBlock {
  PowerLawBlock(int64_t size, double alpha)
      : n(size),
        uniform(alpha <= 0.0),
        log_branch(std::fabs(alpha - 1.0) < 1e-12) {
    const double top = static_cast<double>(n) + 1.0;
    const double e = 1.0 - alpha;
    span = std::pow(top, e) - 1.0;
    inv_e = 1.0 / e;
    log_top = std::log(top);
  }

  int64_t n;
  bool uniform;
  bool log_branch;
  double span;
  double inv_e;
  double log_top;
};

// Draws a local rank in [0, n) with density ∝ x^(-alpha) over the continuous
// relaxation [1, n+1] (inverse CDF), so rank 0 is the block's biggest hub.
// alpha <= 0 falls back to uniform.
int64_t PowerLawRank(const PowerLawBlock& block, Rng* rng) {
  if (block.uniform) return rng->UniformInt(block.n);
  const double u = rng->Uniform();
  const double x = block.log_branch ? std::exp(u * block.log_top)
                                    : std::pow(1.0 + u * block.span, block.inv_e);
  const int64_t rank = static_cast<int64_t>(std::floor(x)) - 1;
  return std::clamp<int64_t>(rank, 0, block.n - 1);
}

}  // namespace

int64_t ScaleGraphConfig::BlockStart(int b) const {
  PPFR_CHECK_GE(b, 0);
  PPFR_CHECK_LE(b, num_blocks);
  return static_cast<int64_t>(b) * num_nodes / num_blocks;
}

int ScaleGraphConfig::BlockOf(int64_t v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes);
  // floor(v·B/n) lands on the right block up to boundary rounding; nudge.
  int b = static_cast<int>(v * num_blocks / num_nodes);
  while (b + 1 < num_blocks && v >= BlockStart(b + 1)) ++b;
  while (b > 0 && v < BlockStart(b)) --b;
  return b;
}

namespace {

// One block pair's share of the edge stream: `count` endpoint draws from the
// pair's own counter-based stream Rng(MixSeed(MixSeed(edge seed, a), b)).
struct BlockPair {
  int a = 0;
  int b = 0;
  int64_t count = 0;
};

// The block pairs a <= b in stream order, each with its deterministic edge
// budget: intra-block pairs take `homophily` of the edges in proportion to
// block size, cross pairs the rest in proportion to |a|·|b|. Pairs that
// cannot hold an edge are left out.
std::vector<BlockPair> PlanBlockPairs(const ScaleGraphConfig& config) {
  const int64_t n = config.num_nodes;
  const int num_blocks = config.num_blocks;
  const double total_edges = static_cast<double>(n) * config.average_degree / 2.0;
  const auto size_of = [&config](int b) {
    return config.BlockStart(b + 1) - config.BlockStart(b);
  };

  // Cross-pair weight normaliser: inter-block budget splits ∝ |a|·|b|.
  double cross_weight = 0.0;
  for (int a = 0; a < num_blocks; ++a) {
    for (int b = a + 1; b < num_blocks; ++b) {
      cross_weight += static_cast<double>(size_of(a)) * static_cast<double>(size_of(b));
    }
  }

  std::vector<BlockPair> plan;
  for (int a = 0; a < num_blocks; ++a) {
    const int64_t size_a = size_of(a);
    for (int b = a; b < num_blocks; ++b) {
      const int64_t size_b = size_of(b);
      double budget;
      if (a == b) {
        if (size_a < 2) continue;
        budget = config.homophily * total_edges * static_cast<double>(size_a) /
                 static_cast<double>(n);
      } else {
        if (cross_weight <= 0.0) continue;
        budget = (1.0 - config.homophily) * total_edges *
                 (static_cast<double>(size_a) * static_cast<double>(size_b)) /
                 cross_weight;
      }
      plan.push_back({a, b, static_cast<int64_t>(std::llround(budget))});
    }
  }
  return plan;
}

// Replays one block pair's stream into `emit`. Self-loops (u == v, intra
// pairs only) and duplicates are emitted; BuildCsrFromEdgeStream drops and
// collapses them.
void EmitBlockPair(const ScaleGraphConfig& config, uint64_t seed, const BlockPair& pair,
                   const std::function<void(int64_t, int64_t)>& emit) {
  const int64_t start_a = config.BlockStart(pair.a);
  const int64_t start_b = config.BlockStart(pair.b);
  const PowerLawBlock block_a(config.BlockStart(pair.a + 1) - start_a, config.power_law_alpha);
  const PowerLawBlock block_b(config.BlockStart(pair.b + 1) - start_b, config.power_law_alpha);
  Rng rng(MixSeed(MixSeed(MixSeed(seed, kEdgeStreamTag), static_cast<uint64_t>(pair.a)),
                  static_cast<uint64_t>(pair.b)));
  for (int64_t e = 0; e < pair.count; ++e) {
    const int64_t u = start_a + PowerLawRank(block_a, &rng);
    const int64_t v = start_b + PowerLawRank(block_b, &rng);
    emit(u, v);
  }
}

}  // namespace

void StreamScaleEdges(const ScaleGraphConfig& config, uint64_t seed,
                      const std::function<void(int64_t, int64_t)>& emit) {
  for (const BlockPair& pair : PlanBlockPairs(config)) {
    EmitBlockPair(config, seed, pair, emit);
  }
}

ScaleDataset::ScaleDataset(const ScaleGraphConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  PPFR_CHECK_GE(config.num_blocks, 2);
  PPFR_CHECK_GE(config.num_nodes, config.num_blocks);
  PPFR_CHECK_GE(config.average_degree, 0.0);
  PPFR_CHECK_GE(config.homophily, 0.0);
  PPFR_CHECK_LE(config.homophily, 1.0);
  PPFR_CHECK_LE(config.signature_size * config.num_blocks, config.feature_dim)
      << "class signatures must fit in the feature space";
  // One part per block pair: the pairs' streams are independent, so both
  // passes of the CSR build run them concurrently.
  const std::vector<BlockPair> plan = PlanBlockPairs(config_);
  adj_ = graph::BuildCsrFromEdgeStream(
      config_.num_nodes, static_cast<int>(plan.size()),
      [this, &plan](int p, const graph::EdgeEmit& emit) {
        EmitBlockPair(config_, seed_, plan[static_cast<size_t>(p)], emit);
      });
}

std::vector<int> ScaleDataset::LabelsFor(const std::vector<int>& nodes) const {
  std::vector<int> labels(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) labels[i] = Label(nodes[i]);
  return labels;
}

void ScaleDataset::FillFeatureRow(int64_t v, double* row) const {
  const int cls = Label(v);
  const int sig_begin = cls * config_.signature_size;
  const int sig_end = sig_begin + config_.signature_size;
  Rng rng(MixSeed(MixSeed(seed_, kFeatureStreamTag), static_cast<uint64_t>(v)));
  for (int f = 0; f < config_.feature_dim; ++f) {
    const bool in_signature = f >= sig_begin && f < sig_end;
    const double prob =
        in_signature ? config_.feature_on_prob : config_.feature_noise_prob;
    row[f] = rng.Bernoulli(prob) ? 1.0 : 0.0;
  }
}

la::Matrix ScaleDataset::GatherFeatures(const std::vector<int>& nodes) const {
  la::Matrix out(static_cast<int>(nodes.size()), config_.feature_dim, la::kUninitialized);
  la::ActiveBackend().Apply(out.rows(), kFeatureRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      FillFeatureRow(nodes[static_cast<size_t>(i)], out.row(static_cast<int>(i)));
    }
  });
  return out;
}

la::Matrix ScaleDataset::MaterializeFeatures() const {
  PPFR_CHECK_LE(config_.num_nodes, int64_t{1} << 22)
      << "MaterializeFeatures is a small-scale parity helper";
  la::Matrix out(static_cast<int>(config_.num_nodes), config_.feature_dim, la::kUninitialized);
  la::ActiveBackend().Apply(out.rows(), kFeatureRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) FillFeatureRow(v, out.row(static_cast<int>(v)));
  });
  return out;
}

std::vector<int> ScaleDataset::MaterializeLabels() const {
  std::vector<int> labels(static_cast<size_t>(config_.num_nodes));
  for (int64_t v = 0; v < config_.num_nodes; ++v) {
    labels[static_cast<size_t>(v)] = Label(v);
  }
  return labels;
}

std::vector<int> ScaleDataset::StridedNodes(int64_t count, uint64_t salt) const {
  PPFR_CHECK_GT(count, 0);
  PPFR_CHECK_LE(count, config_.num_nodes);
  const int64_t stride = config_.num_nodes / count;
  const int64_t phase = static_cast<int64_t>(
      MixSeed(MixSeed(seed_, kSplitStreamTag), salt) % static_cast<uint64_t>(stride ? stride : 1));
  std::vector<int> nodes(static_cast<size_t>(count));
  for (int64_t k = 0; k < count; ++k) {
    nodes[static_cast<size_t>(k)] = static_cast<int>(k * stride + phase);
  }
  return nodes;
}

}  // namespace ppfr::data
