#include "data/scale_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "data/scale_gen_internal.h"
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

// ln x for positive normal x, built like la::Exp from MulAdds, selects and
// exponent-bit integer arithmetic, so that GCC vectorises the loop around
// it. x = 2^k·m with m in (√2/2, √2]; ln m = 2·atanh(s) with
// s = (m − 1)/(m + 1), |s| < 0.172, summed as its odd Taylor series to s^23
// (truncation below 2^-60); k·ln 2 in two parts as in la::Exp. A few ulp:
// the ranks' exactness rests on the guard in PowerLawRanks, not on this.
double Log(double x) {
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // 32 significant bits
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  // m takes x's mantissa under the exponent of 1 or, above √2, of 1/2: an
  // integer select, since GCC does not if-convert a multiply that may trap.
  // The biased exponent (< 2^11) becomes a double through the low bits of
  // 2^52, with no integer conversion.
  const uint64_t mantissa = bits & kMantissa;
  const bool halve = mantissa > (std::bit_cast<uint64_t>(std::numbers::sqrt2) & kMantissa);
  const double m = std::bit_cast<double>(mantissa | std::bit_cast<uint64_t>(halve ? 0.5 : 1.0));
  const double biased = std::bit_cast<double>((bits >> 52) | std::bit_cast<uint64_t>(0x1p52)) -
                        0x1p52;
  const double k = biased - (halve ? 1022.0 : 1023.0);
  const double f = m - 1.0;  // exact
  const double s = f / (2.0 + f);
  const double z = s * s;
  double p = 1.0 / 23.0;
  p = la::MulAdd(p, z, 1.0 / 21.0);
  p = la::MulAdd(p, z, 1.0 / 19.0);
  p = la::MulAdd(p, z, 1.0 / 17.0);
  p = la::MulAdd(p, z, 1.0 / 15.0);
  p = la::MulAdd(p, z, 1.0 / 13.0);
  p = la::MulAdd(p, z, 1.0 / 11.0);
  p = la::MulAdd(p, z, 1.0 / 9.0);
  p = la::MulAdd(p, z, 1.0 / 7.0);
  p = la::MulAdd(p, z, 1.0 / 5.0);
  p = la::MulAdd(p, z, 1.0 / 3.0);
  const double two_s = 2.0 * s;
  const double log_m = la::MulAdd(two_s * z, p, two_s);
  return la::MulAdd(k, kLn2Hi, la::MulAdd(k, kLn2Lo, log_m));
}

// Rank guard: a batched draw keeps its fast y only farther than
// y·(kGuard + |inv_e|·2^-47·(1 + 1/b)) from the nearest integer.
constexpr double kGuard = 1e-9;

}  // namespace

namespace internal {

PowerLawBlock::PowerLawBlock(int64_t size, double alpha)
    : n(size), uniform(alpha <= 0.0), log_branch(std::fabs(alpha - 1.0) < 1e-12) {
  const double top = static_cast<double>(n) + 1.0;
  const double e = 1.0 - alpha;
  span = std::pow(top, e) - 1.0;
  inv_e = 1.0 / e;
  log_top = std::log(top);
}

int64_t PowerLawRank(const PowerLawBlock& block, double u) {
  const double x = block.log_branch ? std::exp(u * block.log_top)
                                    : std::pow(1.0 + u * block.span, block.inv_e);
  const int64_t rank = static_cast<int64_t>(std::floor(x)) - 1;
  return std::clamp<int64_t>(rank, 0, block.n - 1);
}

// A rank reads only floor(x), so a cheap x known to lie on the same side of
// every integer as std::pow's result gives the same rank. The batch computes
// y = la::Exp(inv_e · Log(b)), b = 1 + u·span (la::Exp(u·log top) at
// alpha = 1), in vector lanes. A draw keeps floor(y) only when y is finite,
// lies in [1, n + 1] and is farther than its guard from the nearest integer
// (both distances are exact: y and its floor are within a factor of 2);
// every other draw evaluates PowerLawRank, the per-draw std::pow. Why a
// kept floor is std::pow's:
//   * Given the same b, y is within about 10^-14 relative of std::pow's
//     result: std::pow is within about 1 ulp of b^inv_e, Log and la::Exp
//     within a few ulp each, and |inv_e · ln b| = ln x <= ln(n + 1). On an
//     AVX-512 build the largest gap over 4M draws each at alpha 0.5, 0.8,
//     0.95, 1.5 and 3, n from 2 to 2.5·10^7, was 3.9e-15; kGuard = 10^-9
//     leaves a factor of 10^5. At alpha = 1 the two exps see the same
//     product and differ by 2 ulp.
//   * b may round differently on the two paths: here 1 + u·span is fused
//     through la::MulAdd, while the fallback's expression is contracted or
//     not as the build decides (GCC fuses it at -O2 on FMA targets, not at
//     -O0, and not at all on targets without FMA). The two roundings differ
//     by at most 2^-51·(b + 1), since |u·span| < max(b, 1), which moves x by
//     at most |inv_e|·2^-51·(1 + 1/b) relative; the guard's second term is
//     16 times that. It is negligible unless |inv_e| or 1/b is large (alpha
//     near 1, or the far tail at alpha > 1); past 1/2 every draw falls back.
//     b >= 1 − u >= 2^-53 (span >= −1), so Log sees positive normals only.
// So the ranks equal PowerLawRank's on every target and optimisation level.
void PowerLawRanks(const PowerLawBlock& block, const double* u, int count, int64_t* ranks) {
  PPFR_DCHECK(!block.uniform);
  PPFR_DCHECK_LE(count, kRankBatch);
  double y[kRankBatch] = {};
  double slack[kRankBatch] = {};
  if (block.log_branch) {
    for (int i = 0; i < count; ++i) {
      y[i] = la::Exp(u[i] * block.log_top);
      slack[i] = kGuard * y[i];
    }
  } else {
    const double b_guard = std::fabs(block.inv_e) * 0x1p-47;
    for (int i = 0; i < count; ++i) {
      const double b = la::MulAdd(u[i], block.span, 1.0);
      y[i] = la::Exp(block.inv_e * Log(b));
      slack[i] = y[i] * la::MulAdd(b_guard, 1.0 + 1.0 / b, kGuard);
    }
  }
  const double top = static_cast<double>(block.n) + 1.0;
  for (int i = 0; i < count; ++i) {
    const double f = std::floor(y[i]);
    const bool kept = y[i] >= 1.0 && y[i] <= top && std::min(y[i] - f, f + 1.0 - y[i]) > slack[i];
    ranks[i] = kept ? static_cast<int64_t>(f) - 1 : PowerLawRank(block, u[i]);
  }
}

}  // namespace internal

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

// Checks what the edge stream reads of `config`: the block layout, a finite
// degree whose edge budget fits an int64, a finite homophily in [0, 1] and a
// finite alpha. NaN or ±inf would reach std::llround and the rank's
// double-to-integer conversion, where the result is unspecified.
void CheckStreamConfig(const ScaleGraphConfig& config) {
  PPFR_CHECK_GE(config.num_blocks, 2);
  PPFR_CHECK_GE(config.num_nodes, config.num_blocks);
  PPFR_CHECK(std::isfinite(config.average_degree))
      << "average_degree " << config.average_degree << " is not finite";
  PPFR_CHECK_GE(config.average_degree, 0.0);
  PPFR_CHECK_LE(static_cast<double>(config.num_nodes) * config.average_degree / 2.0, 0x1p62)
      << "the edge budget overflows";
  PPFR_CHECK(std::isfinite(config.homophily))
      << "homophily " << config.homophily << " is not finite";
  PPFR_CHECK_GE(config.homophily, 0.0);
  PPFR_CHECK_LE(config.homophily, 1.0);
  PPFR_CHECK(std::isfinite(config.power_law_alpha))
      << "power_law_alpha " << config.power_law_alpha << " is not finite";
}

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
  const internal::PowerLawBlock block_a(config.BlockStart(pair.a + 1) - start_a,
                                       config.power_law_alpha);
  const internal::PowerLawBlock block_b(config.BlockStart(pair.b + 1) - start_b,
                                       config.power_law_alpha);
  Rng rng(MixSeed(MixSeed(MixSeed(seed, kEdgeStreamTag), static_cast<uint64_t>(pair.a)),
                  static_cast<uint64_t>(pair.b)));
  if (block_a.uniform) {  // a rank takes a varying number of draws
    for (int64_t e = 0; e < pair.count; ++e) {
      const int64_t u = start_a + rng.UniformInt(block_a.n);
      const int64_t v = start_b + rng.UniformInt(block_b.n);
      emit(u, v);
    }
    return;
  }
  // Batches of edges: the uniforms in stream order (a's, then b's, edge by
  // edge), each endpoint block's ranks in vector lanes, then the edges in
  // order.
  double u_a[internal::kRankBatch] = {};
  double u_b[internal::kRankBatch] = {};
  int64_t rank_a[internal::kRankBatch] = {};
  int64_t rank_b[internal::kRankBatch] = {};
  for (int64_t done = 0; done < pair.count; done += internal::kRankBatch) {
    const int count = static_cast<int>(std::min<int64_t>(internal::kRankBatch, pair.count - done));
    for (int i = 0; i < count; ++i) {
      u_a[i] = rng.Uniform();
      u_b[i] = rng.Uniform();
    }
    internal::PowerLawRanks(block_a, u_a, count, rank_a);
    internal::PowerLawRanks(block_b, u_b, count, rank_b);
    for (int i = 0; i < count; ++i) emit(start_a + rank_a[i], start_b + rank_b[i]);
  }
}

}  // namespace

void StreamScaleEdges(const ScaleGraphConfig& config, uint64_t seed,
                      const std::function<void(int64_t, int64_t)>& emit) {
  CheckStreamConfig(config);
  for (const BlockPair& pair : PlanBlockPairs(config)) {
    EmitBlockPair(config, seed, pair, emit);
  }
}

ScaleDataset::ScaleDataset(const ScaleGraphConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  CheckStreamConfig(config);
  PPFR_CHECK_LE(config.signature_size * config.num_blocks, config.feature_dim)
      << "class signatures must fit in the feature space";
  PPFR_CHECK_LE(config.feature_dim, 64) << "a feature row is drawn as one 64-bit mask";
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

uint64_t ScaleDataset::FeatureBits(int64_t v) const {
  const int sig_begin = Label(v) * config_.signature_size;
  const int sig_end = sig_begin + config_.signature_size;
  Rng rng(MixSeed(MixSeed(seed_, kFeatureStreamTag), static_cast<uint64_t>(v)));
  uint64_t bits = 0;
  for (int f = 0; f < config_.feature_dim; ++f) {
    const bool in_signature = f >= sig_begin && f < sig_end;
    const double prob =
        in_signature ? config_.feature_on_prob : config_.feature_noise_prob;
    bits |= static_cast<uint64_t>(rng.Bernoulli(prob)) << f;
  }
  return bits;
}

void ScaleDataset::FillFeatureRow(int64_t v, double* row) const {
  const uint64_t bits = FeatureBits(v);
  for (int f = 0; f < config_.feature_dim; ++f) row[f] = (bits >> f & 1) != 0 ? 1.0 : 0.0;
}

la::CsrMatrix ScaleDataset::GatherFeatures(const std::vector<int>& nodes) const {
  const int rows = static_cast<int>(nodes.size());
  // Pass 1 draws each row's mask once and counts it; pass 2 writes the set
  // bits, in column order, from the masks. Both write disjoint rows.
  std::vector<uint64_t> bits(nodes.size());
  std::vector<int64_t> row_ptr(nodes.size() + 1, 0);
  const la::Backend& backend = la::ActiveBackend();
  backend.Apply(rows, kFeatureRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      bits[i] = FeatureBits(nodes[i]);
      row_ptr[i + 1] = std::popcount(bits[i]);
    }
  });
  for (int i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<int> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size());
  backend.Apply(rows, kFeatureRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      int64_t k = row_ptr[i];
      for (uint64_t b = bits[i]; b != 0; b &= b - 1) {
        col_idx[k] = std::countr_zero(b);
        values[k++] = 1.0;
      }
    }
  });
  return la::CsrMatrix::FromSortedRows(rows, config_.feature_dim, std::move(row_ptr),
                                       std::move(col_idx), std::move(values));
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
