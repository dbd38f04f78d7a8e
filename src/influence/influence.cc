#include "influence/influence.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/flags.h"
#include "fairness/bias_metric.h"
#include "influence/param_vector.h"
#include "la/backend.h"
#include "privacy/risk_metric.h"

namespace ppfr::influence {

struct SeedBlock {
  nn::SampledBlock block;  // exact 2-hop block of the distinct seeds
  nn::BlockInputs inputs;  // the model's precomputed first layer over it
  std::vector<int> rows;   // logits row of each seed, in seed order
  std::string key;         // names the seed list in ReplayCache keys
};

namespace {

std::shared_ptr<const SeedBlock> MakeSeedBlock(const nn::GnnModel& model,
                                               const nn::GraphContext& ctx,
                                               const std::vector<int>& seeds) {
  auto out = std::make_shared<SeedBlock>();
  std::vector<int> distinct;
  std::unordered_map<int, int> row_of;
  out->rows.reserve(seeds.size());
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a over the seed list
  for (int v : seeds) {
    const auto [it, inserted] = row_of.emplace(v, static_cast<int>(distinct.size()));
    if (inserted) distinct.push_back(v);
    out->rows.push_back(it->second);
    hash = (hash ^ static_cast<uint32_t>(v)) * 1099511628211ULL;
  }
  out->block = ctx.ExactBlock(distinct);
  out->inputs = model.PrepareBlock(out->block, ctx.GatherFeatures(out->block.frontier));
  out->key = std::to_string(seeds.size()) + "/" + std::to_string(hash);
  return out;
}

// The mean NLL of the seeds' labels over their block.
ReusableLossGraph::Builder SeedLossBuilder(nn::GnnModel* model,
                                           std::shared_ptr<const SeedBlock> block,
                                           std::vector<int> labels) {
  return [model, block = std::move(block), labels = std::move(labels)](ag::Tape& tape) {
    ag::Var logits = model->ForwardBlock(tape, block->block, block->inputs);
    ag::Var logp = ag::LogSoftmaxRows(logits);
    const std::vector<double> ones(block->rows.size(), 1.0);
    return ag::WeightedNll(logp, block->rows, labels, ones,
                           static_cast<double>(block->rows.size()));
  };
}

// Model identity in ReplayCache keys.
std::string ModelKey(const nn::GnnModel* model) {
  return std::to_string(reinterpret_cast<std::uintptr_t>(model));
}

}  // namespace

InfluenceCalculator::InfluenceCalculator(nn::GnnModel* model,
                                         const nn::GraphContext& ctx,
                                         std::vector<int> train_nodes,
                                         const std::vector<int>& labels,
                                         const InfluenceConfig& config)
    : model_(model),
      ctx_(ctx),
      train_nodes_(std::move(train_nodes)),
      labels_(labels),
      config_(config) {
  PPFR_CHECK(!train_nodes_.empty());
  params_ = model_->Params();
  train_labels_.reserve(train_nodes_.size());
  for (int v : train_nodes_) {
    PPFR_CHECK_GE(v, 0);
    PPFR_CHECK_LT(v, static_cast<int>(labels.size()));
    train_labels_.push_back(labels[v]);
  }
}

int ResolveCgBlock(int configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("PPFR_CG_BLOCK"); env != nullptr && *env != '\0') {
    int64_t v = 0;
    PPFR_CHECK(ParseInt64Strict(env, &v) && v >= std::numeric_limits<int>::min() &&
               v <= std::numeric_limits<int>::max())
        << "PPFR_CG_BLOCK must be an integer, got '" << env << "'";
    if (v > 0) return static_cast<int>(v);
  }
  return 8;
}

int InfluenceCalculator::ResolvedCgBlock() const {
  return ResolveCgBlock(config_.cg_block);
}

int InfluenceCalculator::ResolvedLaneCount(int num_items) const {
  int lanes = config_.tape_pool_lanes;
  if (lanes <= 0) lanes = std::min(la::ActiveBackend().num_threads(), 8);
  return std::max(1, std::min(lanes, num_items));
}

const std::shared_ptr<const SeedBlock>& InfluenceCalculator::TrainBlock() {
  if (train_block_ == nullptr) train_block_ = MakeSeedBlock(*model_, ctx_, train_nodes_);
  return train_block_;
}

std::vector<double> InfluenceCalculator::TrainingLossGrad() {
  if (train_grad_graph_ == nullptr) {
    train_grad_graph_ = std::make_unique<ReusableLossGraph>(
        SeedLossBuilder(model_, TrainBlock(), train_labels_), params_);
  }
  return train_grad_graph_->Grad();
}

std::vector<double> InfluenceCalculator::FunctionGrad(const FunctionBuilder& build_f) {
  for (ag::Parameter* p : params_) p->ZeroGrad();
  ag::Tape tape;
  ag::Var logits = model_->Forward(tape, ctx_, nn::ForwardOptions{});
  ag::Var f = build_f(tape, logits);
  tape.Backward(f);
  return FlattenGrads(params_);
}

const std::vector<std::vector<double>>& InfluenceCalculator::PerNodeLossGrads() {
  if (!per_node_grads_.empty()) return per_node_grads_;
  per_node_grads_ = config_.serial_reference_per_node
                        ? PerNodeLossGradsSerialReference()
                        : SeedLossGrads(TrainBlock(), train_labels_);
  return per_node_grads_;
}

std::vector<std::vector<double>> InfluenceCalculator::SeedLossGrads(
    const std::shared_ptr<const SeedBlock>& block, const std::vector<int>& labels) {
  // Lane count saturates at the backend's thread budget; PerSeedGrads clamps
  // to the seed count per call, and results are lane-count-invariant bit for
  // bit, so one pool serves sweeps of every size.
  const int lanes = ResolvedLaneCount(std::numeric_limits<int>::max());
  // The builder captures the model by pointer and the block by value (never
  // `this`): a cache-owned pool outlives this calculator and rewarms against
  // the same model object from a later one.
  nn::GnnModel* model = model_;
  const TapePool::Builder builder = [model, block](ag::Tape& tape) {
    return ag::LogSoftmaxRows(model->ForwardBlock(tape, block->block, block->inputs));
  };
  std::unique_ptr<TapePool> owned;
  TapePool* pool = nullptr;
  if (config_.replay_cache != nullptr) {
    pool = config_.replay_cache->GetOrCreateTapePool(
        "fwd:" + ModelKey(model_) + ":" + block->key + ":" + std::to_string(lanes),
        [&] { return std::make_unique<TapePool>(builder, params_, lanes); });
  } else {
    owned = std::make_unique<TapePool>(builder, params_, lanes);
    pool = owned.get();
  }
  // Seed dL_k/dlogp = -1 at (row_k, label_k) — exactly the gradient a
  // single-node WeightedNll writes, without materialising a loss node.
  return pool->PerSeedGrads(
      static_cast<int>(labels.size()),
      [&block, &labels](int k, std::vector<int>* rows, std::vector<int>* cols,
                        std::vector<double>* values) {
        rows->push_back(block->rows[static_cast<size_t>(k)]);
        cols->push_back(labels[static_cast<size_t>(k)]);
        values->push_back(-1.0);
      });
}

// The full-graph oracle the block path is tested against: one growing tape
// over the full-graph forward, a full ZeroAllGrads sweep and a
// Parameter::grad round-trip per node.
std::vector<std::vector<double>>
InfluenceCalculator::PerNodeLossGradsSerialReference() {
  ag::Tape tape;
  ag::Var logits = model_->Forward(tape, ctx_, nn::ForwardOptions{});
  ag::Var logp = ag::LogSoftmaxRows(logits);
  la::Matrix seed(1, 1);
  seed(0, 0) = 1.0;
  std::vector<std::vector<double>> grads;
  grads.reserve(train_nodes_.size());
  for (size_t k = 0; k < train_nodes_.size(); ++k) {
    for (ag::Parameter* p : params_) p->ZeroGrad();
    tape.ZeroAllGrads();
    ag::Var loss_v = ag::WeightedNll(logp, {train_nodes_[k]}, {train_labels_[k]},
                                     {1.0}, 1.0);
    tape.BackwardWithSeed(loss_v, seed);
    grads.push_back(FlattenGrads(params_));
  }
  return grads;
}

BatchGradFn InfluenceCalculator::BatchTrainGrad() {
  if (grad_lane_pool_ == nullptr) {
    // Every lane owns a full model clone and replays its loss graph over the
    // training block once per probe point, so probe evaluation never touches
    // the real parameters. Central differencing issues at most 2·cg_block
    // points per call; lane count follows tape_pool_lanes over that budget,
    // clamped to the backend's thread count, since workers beyond it buy no
    // concurrency. Per-point gradients are bitwise invariant to the lane
    // count, so the clamp only moves time.
    const int lanes = std::max(1, std::min(ResolvedLaneCount(2 * ResolvedCgBlock()),
                                           la::ActiveBackend().num_threads()));
    // Captures are by value / stable pointer (never `this`): a cache-owned
    // pool outlives this calculator.
    nn::GnnModel* model = model_;
    const GradLanePool::LaneFactory factory = [model, block = TrainBlock(),
                                               labels = train_labels_] {
      GradLane lane;
      std::unique_ptr<nn::GnnModel> clone = model->Clone();
      lane.params = clone->Params();
      lane.graph = std::make_unique<ReusableLossGraph>(
          SeedLossBuilder(clone.get(), block, labels), lane.params);
      lane.owner = std::shared_ptr<void>(std::move(clone));
      return lane;
    };
    if (config_.replay_cache != nullptr) {
      const std::string key = "lanes:" + ModelKey(model_) + ":" + TrainBlock()->key +
                              ":" + std::to_string(lanes);
      grad_lane_pool_ = config_.replay_cache->GetOrCreateGradLanePool(
          key, [&] { return std::make_unique<GradLanePool>(factory, lanes); });
    } else {
      owned_grad_lane_pool_ = std::make_unique<GradLanePool>(factory, lanes);
      grad_lane_pool_ = owned_grad_lane_pool_.get();
    }
  }
  return [this](const std::vector<std::vector<double>>& points) {
    return grad_lane_pool_->GradsAt(points);
  };
}

MultiVector InfluenceCalculator::SolveRhsBlock(const MultiVector& b) {
  const int block = ResolvedCgBlock();
  const GradFn train_grad = [this] { return TrainingLossGrad(); };
  const BatchGradFn batch_grad = BatchTrainGrad();
  MultiVector solution(b.dim(), b.k());
  for (int begin = 0; begin < b.k(); begin += block) {
    const int end = std::min(begin + block, b.k());
    std::vector<int> cols(static_cast<size_t>(end - begin));
    for (int j = begin; j < end; ++j) cols[static_cast<size_t>(j - begin)] = j;
    const BlockCgResult chunk = BlockConjugateGradientSolve(
        params_, train_grad, batch_grad, b.SelectColumns(cols), config_.cg);
    for (int j = begin; j < end; ++j) {
      solution.SetColumn(j, chunk.x.Column(j - begin));
      if (chunk.converged[static_cast<size_t>(j - begin)]) ++block_stats_.converged_rhs;
    }
    ++block_stats_.solves;
    block_stats_.block_iterations += chunk.stats.block_iterations;
    block_stats_.grad_evals += chunk.stats.grad_evals;
    block_stats_.total_rhs += end - begin;
    block_stats_.algebra_seconds += chunk.stats.algebra_seconds;
    block_stats_.algebra_flops += chunk.stats.algebra_flops;
  }
  return solution;
}

std::vector<std::vector<double>> InfluenceCalculator::ContractAgainstNodeGrads(
    const MultiVector& s) {
  // I(i, v) = -s_iᵀ ∇θL_v: one (num_f × num_train) GEMM-T against the cached
  // node-gradient block instead of num_f · num_train separate VDots.
  const MultiVector node_grads = MultiVector::FromColumns(PerNodeLossGrads());
  const la::Matrix prod = BlockGram(s, node_grads);
  std::vector<std::vector<double>> influence(
      static_cast<size_t>(s.k()),
      std::vector<double>(train_nodes_.size(), 0.0));
  for (int i = 0; i < s.k(); ++i) {
    for (size_t v = 0; v < train_nodes_.size(); ++v) {
      influence[static_cast<size_t>(i)][v] = -prod(i, static_cast<int>(v));
    }
  }
  return influence;
}

std::vector<std::vector<double>> InfluenceCalculator::InfluenceOnFunctions(
    const std::vector<FunctionBuilder>& builders) {
  if (builders.empty()) return {};
  std::vector<std::vector<double>> rhs;
  rhs.reserve(builders.size());
  for (const FunctionBuilder& build_f : builders) rhs.push_back(FunctionGrad(build_f));
  return ContractAgainstNodeGrads(SolveRhsBlock(MultiVector::FromColumns(rhs)));
}

std::vector<std::vector<double>> InfluenceCalculator::InfluenceOnNodeLosses(
    const std::vector<int>& target_nodes) {
  if (target_nodes.empty()) return {};
  std::vector<int> target_labels;
  target_labels.reserve(target_nodes.size());
  for (int t : target_nodes) {
    PPFR_CHECK_GE(t, 0);
    PPFR_CHECK_LT(t, static_cast<int>(labels_.size()));
    target_labels.push_back(labels_[static_cast<size_t>(t)]);
  }
  // The target-node loss gradients ∇θL_t from one shared forward over the
  // targets' own block; it is released before the solve.
  const std::vector<std::vector<double>> rhs =
      SeedLossGrads(MakeSeedBlock(*model_, ctx_, target_nodes), target_labels);
  return ContractAgainstNodeGrads(SolveRhsBlock(MultiVector::FromColumns(rhs)));
}

std::vector<double> InfluenceCalculator::InfluenceOnFunction(
    const FunctionBuilder& build_f) {
  const std::vector<double> grad_f = FunctionGrad(build_f);
  const GradFn train_grad = [this] { return TrainingLossGrad(); };
  const CgResult solve = ConjugateGradientSolve(params_, train_grad, grad_f, config_.cg);

  // I_f(w_v) = -s_fᵀ ∇θL_v with s_f = H⁻¹∇θf. The contraction runs through
  // the same GEMM-T kernel as the batched path (not a VDot per node), so a
  // cg_block = 1 batched call is bitwise identical to this oracle on every
  // backend — the reduction order matches by construction.
  return ContractAgainstNodeGrads(MultiVector::FromColumns({solve.x}))[0];
}

FunctionBuilder InfluenceCalculator::BiasFunction(
    const std::shared_ptr<const la::CsrMatrix>& laplacian) {
  return [laplacian](ag::Tape& tape, ag::Var logits) {
    (void)tape;
    ag::Var probs = ag::SoftmaxRows(logits);
    return ag::LaplacianQuadratic(laplacian, probs);
  };
}

FunctionBuilder InfluenceCalculator::RiskFunction(const privacy::PairSample& pairs) {
  return [pairs](ag::Tape& tape, ag::Var logits) {
    return privacy::RiskSurrogate(tape, logits, pairs);
  };
}

FunctionBuilder InfluenceCalculator::UtilityFunction() const {
  const std::vector<int> nodes = train_nodes_;
  const std::vector<int> node_labels = train_labels_;
  return [nodes, node_labels](ag::Tape& tape, ag::Var logits) {
    (void)tape;
    ag::Var logp = ag::LogSoftmaxRows(logits);
    const std::vector<double> ones(nodes.size(), 1.0);
    return ag::WeightedNll(logp, nodes, node_labels, ones,
                           static_cast<double>(nodes.size()));
  };
}

std::vector<double> InfluenceCalculator::InfluenceOnBias(
    const std::shared_ptr<const la::CsrMatrix>& laplacian) {
  return InfluenceOnFunction(BiasFunction(laplacian));
}

std::vector<double> InfluenceCalculator::InfluenceOnRisk(
    const privacy::PairSample& pairs) {
  return InfluenceOnFunction(RiskFunction(pairs));
}

std::vector<double> InfluenceCalculator::InfluenceOnUtility() {
  return InfluenceOnFunction(UtilityFunction());
}

}  // namespace ppfr::influence
