#include "nn/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/recoverable.h"
#include "common/rng.h"
#include "nn/adam.h"
#include "nn/sampler.h"

namespace ppfr::nn {
namespace {
std::atomic<int64_t> train_invocations{0};
}  // namespace

int64_t TrainInvocationCount() { return train_invocations.load(); }

TrainStats Train(GnnModel* model, const GraphContext& ctx,
                 const std::vector<int>& train_nodes, const std::vector<int>& labels,
                 const TrainConfig& config) {
  train_invocations.fetch_add(1);
  PPFR_CHECK(!train_nodes.empty());
  PPFR_CHECK_EQ(labels.size(), static_cast<size_t>(ctx.num_nodes()));

  std::vector<int> train_labels(train_nodes.size());
  for (size_t i = 0; i < train_nodes.size(); ++i) {
    train_labels[i] = labels[train_nodes[i]];
  }
  std::vector<double> weights = config.sample_weights;
  if (weights.empty()) {
    weights.assign(train_nodes.size(), 1.0);
  }
  PPFR_CHECK_EQ(weights.size(), train_nodes.size());

  std::vector<ag::Parameter*> params = model->Params();
  Adam optimizer(params, {.lr = config.lr, .weight_decay = config.weight_decay});
  Rng sample_rng(config.seed);

  TrainStats stats;
  stats.epoch_losses.reserve(config.epochs);
  // One tape serves every epoch: the first pass records the graph structure,
  // later passes replay it in place (per-epoch state — parameter values, the
  // sampled SAGE aggregator, saved activations — is refreshed each pass
  // because replay re-runs the builders and replaces backward closures).
  ag::Tape reused_tape;
  bool recorded = false;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    ForwardOptions options;
    if (model->UsesNeighborSampling()) {
      options.sage_aggregator = ctx.SampledMeanAdj(config.sage_fanout, &sample_rng);
    }

    for (ag::Parameter* p : params) p->ZeroGrad();
    ag::Tape fresh_tape;
    ag::Tape& tape = config.reuse_tape ? reused_tape : fresh_tape;
    if (config.reuse_tape && recorded) tape.BeginReplay();
    ag::Var logits = model->Forward(tape, ctx, options);
    ag::Var logp = ag::LogSoftmaxRows(logits);
    ag::Var loss = ag::WeightedNll(logp, train_nodes, train_labels, weights,
                                   static_cast<double>(train_nodes.size()));
    if (config.fairness_laplacian != nullptr && config.fairness_reg != 0.0) {
      ag::Var probs = ag::SoftmaxRows(logits);
      ag::Var bias = ag::LaplacianQuadratic(config.fairness_laplacian, probs);
      loss = ag::Add(loss, ag::Scale(bias, config.fairness_reg));
    }
    tape.Backward(loss);
    recorded = true;
    optimizer.Step();

    // A non-finite loss is a data-dependent divergence (bad hyper-parameter
    // cell, exploding fairness term), not a programming error: raise the
    // sanctioned recoverable error so the runner can fail just this cell
    // instead of killing the whole sweep.
    if (!std::isfinite(loss.scalar())) {
      throw RecoverableError("non-finite training loss at epoch " +
                             std::to_string(epoch));
    }
    stats.epoch_losses.push_back(loss.scalar());
    if (config.verbose && epoch % 20 == 0) {
      PPFR_LOG(Info) << "epoch " << epoch << " loss " << loss.scalar();
    }
  }
  stats.final_loss = stats.epoch_losses.empty() ? 0.0 : stats.epoch_losses.back();
  return stats;
}

TrainStats TrainSampled(GnnModel* model, const SampledTrainSpec& spec,
                        const std::vector<int>& train_nodes,
                        const std::vector<int>& train_labels,
                        const TrainConfig& config) {
  train_invocations.fetch_add(1);
  PPFR_CHECK(spec.adj != nullptr);
  PPFR_CHECK(spec.gather_features != nullptr);
  PPFR_CHECK(!train_nodes.empty());
  PPFR_CHECK_EQ(train_labels.size(), train_nodes.size());
  PPFR_CHECK(config.fairness_laplacian == nullptr)
      << "the fairness regulariser needs full-graph probabilities; use Train()";
  PPFR_CHECK(config.sample_weights.empty() ||
             config.sample_weights.size() == train_nodes.size());

  // Per-node label/weight lookup survives the per-epoch batch shuffles.
  std::unordered_map<int, size_t> node_index;
  node_index.reserve(train_nodes.size() * 2);
  for (size_t i = 0; i < train_nodes.size(); ++i) {
    node_index.emplace(train_nodes[i], i);
  }

  NeighborSampler sampler(spec.adj, {.fanout = config.sage_fanout,
                                     .num_hops = 2,
                                     .seed = config.seed});
  std::vector<ag::Parameter*> params = model->Params();
  Adam optimizer(params, {.lr = config.lr, .weight_decay = config.weight_decay});

  TrainStats stats;
  stats.epoch_losses.reserve(config.epochs);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::vector<int>> batches = NeighborSampler::EpochBatches(
        train_nodes, config.batch_nodes, config.seed, epoch);
    double epoch_loss = 0.0;
    for (size_t b = 0; b < batches.size(); ++b) {
      const std::vector<int>& batch = batches[b];
      const SampledBlock block =
          sampler.SampleBlock(batch, epoch, static_cast<int>(b));

      std::vector<int> rows(batch.size());
      std::vector<int> labels(batch.size());
      std::vector<double> weights(batch.size(), 1.0);
      for (size_t i = 0; i < batch.size(); ++i) {
        rows[i] = static_cast<int>(i);  // targets are the leading logits rows
        const size_t idx = node_index.at(batch[i]);
        labels[i] = train_labels[idx];
        if (!config.sample_weights.empty()) weights[i] = config.sample_weights[idx];
      }

      for (ag::Parameter* p : params) p->ZeroGrad();
      // The block structure (frontier, aggregators) changes per batch, so
      // each step records a fresh tape — reuse_tape is a full-batch feature.
      ag::Tape tape;
      ag::Var logits = model->ForwardBlock(
          tape, block, model->PrepareBlock(block, spec.gather_features(block.frontier)));
      ag::Var logp = ag::LogSoftmaxRows(logits);
      ag::Var loss = ag::WeightedNll(logp, rows, labels, weights,
                                     static_cast<double>(batch.size()));
      tape.Backward(loss);
      optimizer.Step();

      if (!std::isfinite(loss.scalar())) {
        throw RecoverableError("non-finite sampled training loss at epoch " +
                               std::to_string(epoch) + " batch " +
                               std::to_string(b));
      }
      epoch_loss += loss.scalar() * static_cast<double>(batch.size());
    }
    epoch_loss /= static_cast<double>(train_nodes.size());
    stats.epoch_losses.push_back(epoch_loss);
    if (config.verbose && epoch % 20 == 0) {
      PPFR_LOG(Info) << "epoch " << epoch << " sampled loss " << epoch_loss;
    }
  }
  stats.final_loss = stats.epoch_losses.empty() ? 0.0 : stats.epoch_losses.back();
  return stats;
}

la::Matrix SampledLogits(GnnModel* model, const SampledTrainSpec& spec,
                         const std::vector<int>& nodes, int batch_nodes) {
  PPFR_CHECK(spec.adj != nullptr);
  PPFR_CHECK(spec.gather_features != nullptr);
  PPFR_CHECK(!nodes.empty());
  // Full fanout makes every block the exact 2-hop neighbourhood — inference
  // is deterministic and the epoch/batch stream indices are inert.
  NeighborSampler sampler(spec.adj, {.fanout = kAllNeighbors, .num_hops = 2,
                                     .seed = 0});
  la::Matrix out;
  int64_t row = 0;
  for (size_t begin = 0; begin < nodes.size();) {
    const size_t end = batch_nodes > 0
                           ? std::min(nodes.size(), begin + static_cast<size_t>(batch_nodes))
                           : nodes.size();
    const std::vector<int> batch(nodes.begin() + begin, nodes.begin() + end);
    const SampledBlock block = sampler.SampleBlock(batch, 0, 0);
    ag::Tape tape;
    ag::Var logits = model->ForwardBlock(
        tape, block, model->PrepareBlock(block, spec.gather_features(block.frontier)));
    const la::Matrix& vals = logits.value();
    if (out.rows() == 0) {
      // The batches cover every row.
      out = la::Matrix(static_cast<int>(nodes.size()), vals.cols(), la::kUninitialized);
    }
    for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
      std::copy(vals.row(i), vals.row(i) + vals.cols(),
                out.row(static_cast<int>(row + i)));
    }
    row += static_cast<int64_t>(batch.size());
    begin = end;
  }
  return out;
}

double Accuracy(const la::Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& nodes) {
  PPFR_CHECK(!nodes.empty());
  const std::vector<int> pred = la::ArgmaxRows(logits);
  int64_t correct = 0;
  for (int v : nodes) {
    if (pred[v] == labels[v]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

}  // namespace ppfr::nn
