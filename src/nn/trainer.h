#ifndef PPFR_NN_TRAINER_H_
#define PPFR_NN_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "graph/csr_builder.h"
#include "la/csr_matrix.h"
#include "nn/models.h"

namespace ppfr::nn {

// One training run (vanilla training or a fine-tuning continuation).
struct TrainConfig {
  int epochs = 200;
  double lr = 0.01;
  double weight_decay = 5e-4;

  // λ for the InFoRM fairness regulariser λ·Tr(Yᵀ L_S Y) on the softmax
  // probabilities; active only when `fairness_laplacian` is provided.
  double fairness_reg = 0.0;
  std::shared_ptr<const la::CsrMatrix> fairness_laplacian;

  // Per-train-node loss weights (1 + w_v) from fairness-aware reweighting;
  // empty means all-ones. Aligned with `train_nodes`.
  std::vector<double> sample_weights;

  // GraphSAGE neighbour sampling fanout (per epoch).
  int sage_fanout = 5;

  // Mini-batch size for TrainSampled (target nodes per batch); <= 0 trains
  // one batch holding every train node. Ignored by full-batch Train().
  int batch_nodes = 0;

  uint64_t seed = 1;  // drives neighbour sampling only
  bool verbose = false;

  // Reuse one autograd tape across epochs (record the first forward, replay
  // thereafter — value/grad buffers are recycled instead of reallocated).
  // The loss structure is static across epochs for every model, so this is
  // purely an execution-mode switch; results are bitwise identical to the
  // fresh-tape-per-epoch path.
  bool reuse_tape = true;
};

struct TrainStats {
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
};

// Full-batch training of `model` on the given context/labels. Loss:
//   (1/|train|) Σ_v (1+w_v)·NLL(v)  +  λ·Tr(softmax(logits)ᵀ L_S softmax(logits))
// Weight decay is handled by the optimiser.
TrainStats Train(GnnModel* model, const GraphContext& ctx,
                 const std::vector<int>& train_nodes, const std::vector<int>& labels,
                 const TrainConfig& config);

// Data access for neighbour-sampled mini-batch training at scale: the CSR
// adjacency the sampler walks (non-owning) plus a feature gather producing
// the CSR rows of a frontier of global node ids on demand (one row per id,
// in order) — at no point does a full feature matrix, or a dense frontier
// matrix, exist. data::ScaleDataset::GatherFeatures binds directly.
struct SampledTrainSpec {
  const graph::CsrAdjacency* adj = nullptr;
  std::function<la::CsrMatrix(const std::vector<int>&)> gather_features;
};

// Neighbour-sampled mini-batch training (GraphSAGE only — sampled blocks
// carry no GCN or GAT operators). `train_labels` is aligned with
// `train_nodes`. Per epoch the train nodes are shuffled into batches of
// config.batch_nodes; each batch samples a fanout-capped 2-hop block
// (deterministic in (config.seed, epoch, batch)), gathers only the frontier's
// feature rows and steps Adam on the batch NLL. With batch_nodes <= 0 and
// sage_fanout >= max degree this computes the same loss as full-batch
// Train() up to float summation order (the parity the tests pin within
// tolerance). The fairness regulariser and tape reuse are full-batch-only
// features; config.fairness_laplacian must be null and reuse_tape is ignored
// (block structure changes per batch).
TrainStats TrainSampled(GnnModel* model, const SampledTrainSpec& spec,
                        const std::vector<int>& train_nodes,
                        const std::vector<int>& train_labels,
                        const TrainConfig& config);

// Inference logits for `nodes` through full-fanout (exact) sampled blocks in
// batches of `batch_nodes`: row i holds the logits of nodes[i]. Deterministic
// — no sampling randomness at full fanout.
la::Matrix SampledLogits(GnnModel* model, const SampledTrainSpec& spec,
                         const std::vector<int>& nodes, int batch_nodes = 1024);

// Process-wide count of Train() calls (vanilla runs and fine-tunes alike).
// The scenario runner's stage cache exists to drive this number down — its
// tests assert e.g. "vanilla trained exactly once per (dataset, model, seed)"
// by diffing this counter around a sweep.
int64_t TrainInvocationCount();

// Fraction of `nodes` whose argmax prediction matches the label.
double Accuracy(const la::Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& nodes);

}  // namespace ppfr::nn

#endif  // PPFR_NN_TRAINER_H_
