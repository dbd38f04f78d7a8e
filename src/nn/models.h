#ifndef PPFR_NN_MODELS_H_
#define PPFR_NN_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/graph_context.h"
#include "nn/sage_conv.h"
#include "nn/sampler.h"

namespace ppfr::nn {

enum class ModelKind { kGcn, kGat, kGraphSage };

std::string ModelKindName(ModelKind kind);

// Per-forward options. `sage_aggregator` carries the per-epoch sampled
// neighbour mean for GraphSAGE training passes.
struct ForwardOptions {
  std::shared_ptr<const ag::SparseOperand> sage_aggregator;
};

// The parameter-independent first-layer inputs of a block forward, computed
// once per block by GnnModel::PrepareBlock and read by every forward and
// replay over that block. Each model fills only what it reads.
struct BlockInputs {
  std::shared_ptr<const ag::SparseOperand> x;  // GAT: CSR of the features over F_0
  la::Matrix self;  // SAGE: features over F_1 (the self term)
  la::Matrix agg;   // the first aggregation over F_1: Â·X (GCN), mean·X (SAGE)
};

// A node-classification GNN. Forward returns raw logits (n x classes); the
// trainer / metrics apply (log-)softmax.
class GnnModel {
 public:
  virtual ~GnnModel() = default;

  virtual ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                          const ForwardOptions& options) = 0;
  // The inputs ForwardBlock reads, from `x`, the features of block.frontier
  // (one row per frontier node). GCN and SAGE aggregate their first layer
  // here, so a block forward never touches the 2-hop rows again; GAT's
  // attention needs the 2-hop features themselves, which it keeps as their
  // CSR so its first layer is an SpMM like the full-graph one.
  virtual BlockInputs PrepareBlock(const SampledBlock& block, la::Matrix x) const = 0;
  // Forward over a 2-hop block (nn/sampler.h): logits for the block's
  // targets, block.num_targets() rows in frontier order. GCN and GAT need an
  // exact block (GraphContext::ExactBlock); SAGE also runs on sampled
  // mini-batch blocks.
  virtual ag::Var ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                               const BlockInputs& inputs) = 0;
  virtual std::vector<ag::Parameter*> Params() = 0;
  virtual ModelKind kind() const = 0;
  // Deep copy (used to keep the vanilla model while fine-tuning a clone).
  virtual std::unique_ptr<GnnModel> Clone() const = 0;

  // True when training should resample neighbourhoods each epoch.
  bool UsesNeighborSampling() const { return kind() == ModelKind::kGraphSage; }

  // Convenience: forward pass without sampling, returning logits values.
  la::Matrix Logits(const GraphContext& ctx);
  // Softmax probabilities of Logits().
  la::Matrix PredictProbs(const GraphContext& ctx);
};

// Two-layer GCN: ReLU(Â X W1) -> Â H W2.
class Gcn final : public GnnModel {
 public:
  Gcn(int in_dim, int hidden_dim, int num_classes, uint64_t seed);

  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                  const ForwardOptions& options) override;
  BlockInputs PrepareBlock(const SampledBlock& block, la::Matrix x) const override;
  ag::Var ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                       const BlockInputs& inputs) override;
  std::vector<ag::Parameter*> Params() override;
  ModelKind kind() const override { return ModelKind::kGcn; }
  std::unique_ptr<GnnModel> Clone() const override;

 private:
  GcnConv conv1_;
  GcnConv conv2_;
};

// Two-layer GAT: ELU(GAT(in->hidden, heads)) -> GAT(hidden*heads->C, 1 head).
class Gat final : public GnnModel {
 public:
  Gat(int in_dim, int hidden_dim, int num_classes, int heads, uint64_t seed);

  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                  const ForwardOptions& options) override;
  BlockInputs PrepareBlock(const SampledBlock& block, la::Matrix x) const override;
  ag::Var ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                       const BlockInputs& inputs) override;
  std::vector<ag::Parameter*> Params() override;
  ModelKind kind() const override { return ModelKind::kGat; }
  std::unique_ptr<GnnModel> Clone() const override;

 private:
  GatConv conv1_;
  GatConv conv2_;
};

// Two-layer GraphSAGE with mean aggregation and neighbour sampling.
class GraphSage final : public GnnModel {
 public:
  GraphSage(int in_dim, int hidden_dim, int num_classes, uint64_t seed);

  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                  const ForwardOptions& options) override;
  BlockInputs PrepareBlock(const SampledBlock& block, la::Matrix x) const override;
  ag::Var ForwardBlock(ag::Tape& tape, const SampledBlock& block,
                       const BlockInputs& inputs) override;
  std::vector<ag::Parameter*> Params() override;
  ModelKind kind() const override { return ModelKind::kGraphSage; }
  std::unique_ptr<GnnModel> Clone() const override;

 private:
  SageConv conv1_;
  SageConv conv2_;
};

// Factory with per-kind default hyperparameters (hidden width, heads).
std::unique_ptr<GnnModel> MakeModel(ModelKind kind, int in_dim, int num_classes,
                                    uint64_t seed);

}  // namespace ppfr::nn

#endif  // PPFR_NN_MODELS_H_
