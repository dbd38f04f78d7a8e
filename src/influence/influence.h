#ifndef PPFR_INFLUENCE_INFLUENCE_H_
#define PPFR_INFLUENCE_INFLUENCE_H_

#include <functional>
#include <memory>
#include <vector>

#include "influence/hvp.h"
#include "influence/tape_pool.h"
#include "la/csr_matrix.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "privacy/attack/pair_sampler.h"

namespace ppfr::influence {

// Builds an evaluation function f(θ) as an autograd expression over the
// model's logits (the trailing argument is the logits node).
using FunctionBuilder = std::function<ag::Var(ag::Tape&, ag::Var)>;

struct InfluenceConfig {
  CgOptions cg;

  // Lanes for the pooled per-node backward (TapePool); <= 0 resolves to the
  // active backend's thread count, capped at 8 — so PPFR_LA_THREADS /
  // --la_threads size both the kernel pool and the tape pool.
  int tape_pool_lanes = 0;

  // Runs per-node gradients through the full-graph serial algorithm (one
  // growing tape over the full-graph forward, a full ZeroAllGrads sweep per
  // node) instead of the pooled block path. Kept as the oracle the block path
  // is tested against (agreement within 1e-12 relative) and as the "before"
  // side of bench_influence_engine.
  bool serial_reference_per_node = false;

  // Columns per block in the multi-RHS inverse-HVP solve (InfluenceOnFunctions
  // / InfluenceOnNodeLosses). 0 — the default — resolves at runtime from the
  // PPFR_CG_BLOCK environment variable, else 8; 1 disables blocking, so every
  // RHS runs through the single-RHS bitwise oracle. The resolved value for a
  // fixed RHS set is deterministic: the same block width always produces the
  // same bits regardless of thread or lane counts.
  int cg_block = 0;

  // Unused: nothing in the library reads this field. It remains only because
  // perfbench/scale.cc assigns it; the next change to the benchmark deletes
  // both the field and that assignment.
  int replay_lanes = 0;

  // Optional cell-scoped warm-pool cache (non-owning). When set, the
  // calculator's shared-forward TapePool and probe GradLanePool are acquired
  // from — and survive in — this cache instead of being rebuilt per
  // calculator and per use-site. The cache must outlive the calculator and
  // must not outlive the model/context (see ReplayCache).
  ReplayCache* replay_cache = nullptr;
};

// The block width a configured cg_block value resolves to at runtime
// (configured if > 0, else the PPFR_CG_BLOCK environment variable if > 0,
// else 8). The variable parses strictly: a value that is not an integer in
// int range ("8x", "abc", overflow) fails a check naming it; empty is unset.
// Cache keys over FR results mix THIS value, not the raw config field, so
// runs under different environments never share an entry.
int ResolveCgBlock(int configured);

// Aggregate instrumentation over the block solves an InfluenceCalculator has
// issued since construction (or the last Reset) — surfaced into
// BENCH_influence.json's block-sweep rows.
struct BlockSolveStats {
  int solves = 0;            // block solves issued
  int block_iterations = 0;  // outer block iterations, summed over solves
  int grad_evals = 0;        // probe-point gradient evaluations
  int total_rhs = 0;         // RHS columns handled
  int converged_rhs = 0;     // columns meeting the relative-residual tolerance
  double algebra_seconds = 0.0;  // wall time in block GEMM/fused kernels
  double algebra_flops = 0.0;    // ≈ flops issued to those kernels

  void Reset() { *this = BlockSolveStats(); }
};

// A seed set's exact 2-hop block with the model's precomputed first-layer
// inputs (defined in influence.cc).
struct SeedBlock;

// Per-training-node influence on scalar evaluation functions f of the
// model's predictions:
//   I_f(v) = -∇θ f(θ*)ᵀ H⁻¹ ∇θ L_v(θ*).
// Under the implicit-function-theorem sign (dθ*/dw_v = -H⁻¹∇L_v) this equals
// |Vl|·df/dw_v, the sensitivity of f to UPWEIGHTING node v — and it equals
// the paper's "leave-v-out" influence I_f(w_v = -1) under its Eq. 9
// convention (which omits the IFT minus sign). Both readings agree on every
// use in this library (QCLP coefficients, Pearson correlation study).
//
// Support restriction: in a 2-layer GNN a node's loss depends only on its
// 2-hop rows, so every loss gradient the engine replays — the training loss
// behind the CG/HVP probes (TrainingLossGrad, BatchTrainGrad), the per-node
// gradients and the target-node right-hand sides of InfluenceOnNodeLosses —
// runs on the exact 2-hop block of its seed nodes (GraphContext::ExactBlock),
// never on the full graph. Only FunctionGrad keeps the full-graph forward,
// because the bias and risk functions read every node. Contracts: block
// gradients agree with the full-graph ones within 1e-12 relative (the
// aggregation order differs, and GCN's first layer is reassociated to
// (Â·X)·W); influence agrees within 1e-8 with the same number of gradient
// evaluations; within the block path every result is bitwise invariant to
// pool lanes, thread count and call order.
//
// One forward pass per seed block is reused for all of its per-node loss
// gradients via repeated seeded backward passes; H⁻¹∇f is a damped
// block-CG solve.
class InfluenceCalculator {
 public:
  InfluenceCalculator(nn::GnnModel* model, const nn::GraphContext& ctx,
                      std::vector<int> train_nodes, const std::vector<int>& labels,
                      const InfluenceConfig& config);

  // I_f(w_v) for every training node v, given an arbitrary scalar function of
  // the logits. Single-RHS path — the bitwise oracle the block solver is
  // parity-tested against.
  std::vector<double> InfluenceOnFunction(const FunctionBuilder& build_f);

  // Batched influence: out[i][v] = I_{f_i}(w_v). All inverse-HVP solves run
  // through BlockConjugateGradientSolve in blocks of cg_block columns, and
  // the final -SᵀG contraction against the per-node loss gradients is one
  // GEMM-T. Per-column results agree with InfluenceOnFunction to solver
  // tolerance (see the parity tests); with cg_block = 1 they are bitwise
  // identical to it.
  std::vector<std::vector<double>> InfluenceOnFunctions(
      const std::vector<FunctionBuilder>& builders);

  // Influence of every training node on each target node's individual loss:
  // out[t][v] = I_{L_t}(w_v). The target-node gradient RHSs are gathered
  // from one shared forward pass over the targets' block (TapePool) and
  // solved in blocks of cg_block — the per-node influence sweep the paper's
  // correlation study (Table 2) runs, BLAS-3 end to end. Targets may repeat.
  std::vector<std::vector<double>> InfluenceOnNodeLosses(
      const std::vector<int>& target_nodes);

  // f = InFoRM bias Tr(softmax(logits)ᵀ L_S softmax(logits)).
  std::vector<double> InfluenceOnBias(
      const std::shared_ptr<const la::CsrMatrix>& laplacian);

  // f = the paper's normalised risk surrogate 2‖d̄0−d̄1‖/(var d0 + var d1).
  std::vector<double> InfluenceOnRisk(const privacy::PairSample& pairs);

  // f = the (unweighted) training loss itself — utility influence (Eq. 11).
  std::vector<double> InfluenceOnUtility();

  // Self-contained builders for the standard evaluation functions, so
  // callers can batch several of them through one InfluenceOnFunctions call
  // (each builder owns copies of what it captures).
  static FunctionBuilder BiasFunction(
      const std::shared_ptr<const la::CsrMatrix>& laplacian);
  static FunctionBuilder RiskFunction(const privacy::PairSample& pairs);
  FunctionBuilder UtilityFunction() const;

  int num_train_nodes() const { return static_cast<int>(train_nodes_.size()); }

  // The block width InfluenceOnFunctions / InfluenceOnNodeLosses will use
  // (config.cg_block, else PPFR_CG_BLOCK, else 8).
  int ResolvedCgBlock() const;

  // Instrumentation over every block solve issued so far.
  const BlockSolveStats& block_stats() const { return block_stats_; }
  void ResetBlockStats() { block_stats_.Reset(); }

  // The BatchGradFn the block solver consumes: training-loss gradients at
  // explicit parameter points, evaluated on pooled model clones (the real
  // model's parameters are never touched). Public so the engine bench and
  // the lane-invariance tests can drive it directly.
  BatchGradFn BatchTrainGrad();

  // Flat ∇θ L_v for every v, computed from one shared forward pass over the
  // training nodes' block and fanned across a TapePool — or serially on the
  // full graph in reference mode (see InfluenceConfig). Cached after the
  // first call. Public so the engine bench and the parity tests can drive
  // the two modes directly.
  const std::vector<std::vector<double>>& PerNodeLossGrads();

 private:
  // Flat ∇θ of the mean training loss at the current parameters, replayed
  // from a loss graph recorded once over the training block.
  std::vector<double> TrainingLossGrad();
  // Flat ∇θ f for an arbitrary builder (full-graph forward).
  std::vector<double> FunctionGrad(const FunctionBuilder& build_f);
  std::vector<std::vector<double>> PerNodeLossGradsSerialReference();
  // Lanes for pooled per-seed backward / batched probe gradients.
  int ResolvedLaneCount(int num_items) const;
  // The training nodes' block, built on first use.
  const std::shared_ptr<const SeedBlock>& TrainBlock();
  // ∇θ of each seed's own loss -log p(label_k | seed k), from one shared
  // forward over `block` (a TapePool acquired from config_.replay_cache when
  // a cell-scoped cache is installed, else built for this call).
  std::vector<std::vector<double>> SeedLossGrads(
      const std::shared_ptr<const SeedBlock>& block, const std::vector<int>& labels);
  // Solves (H + λI) S = B in blocks of ResolvedCgBlock() columns,
  // accumulating block_stats_; returns S with one column per RHS column.
  MultiVector SolveRhsBlock(const MultiVector& b);
  // influence[i][v] = -s_iᵀ ∇θL_v for every solution column — one GEMM-T
  // against the cached per-node loss gradients.
  std::vector<std::vector<double>> ContractAgainstNodeGrads(const MultiVector& s);

  nn::GnnModel* model_;
  const nn::GraphContext& ctx_;
  std::vector<int> train_nodes_;
  std::vector<int> train_labels_;
  std::vector<int> labels_;  // full label vector (target-node RHS seeds)
  InfluenceConfig config_;
  std::vector<ag::Parameter*> params_;
  std::vector<std::vector<double>> per_node_grads_;       // lazily filled cache
  std::shared_ptr<const SeedBlock> train_block_;         // lazily built
  std::unique_ptr<ReusableLossGraph> train_grad_graph_;  // lazily recorded
  // Probe replay pool: names the live pool (cache-owned when a ReplayCache
  // is installed, else the owned_ member).
  GradLanePool* grad_lane_pool_ = nullptr;               // lazily built
  std::unique_ptr<GradLanePool> owned_grad_lane_pool_;
  BlockSolveStats block_stats_;
};

}  // namespace ppfr::influence

#endif  // PPFR_INFLUENCE_INFLUENCE_H_
