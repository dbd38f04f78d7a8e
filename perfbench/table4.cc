// The paper-table4 workload: the registered `table4` grid (3 datasets x
// GCN/GAT/SAGE x 5 methods) through runner::RunSweep with a fresh in-memory
// RunCache and one runner thread, on the paper's environments
// (core::kDefaultEnvSeed, the grid the reference table records). Every
// workload seed runs this same grid in the registered order. Each input the
// seed could pick moved a measured metric: other environment seeds train on
// other datasets and change the sweep's length, and another block order
// changes which cached stages are alive at the peak (peak RSS ranged
// 140-165 MB over ten orders).
//
// --trace 1 also runs a traced replay: the same core primitives in
// core::RunMethod's stage order, sharing vanilla/DP/PP/FR results the way
// runner::RunCache does, with spans around each call. Its cell metrics must
// equal the untraced sweep's bit for bit, or the per-layer numbers would
// describe a different program.

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/fr.h"
#include "core/methods.h"
#include "core/metrics.h"
#include "fairness/bias_metric.h"
#include "influence/influence.h"
#include "la/matrix.h"
#include "nn/trainer.h"
#include "privacy/attack/link_stealing.h"
#include "privacy/risk_metric.h"
#include "probe.h"
#include "runner/run_cache.h"
#include "runner/runner.h"
#include "solver/qclp.h"

namespace perfbench {
namespace {

namespace core = ppfr::core;
namespace data = ppfr::data;
namespace influence = ppfr::influence;
namespace la = ppfr::la;
namespace nn = ppfr::nn;
namespace runner = ppfr::runner;

// Per-cell results of the untraced sweep on the paper's environments,
// recorded on a 4-core AVX-512 host (Release). A cell fails the correctness
// gate when it leaves the tolerance band below. The bands are as wide as a
// change of environment or method seed moves single cells (up to 0.23
// accuracy, 58% bias and 0.11 AUC): they catch broken numerics (non-finite,
// collapsed or exploding metrics), not rounding; the ppfr.* end-to-end
// metrics carry the tight bounds.
struct ReferenceCell {
  const char* dataset;
  const char* model;
  const char* method;
  double accuracy;
  double bias;
  double risk_auc;
};

constexpr double kAccuracyTolerance = 0.35;  // absolute
constexpr double kBiasTolerance = 0.9;       // relative
constexpr double kRiskTolerance = 0.17;      // absolute

constexpr ReferenceCell kReference[] = {
    {"CoraLike", "GCN", "Vanilla", 0.877679, 0.458324, 0.877289},
    {"CoraLike", "GCN", "Reg", 0.832143, 0.342557, 0.881195},
    {"CoraLike", "GCN", "DPReg", 0.566071, 0.400686, 0.837501},
    {"CoraLike", "GCN", "DPFR", 0.799107, 0.438184, 0.873226},
    {"CoraLike", "GCN", "PPFR", 0.815179, 0.443508, 0.873684},
    {"CoraLike", "GAT", "Vanilla", 0.773214, 0.548582, 0.840571},
    {"CoraLike", "GAT", "Reg", 0.789286, 0.266588, 0.887506},
    {"CoraLike", "GAT", "DPReg", 0.436607, 0.668602, 0.769062},
    {"CoraLike", "GAT", "DPFR", 0.710714, 0.499418, 0.846295},
    {"CoraLike", "GAT", "PPFR", 0.720536, 0.489949, 0.853202},
    {"CoraLike", "GraphSage", "Vanilla", 0.751786, 0.520212, 0.837414},
    {"CoraLike", "GraphSage", "Reg", 0.789286, 0.255869, 0.869908},
    {"CoraLike", "GraphSage", "DPReg", 0.391964, 0.416479, 0.624902},
    {"CoraLike", "GraphSage", "DPFR", 0.702679, 0.539012, 0.823192},
    {"CoraLike", "GraphSage", "PPFR", 0.737500, 0.537161, 0.832009},
    {"CiteseerLike", "GCN", "Vanilla", 0.579630, 0.377430, 0.852460},
    {"CiteseerLike", "GCN", "Reg", 0.576852, 0.256308, 0.862548},
    {"CiteseerLike", "GCN", "DPReg", 0.409259, 0.522176, 0.783879},
    {"CiteseerLike", "GCN", "DPFR", 0.572222, 0.361896, 0.844090},
    {"CiteseerLike", "GCN", "PPFR", 0.571296, 0.367492, 0.845784},
    {"CiteseerLike", "GAT", "Vanilla", 0.552778, 0.435237, 0.798388},
    {"CiteseerLike", "GAT", "Reg", 0.560185, 0.181814, 0.871027},
    {"CiteseerLike", "GAT", "DPReg", 0.306481, 0.513729, 0.696104},
    {"CiteseerLike", "GAT", "DPFR", 0.524074, 0.434087, 0.785275},
    {"CiteseerLike", "GAT", "PPFR", 0.549074, 0.426976, 0.802400},
    {"CiteseerLike", "GraphSage", "Vanilla", 0.430556, 0.552516, 0.634711},
    {"CiteseerLike", "GraphSage", "Reg", 0.522222, 0.184605, 0.813137},
    {"CiteseerLike", "GraphSage", "DPReg", 0.280556, 0.321713, 0.589226},
    {"CiteseerLike", "GraphSage", "DPFR", 0.422222, 0.539781, 0.644198},
    {"CiteseerLike", "GraphSage", "PPFR", 0.427778, 0.547308, 0.644480},
    {"PubmedLike", "GCN", "Vanilla", 0.920290, 0.587850, 0.794044},
    {"PubmedLike", "GCN", "Reg", 0.909420, 0.528644, 0.795407},
    {"PubmedLike", "GCN", "DPReg", 0.800000, 0.651827, 0.774496},
    {"PubmedLike", "GCN", "DPFR", 0.911957, 0.580877, 0.793057},
    {"PubmedLike", "GCN", "PPFR", 0.913406, 0.586617, 0.791280},
    {"PubmedLike", "GAT", "Vanilla", 0.814493, 0.723910, 0.730438},
    {"PubmedLike", "GAT", "Reg", 0.741667, 0.369657, 0.751455},
    {"PubmedLike", "GAT", "DPReg", 0.471377, 0.350823, 0.603637},
    {"PubmedLike", "GAT", "DPFR", 0.808696, 0.708687, 0.726512},
    {"PubmedLike", "GAT", "PPFR", 0.793841, 0.733659, 0.725150},
    {"PubmedLike", "GraphSage", "Vanilla", 0.857971, 0.666214, 0.751739},
    {"PubmedLike", "GraphSage", "Reg", 0.813768, 0.396237, 0.761323},
    {"PubmedLike", "GraphSage", "DPReg", 0.375362, 0.235028, 0.532521},
    {"PubmedLike", "GraphSage", "DPFR", 0.858696, 0.674542, 0.743138},
    {"PubmedLike", "GraphSage", "PPFR", 0.862319, 0.668691, 0.749110},
};

std::string CellName(const runner::Scenario& cell) {
  return data::DatasetName(cell.dataset) + "/" + nn::ModelKindName(cell.model) + "/" +
         cell.DisplayLabel();
}

// Accuracy/bias/risk of one cell against its reference band.
bool WithinReference(const runner::Scenario& cell, const core::EvalResult& eval) {
  for (const ReferenceCell& ref : kReference) {
    if (data::DatasetName(cell.dataset) != ref.dataset ||
        nn::ModelKindName(cell.model) != ref.model ||
        core::MethodName(cell.method) != ref.method) {
      continue;
    }
    return std::fabs(eval.accuracy - ref.accuracy) <= kAccuracyTolerance &&
           std::fabs(eval.bias / ref.bias - 1.0) <= kBiasTolerance &&
           std::fabs(eval.risk_auc - ref.risk_auc) <= kRiskTolerance;
  }
  return false;  // a cell the reference does not know is a failed check
}

bool Finite(const core::EvalResult& e) {
  return std::isfinite(e.accuracy) && std::isfinite(e.bias) &&
         std::isfinite(e.risk_auc) && std::isfinite(e.delta_d);
}

const char* TrainSpan(nn::ModelKind kind) {
  switch (kind) {
    case nn::ModelKind::kGcn:
      return "nn.train_s.gcn";
    case nn::ModelKind::kGat:
      return "nn.train_s.gat";
    case nn::ModelKind::kGraphSage:
      return "nn.train_s.sage";
  }
  return "nn.train_s.other";
}

struct CellNumbers {
  core::EvalResult eval;
  core::DeltaMetrics delta;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const CellNumbers& a, const CellNumbers& b) {
  return SameBits(a.eval.accuracy, b.eval.accuracy) && SameBits(a.eval.bias, b.eval.bias) &&
         SameBits(a.eval.risk_auc, b.eval.risk_auc) &&
         SameBits(a.eval.delta_d, b.eval.delta_d) &&
         SameBits(a.delta.d_acc, b.delta.d_acc) && SameBits(a.delta.d_bias, b.delta.d_bias) &&
         SameBits(a.delta.d_risk, b.delta.d_risk) &&
         SameBits(a.delta.combined, b.delta.combined);
}

// The traced replay. Stages are memoised under RunCache's own content keys,
// so each vanilla train, DP/PP context and FR solve runs exactly when the
// cached sweep computes it.
class TracedReplay {
 public:
  TracedReplay(runner::RunCache* envs, uint64_t env_seed, Trace* trace)
      : envs_(envs), env_seed_(env_seed), trace_(trace) {}

  // runner::RunSweep's cell body: the method run, then deltas against the
  // vanilla eval of the same (dataset, model).
  CellNumbers RunCell(const runner::Scenario& cell) {
    const std::shared_ptr<const core::ExperimentEnv> env =
        envs_->Env(cell.dataset, env_seed_);
    const core::MethodConfig config = cell.ResolvedConfig();
    CellNumbers out;
    out.eval = RunMethod(cell.method, cell.model, *env, config);
    if (cell.method != core::MethodKind::kVanilla) {
      out.delta = core::ComputeDeltas(out.eval, Vanilla(cell.model, *env, config).eval);
    }
    return out;
  }

  // Share of the FR block-solve right-hand sides that met the tolerance.
  double RhsConvergedFrac() const {
    return total_rhs_ > 0 ? static_cast<double>(converged_rhs_) / total_rhs_ : 0.0;
  }

 private:
  struct VanillaStage {
    std::unique_ptr<nn::GnnModel> model;
    core::EvalResult eval;
  };

  // core::RunMethod with a StageCache installed.
  core::EvalResult RunMethod(core::MethodKind method, nn::ModelKind kind,
                             const core::ExperimentEnv& env,
                             const core::MethodConfig& config) {
    std::unique_ptr<nn::GnnModel> model;
    switch (method) {
      case core::MethodKind::kVanilla:
        return Vanilla(kind, env, config).eval;
      case core::MethodKind::kReg:
        model = Train(kind, env, env.ctx, config, config.lambda);
        break;
      case core::MethodKind::kDpReg:
        model = Train(kind, env, *Dp(env, config), config, config.lambda);
        break;
      case core::MethodKind::kDpFr:
      case core::MethodKind::kPpFr: {
        model = Vanilla(kind, env, config).model->Clone();
        const std::shared_ptr<const core::FrOutput> fr = Fr(kind, env, config);
        const std::shared_ptr<const nn::GraphContext> ctx =
            method == core::MethodKind::kDpFr ? Dp(env, config) : Pp(kind, env, config);
        Span span(trace_, "nn.finetune_s");
        core::Finetune(model.get(), env, *ctx, fr->sample_weights,
                       core::FinetuneEpochs(config), config);
        break;
      }
    }
    return Evaluate(model.get(), env);
  }

  std::unique_ptr<nn::GnnModel> Train(nn::ModelKind kind, const core::ExperimentEnv& env,
                                      const nn::GraphContext& ctx,
                                      const core::MethodConfig& config, double lambda) {
    Span span(trace_, TrainSpan(kind));
    return core::TrainFresh(kind, env, ctx, config, lambda);
  }

  // core::EvaluateModel, with the bias metric and the attack timed apart.
  core::EvalResult Evaluate(nn::GnnModel* model, const core::ExperimentEnv& env) {
    Span span(trace_, "core.eval_s");
    const core::EvalInputs in = env.Eval();
    core::EvalResult result;
    const la::Matrix logits = model->Logits(*in.ctx);
    const la::Matrix probs = la::SoftmaxRows(logits);
    result.accuracy = nn::Accuracy(logits, *in.labels, *in.test_nodes);
    {
      Span bias(trace_, "fairness.bias_s");
      result.bias = ppfr::fairness::Bias(probs, *in.laplacian);
    }
    {
      Span attack(trace_, "privacy.attack_s");
      result.attack = ppfr::privacy::LinkStealingAttack(probs, *in.pairs);
    }
    result.risk_auc = result.attack.mean_auc;
    result.delta_d =
        ppfr::privacy::DeltaD(probs, *in.pairs, ppfr::privacy::DistanceKind::kCosine);
    return result;
  }

  const VanillaStage& Vanilla(nn::ModelKind kind, const core::ExperimentEnv& env,
                              const core::MethodConfig& config) {
    const uint64_t key = runner::RunCache::VanillaKey(kind, env, config);
    auto it = vanilla_.find(key);
    if (it == vanilla_.end()) {
      VanillaStage stage;
      stage.model = Train(kind, env, env.ctx, config, /*lambda=*/0.0);
      stage.eval = Evaluate(stage.model.get(), env);
      it = vanilla_.emplace(key, std::move(stage)).first;
    }
    return it->second;
  }

  std::shared_ptr<const nn::GraphContext> Dp(const core::ExperimentEnv& env,
                                             const core::MethodConfig& config) {
    std::shared_ptr<const nn::GraphContext>& slot =
        dp_[runner::RunCache::DpKey(env, config)];
    if (slot == nullptr) {
      Span span(trace_, "privacy.dp_context_s");
      slot = std::make_shared<const nn::GraphContext>(core::MakeDpContext(env, config));
    }
    return slot;
  }

  std::shared_ptr<const nn::GraphContext> Pp(nn::ModelKind kind,
                                             const core::ExperimentEnv& env,
                                             const core::MethodConfig& config) {
    std::shared_ptr<const nn::GraphContext>& slot =
        pp_[runner::RunCache::PpKey(kind, env, config)];
    if (slot == nullptr) {
      const std::unique_ptr<nn::GnnModel> model = Vanilla(kind, env, config).model->Clone();
      Span span(trace_, "privacy.pp_context_s");
      slot = std::make_shared<const nn::GraphContext>(
          core::MakePpContext(env, model.get(), config.pp_gamma, config.seed ^ 0x99ULL));
    }
    return slot;
  }

  // core::ComputeFairnessWeights on a clone of the vanilla model, with the
  // per-node gradients, the block solve and the QCLP timed apart.
  std::shared_ptr<const core::FrOutput> Fr(nn::ModelKind kind,
                                           const core::ExperimentEnv& env,
                                           const core::MethodConfig& config) {
    std::shared_ptr<const core::FrOutput>& slot =
        fr_[runner::RunCache::FrKey(kind, env, config)];
    if (slot != nullptr) return slot;
    const std::unique_ptr<nn::GnnModel> model = Vanilla(kind, env, config).model->Clone();

    influence::ReplayCache replay_cache;
    influence::InfluenceConfig influence_config = config.fr.influence;
    influence_config.replay_cache = &replay_cache;
    influence::InfluenceCalculator calculator(model.get(), env.ctx, env.train_nodes(),
                                              env.labels(), influence_config);
    auto out = std::make_shared<core::FrOutput>();
    {
      Span span(trace_, "influence.per_node_grads_s");
      calculator.PerNodeLossGrads();
    }
    std::vector<std::vector<double>> batched;
    {
      Span span(trace_, "influence.block_solve_s");
      batched = calculator.InfluenceOnFunctions(
          {influence::InfluenceCalculator::BiasFunction(env.similarity.laplacian),
           calculator.UtilityFunction()});
    }
    out->bias_influence = std::move(batched[0]);
    out->util_influence = std::move(batched[1]);
    const influence::BlockSolveStats& stats = calculator.block_stats();
    out->cg_total_rhs = stats.total_rhs;
    out->cg_unconverged = stats.total_rhs - stats.converged_rhs;
    if (trace_ != nullptr) {
      trace_->Add("influence.grad_evals", stats.grad_evals);
      trace_->Add("influence.block_iterations", stats.block_iterations);
      total_rhs_ += stats.total_rhs;
      converged_rhs_ += stats.converged_rhs;
    }

    ppfr::solver::QclpProblem problem;
    problem.objective = out->bias_influence;
    problem.ball_radius_sq =
        config.fr.alpha * static_cast<double>(env.train_nodes().size());
    problem.halfspace_u = out->util_influence;
    double positive_util = 0.0;
    for (double u : out->util_influence) {
      if (u > 0.0) positive_util += u;
    }
    problem.halfspace_offset = config.fr.beta * positive_util;
    problem.zero_sum = config.fr.zero_sum;
    ppfr::solver::QclpResult solution;
    {
      Span span(trace_, "solver.qclp_s");
      solution = ppfr::solver::SolveQclp(problem);
    }
    out->w = solution.w;
    out->objective = solution.objective_value;
    out->sample_weights.reserve(out->w.size());
    for (double w : out->w) out->sample_weights.push_back(1.0 + w);
    slot = std::move(out);
    return slot;
  }

 private:
  runner::RunCache* envs_;
  uint64_t env_seed_;
  Trace* trace_;
  std::map<uint64_t, VanillaStage> vanilla_;
  std::map<uint64_t, std::shared_ptr<const nn::GraphContext>> dp_;
  std::map<uint64_t, std::shared_ptr<const nn::GraphContext>> pp_;
  std::map<uint64_t, std::shared_ptr<const core::FrOutput>> fr_;
  int64_t total_rhs_ = 0;
  int64_t converged_rhs_ = 0;
};

}  // namespace

RunReport RunPaperTable4(const WorkloadOptions& options) {
  RunReport report;
  const uint64_t env_seed = core::kDefaultEnvSeed;
  const runner::Sweep sweep = *runner::RegistrySweep("table4");
  const std::vector<data::DatasetId> datasets = data::StrongHomophilyDatasets();

  // setup_s: building the three experiment environments (datasets, contexts,
  // similarity Laplacians, attack pairs) into a fresh RunCache, seven times;
  // the sweep runs on the last cache.
  std::unique_ptr<runner::RunCache> cache;
  for (int i = 0; i < 7; ++i) {
    cache = std::make_unique<runner::RunCache>();
    const double start = Now();
    for (data::DatasetId id : datasets) cache->Env(id, env_seed);
    report.Sample("setup_s", "s", Now() - start);
  }

  runner::RunnerOptions runner_options;
  runner_options.threads = 1;
  runner_options.env_seed = env_seed;
  runner_options.verbose = false;
  const double start = Now();
  const runner::SweepResult result = runner::RunSweep(sweep, cache.get(), runner_options);
  const double wall_s = Now() - start;
  report.Sample("wall_s", "s", wall_s);

  // Correctness gate: every cell finished, is finite, and sits inside its
  // reference band.
  double ppfr_accuracy = 0.0, ppfr_bias = 0.0, ppfr_risk = 0.0;
  int ppfr_cells = 0;
  for (const runner::CellResult& cell : result.cells) {
    const core::EvalResult& eval = cell.run->eval;
    const bool ok = !cell.failed && !cell.skipped && Finite(eval) &&
                    WithinReference(cell.scenario, eval);
    report.Check(ok, CellName(cell.scenario) +
                         (cell.failed ? " failed: " + cell.error
                                      : " outside its reference band or not finite: acc " +
                                            std::to_string(eval.accuracy) + " bias " +
                                            std::to_string(eval.bias) + " auc " +
                                            std::to_string(eval.risk_auc)));
    if (cell.scenario.method == core::MethodKind::kPpFr) {
      ppfr_accuracy += eval.accuracy;
      ppfr_bias += eval.bias;
      ppfr_risk += eval.risk_auc;
      ++ppfr_cells;
    }
  }
  report.Check(result.cells.size() == 45 && ppfr_cells == 9,
               "table4 grid is not 45 cells with 9 PPFR cells");
  if (ppfr_cells > 0) {
    report.Sample("ppfr.accuracy", "fraction", ppfr_accuracy / ppfr_cells);
    report.Sample("ppfr.bias", "bias", ppfr_bias / ppfr_cells);
    report.Sample("ppfr.risk_auc", "auc", ppfr_risk / ppfr_cells);
  }

  if (options.trace) {
    Trace trace;
    trace.Set("core.make_env_s", Median(report.metrics["setup_s"].samples));
    const int64_t allocs_before = la::MatrixAllocCount();
    const int64_t trains_before = nn::TrainInvocationCount();
    la::ResetArenaPeakBytes();
    TracedReplay replay(cache.get(), env_seed, &trace);
    const double traced_start = Now();
    const std::vector<runner::Scenario> cells = runner::ExpandCells(sweep);
    for (size_t i = 0; i < cells.size(); ++i) {
      const CellNumbers traced = replay.RunCell(cells[i]);
      const runner::CellResult& untraced = result.cells[i];
      report.Check(SameBits(traced, {untraced.run->eval, untraced.delta}),
                   CellName(cells[i]) + ": traced replay differs from the sweep");
    }
    trace.Set("trace.overhead_s", Now() - traced_start - wall_s);
    const int64_t train_calls = nn::TrainInvocationCount() - trains_before;
    report.Check(train_calls == result.trainer_invocations,
                 "traced replay made " + std::to_string(train_calls) +
                     " nn::Train calls, the sweep " +
                     std::to_string(result.trainer_invocations));
    trace.Set("nn.train_calls", static_cast<double>(train_calls));
    trace.Set("influence.rhs_converged_frac", replay.RhsConvergedFrac());
    const runner::RunCache::Stats& s = result.cache_stats;
    trace.Set("runner.stage_hits",
              static_cast<double>(s.env.hits + s.vanilla.hits + s.dp_context.hits +
                                  s.pp_context.hits + s.fr.hits + s.cell.hits));
    trace.Set("runner.stage_misses",
              static_cast<double>(s.env.misses + s.vanilla.misses +
                                  s.dp_context.misses + s.pp_context.misses +
                                  s.fr.misses + s.cell.misses));
    trace.Set("la.matrix_allocs",
              static_cast<double>(la::MatrixAllocCount() - allocs_before));
    trace.Set("la.arena_peak_mb", static_cast<double>(la::ArenaPeakBytes()) / kMiB);
    report.SampleTrace(trace);
  }

  report.Sample("peak_rss_mb", "MB", static_cast<double>(la::ProcessPeakRssBytes()) / kMiB);
  return report;
}

}  // namespace perfbench
