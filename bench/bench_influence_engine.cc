// Influence-engine before/after benchmark.
//
// Measures the two hot paths of the influence machinery on an SBM graph:
//   * per-node loss gradients — the full-graph serial algorithm (one
//     growing tape, full ZeroAllGrads sweep per node) versus the TapePool
//     path over the training nodes' exact 2-hop block (reachability-pruned,
//     row-support-zeroed, fanned across lanes);
//   * the damped-CG solve behind InfluenceOnBias, replaying the training
//     loss graph over the block.
// The pooled per-node gradients are checked against the full-graph serial
// oracle (within 1e-12 relative) before any timing is reported, and
// dense-buffer allocations are counted via la::MatrixAllocCount.
//
// Two block-solver columns sit on top:
//   * the real pipeline — InfluenceOnNodeLosses over --cg_targets target
//     nodes at cg_block=1 (the single-RHS oracle) versus --cg_block, with a
//     per-row relative-error parity gate between the two;
//   * a synthetic damped SPD quadratic at --cg_dim parameters, where the
//     batched probe-gradient evaluation is literally one GEMM over all
//     stacked probe points — the BLAS-1 → BLAS-3 story isolated from
//     tape-replay costs. The sweep runs k ∈ {1,4,8,16} through the SAME
//     BlockConjugateGradientSolve code path and reports per-RHS wall time,
//     block algebra GFLOP/s, and parity against the k=1 oracle; the headline
//     `cg_block_speedup` is per-RHS k=1 over k=8.
//
// Two checks close the run: the probe-gradient engine (BatchTrainGrad, one
// tape replay per probe point) driven at tape_pool_lanes {1,2,4} on one
// fixed probe batch, gated BITWISE, and a warm-pool reuse pass (cell-scoped
// ReplayCache) asserting the second calculator's allocation counts.
//
// Emits BENCH_influence.json for the cross-PR perf trajectory (schema pinned
// by bench/golden/artifact_schema.txt, section "influence"), stamped with the
// host fingerprint. Everything runs on the active backend.
//
//   ./bench_influence_engine --nodes=800 --degree=8 --train=96 --lanes=4
//       --la_backend=parallel --la_threads=4 --cg_block=8 --cg_dim=1280

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "data/sbm.h"
#include "data/split.h"
#include "fairness/bias_metric.h"
#include "influence/hvp.h"
#include "influence/influence.h"
#include "influence/param_vector.h"
#include "la/backend.h"
#include "la/matrix.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/trainer.h"

namespace ppfr {
namespace {

struct PathResult {
  double seconds = 0.0;
  int64_t allocs = 0;
  std::vector<std::vector<double>> grads;
};

PathResult TimePerNodeGrads(nn::GnnModel* model, const nn::GraphContext& ctx,
                            const std::vector<int>& train_nodes,
                            const std::vector<int>& labels,
                            const influence::InfluenceConfig& config, int reps) {
  PathResult result;
  for (int rep = 0; rep < reps; ++rep) {
    influence::InfluenceCalculator calc(model, ctx, train_nodes, labels, config);
    const int64_t alloc0 = la::MatrixAllocCount();
    Stopwatch watch;
    const auto& grads = calc.PerNodeLossGrads();
    result.seconds += watch.ElapsedSeconds();
    result.allocs += la::MatrixAllocCount() - alloc0;
    if (rep == 0) result.grads = grads;
  }
  result.seconds /= reps;
  result.allocs /= reps;
  return result;
}

double TimeBiasSolve(nn::GnnModel* model, const nn::GraphContext& ctx,
                     const std::vector<int>& train_nodes, const std::vector<int>& labels,
                     const fairness::SimilarityContext& sim,
                     influence::InfluenceConfig config, int reps) {
  double seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    influence::InfluenceCalculator calc(model, ctx, train_nodes, labels, config);
    // Warm the per-node cache so the timing isolates gradient evaluation +
    // CG, which is what the tape arena accelerates.
    calc.PerNodeLossGrads();
    Stopwatch watch;
    calc.InfluenceOnBias(sim.laplacian);
    seconds += watch.ElapsedSeconds();
  }
  return seconds / reps;
}

bool BitwiseEqual(const std::vector<std::vector<double>>& a,
                  const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

// Largest per-row relative l2 error between two influence tables.
double MaxRowRelErr(const std::vector<std::vector<double>>& got,
                    const std::vector<std::vector<double>>& want) {
  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    double diff = 0.0, ref = 0.0;
    for (size_t v = 0; v < want[i].size(); ++v) {
      const double d = got[i][v] - want[i][v];
      diff += d * d;
      ref += want[i][v] * want[i][v];
    }
    if (ref > 0.0) worst = std::max(worst, std::sqrt(diff / ref));
  }
  return worst;
}

struct PipelineBlockRun {
  double seconds = 0.0;
  influence::BlockSolveStats stats;
  std::vector<std::vector<double>> influence;
};

// The per-node influence sweep of the paper's correlation study, timed at a
// fixed block width. Damping is pinned in the PD regime (the trained model is
// not at an exact minimum, and at the default 0.01 even the single-RHS oracle
// truncates on negative curvature — there is no converged solve to compare).
PipelineBlockRun TimeNodeLossSweep(nn::GnnModel* model, const nn::GraphContext& ctx,
                                   const std::vector<int>& train_nodes,
                                   const std::vector<int>& labels,
                                   influence::InfluenceConfig config, int block,
                                   const std::vector<int>& targets, int reps) {
  config.cg_block = block;
  // The damping must put the solve in the PD regime: an UNDERTRAINED model's
  // Hessian carries negative curvature past any fixed damping, both solvers
  // then truncate on different Krylov spaces, and the parity gate would
  // compare two unconverged answers — so smoke-sized runs of this bench need
  // enough epochs (~30) to be near a minimum, not more damping.
  config.cg.damping = 1.0;
  config.cg.tolerance = 1e-8;
  config.cg.max_iterations = 200;
  PipelineBlockRun run;
  for (int rep = 0; rep < reps; ++rep) {
    influence::InfluenceCalculator calc(model, ctx, train_nodes, labels, config);
    // Warm the per-node cache so the timing isolates RHS gathering + block
    // solves + contraction — the paths the block solver changes.
    calc.PerNodeLossGrads();
    Stopwatch watch;
    auto influence = calc.InfluenceOnNodeLosses(targets);
    run.seconds += watch.ElapsedSeconds();
    if (rep == 0) {
      run.influence = std::move(influence);
      run.stats = calc.block_stats();
    }
  }
  run.seconds /= reps;
  return run;
}

// Damped SPD quadratic test bed for the block sweep: L(θ) = ½θᵀAθ − cᵀθ, so
// the gradient at an absolute point p is A·p − c and the batched probe
// evaluation is ONE backend GEMM over all stacked points — A is streamed once
// per block iteration instead of once per probe. The single-RHS path pays the
// same closure one point at a time (a memory-bound GEMV-shaped product),
// which is exactly the BLAS-1/2 regime the block solver replaces.
struct SyntheticQuadratic {
  ag::Parameter theta;
  la::Matrix a;  // symmetric, eigenvalues ≈ [2, 4]
  std::vector<double> c;

  explicit SyntheticQuadratic(int n, uint64_t seed)
      : theta("cg-sweep-theta", la::Matrix(n, 1)), a(n, n) {
    Rng rng(seed);
    // Wigner bulk of radius ~1 around a diagonal of 3: a well-conditioned SPD
    // spectrum, so every k converges and the sweep times steady-state math,
    // not stagnation.
    const double scale = 0.5 / std::sqrt(static_cast<double>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= i; ++j) {
        const double v = rng.Normal() * scale;
        a(i, j) = v;
        a(j, i) = v;
      }
      a(i, i) += 3.0;
    }
    c.resize(static_cast<size_t>(n));
    for (auto& v : c) v = rng.Normal();
    for (int i = 0; i < n; ++i) theta.value(i, 0) = rng.Normal();
  }

  std::vector<std::vector<double>> GradsAt(
      const std::vector<std::vector<double>>& points) const {
    const int n = a.rows();
    const int m = static_cast<int>(points.size());
    la::Matrix stacked(m, n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) stacked(i, j) = points[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
    la::Matrix prod(m, n);
    la::ActiveBackend().Gemm(stacked, a, &prod);
    std::vector<std::vector<double>> grads(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      auto& g = grads[static_cast<size_t>(i)];
      g.assign(prod.row(i), prod.row(i) + n);
      for (int j = 0; j < n; ++j) g[static_cast<size_t>(j)] -= c[static_cast<size_t>(j)];
    }
    return grads;
  }

  influence::GradFn MakeGradFn() {
    return [this] { return GradsAt({influence::FlattenValues({&theta})})[0]; };
  }

  influence::BatchGradFn MakeBatchGradFn() {
    return [this](const std::vector<std::vector<double>>& points) {
      return GradsAt(points);
    };
  }
};

struct SweepRow {
  int k = 0;
  double total_ms = 0.0;
  double per_rhs_ms = 0.0;
  int block_iterations = 0;
  int grad_evals = 0;
  double algebra_gflops = 0.0;
  double max_rel_err_vs_oracle = 0.0;
  bool parity_ok = false;
};

// Solves the same `num_rhs` systems in blocks of k through
// BlockConjugateGradientSolve, returning timing + parity against `oracle`
// (the k=1 solutions; pass nullptr when this run IS the oracle, and collect
// its solutions via `solutions_out`).
SweepRow RunSweepPoint(SyntheticQuadratic* problem, const influence::MultiVector& b,
                       int k, int reps, const influence::MultiVector* oracle,
                       influence::MultiVector* solutions_out = nullptr) {
  const int num_rhs = b.k();
  influence::CgOptions options;
  options.damping = 0.1;
  options.tolerance = 1e-8;
  options.max_iterations = 80;

  SweepRow row;
  row.k = k;
  influence::MultiVector x(b.dim(), num_rhs);
  bool all_converged = true;
  double seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    influence::BlockCgStats stats;
    all_converged = true;
    Stopwatch watch;
    for (int start = 0; start < num_rhs; start += k) {
      const int width = std::min(k, num_rhs - start);
      std::vector<int> cols(static_cast<size_t>(width));
      for (int j = 0; j < width; ++j) cols[static_cast<size_t>(j)] = start + j;
      const influence::BlockCgResult part = influence::BlockConjugateGradientSolve(
          {&problem->theta}, problem->MakeGradFn(), problem->MakeBatchGradFn(),
          b.SelectColumns(cols), options);
      for (int j = 0; j < width; ++j) {
        if (rep == 0) x.SetColumn(start + j, part.x.Column(j));
        all_converged = all_converged && part.converged[static_cast<size_t>(j)];
      }
      stats.block_iterations += part.stats.block_iterations;
      stats.grad_evals += part.stats.grad_evals;
      stats.algebra_seconds += part.stats.algebra_seconds;
      stats.algebra_flops += part.stats.algebra_flops;
    }
    seconds += watch.ElapsedSeconds();
    if (rep == 0) {
      row.block_iterations = stats.block_iterations;
      row.grad_evals = stats.grad_evals;
      row.algebra_gflops = stats.algebra_seconds > 0.0
                               ? stats.algebra_flops / stats.algebra_seconds / 1e9
                               : 0.0;
    }
  }
  seconds /= reps;
  row.total_ms = seconds * 1e3;
  row.per_rhs_ms = row.total_ms / num_rhs;
  if (oracle != nullptr) {
    double worst = 0.0;
    for (int j = 0; j < num_rhs; ++j) {
      const std::vector<double> got = x.Column(j);
      const std::vector<double> want = oracle->Column(j);
      double diff = 0.0, ref = 0.0;
      for (size_t i = 0; i < want.size(); ++i) {
        const double d = got[i] - want[i];
        diff += d * d;
        ref += want[i] * want[i];
      }
      worst = std::max(worst, std::sqrt(diff / ref));
    }
    row.max_rel_err_vs_oracle = worst;
    row.parity_ok = all_converged && worst < 1e-5;
  } else {
    row.parity_ok = all_converged;
  }
  if (solutions_out != nullptr) *solutions_out = std::move(x);
  return row;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::RejectUnknownFlags(flags, {"nodes", "degree", "train", "lanes", "epochs",
                                    "reps", "json", "la_backend", "la_threads",
                                    "cg_block", "cg_targets", "cg_dim"});
  la::ConfigureBackendFromFlags(flags);
  // Default to the acceptance configuration — parallel backend, 4 threads,
  // 4 tape-pool lanes — unless the caller pinned a thread count.
  if (!flags.Has("la_threads") && std::getenv("PPFR_LA_THREADS") == nullptr) {
    la::SetActiveBackend(la::ActiveBackendKind(), 4);
  }

  const int nodes = flags.GetInt("nodes", 3000);
  const double degree = flags.GetDouble("degree", 8.0);
  const int train_count = flags.GetInt("train", 200);
  const int lanes = flags.GetInt("lanes", 4);
  const int epochs = flags.GetInt("epochs", 30);
  const int reps = flags.GetInt("reps", 3);
  const int cg_block = flags.GetInt("cg_block", 8);
  const int cg_targets = flags.GetInt("cg_targets", 16);
  const int cg_dim = flags.GetInt("cg_dim", 1280);

  // Malformed values already died inside Flags with the flag name; these are
  // the value contracts, which would otherwise abort deep inside the library
  // (a zero --cg_block on InfluenceCalculator's CHECK) instead of printing a
  // usage line.
  const std::pair<const char*, int> counts[] = {
      {"nodes", nodes},   {"train", train_count},     {"lanes", lanes},
      {"epochs", epochs}, {"reps", reps},             {"cg_block", cg_block},
      {"cg_targets", cg_targets},                     {"cg_dim", cg_dim}};
  for (const auto& [name, value] : counts) {
    if (value < 1) {
      std::fprintf(stderr, "--%s must be >= 1 (got %d)\n", name, value);
      return bench::kExitUsage;
    }
  }
  if (!(degree > 0.0)) {
    std::fprintf(stderr, "--degree must be > 0 (got %g)\n", degree);
    return bench::kExitUsage;
  }

  data::SbmConfig sbm;
  sbm.name = "bench-influence";
  sbm.num_nodes = nodes;
  sbm.num_classes = 4;
  sbm.feature_dim = 48;
  sbm.signature_size = 8;
  sbm.average_degree = degree;
  const data::NodeClassificationData data = data::GenerateSbm(sbm, /*seed=*/17);
  auto ctx = nn::GraphContext::Build(data.graph, data.features);
  const data::Split split = data::MakeSplit(nodes, train_count, 0, /*seed=*/5);
  const fairness::SimilarityContext sim =
      fairness::SimilarityContext::FromGraph(data.graph);

  auto model =
      nn::MakeModel(nn::ModelKind::kGcn, ctx.feature_dim(), data.num_classes, 7);
  nn::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  nn::Train(model.get(), ctx, split.train, data.labels, train_cfg);

  std::printf("influence engine bench: n=%d avg_deg=%.1f train=%d backend=%s threads=%d lanes=%d\n",
              nodes, degree, train_count, la::ActiveBackend().name().c_str(),
              la::ActiveBackend().num_threads(), lanes);

  influence::InfluenceConfig before;
  before.serial_reference_per_node = true;

  influence::InfluenceConfig after;
  after.tape_pool_lanes = lanes;

  // The block path's gradient contract against the full-graph oracle.
  constexpr double kPerNodeTolerance = 1e-12;
  const PathResult serial = TimePerNodeGrads(model.get(), ctx, split.train,
                                             data.labels, before, reps);
  const PathResult pooled = TimePerNodeGrads(model.get(), ctx, split.train,
                                             data.labels, after, reps);

  const double per_node_err = MaxRowRelErr(pooled.grads, serial.grads);
  const bool per_node_ok = per_node_err < kPerNodeTolerance;
  std::printf("per-node grads block-vs-full-graph max rel err %.2e (%s)\n", per_node_err,
              per_node_ok ? "OK" : "FAIL");

  const double cg_ms = TimeBiasSolve(model.get(), ctx, split.train, data.labels, sim,
                                     after, reps) * 1e3;

  // --- Block solver on the real pipeline: the per-node influence sweep
  // (Table 2's workload) over the first --cg_targets train nodes, single-RHS
  // oracle (cg_block=1) versus blocks of --cg_block. The honest pipeline win
  // is bounded by tape-replay gradient costs, which both paths pay per probe
  // point; the parity gate is the load-bearing result here. ---
  const int num_targets = std::min(static_cast<int>(split.train.size()), cg_targets);
  const std::vector<int> targets(split.train.begin(), split.train.begin() + num_targets);
  const PipelineBlockRun pipe_single = TimeNodeLossSweep(
      model.get(), ctx, split.train, data.labels, after, /*block=*/1, targets, reps);
  const PipelineBlockRun pipe_block = TimeNodeLossSweep(
      model.get(), ctx, split.train, data.labels, after, cg_block, targets, reps);
  const double pipe_parity = MaxRowRelErr(pipe_block.influence, pipe_single.influence);
  const bool pipe_parity_ok = pipe_parity < 1e-3;
  const double pipe_speedup = pipe_single.seconds / pipe_block.seconds;
  std::printf("node-loss sweep, cg_block=%d vs single-RHS oracle: %.2fx per-RHS, "
              "max rel err %.2e (%s)\n",
              cg_block, pipe_speedup, pipe_parity, pipe_parity_ok ? "OK" : "FAIL");

  // --- Probe-lane parity: the probe-gradient engine itself, driven directly
  // at tape_pool_lanes {1, 2, 4} on one fixed probe batch — every lane count
  // must reproduce the one-lane gradients bit for bit. ---
  bool probe_lane_parity_ok = true;
  {
    const std::vector<double> theta0 = influence::FlattenValues(model->Params());
    constexpr int kProbePoints = 5;
    Rng probe_rng(417);
    std::vector<std::vector<double>> points(kProbePoints, theta0);
    for (auto& p : points) {
      for (double& v : p) v += 1e-3 * probe_rng.Normal();
    }
    std::vector<std::vector<double>> want;
    for (const int pool_lanes : {1, 2, 4}) {
      influence::InfluenceConfig cfg = after;
      cfg.tape_pool_lanes = pool_lanes;
      influence::InfluenceCalculator calc(model.get(), ctx, split.train,
                                          data.labels, cfg);
      const auto grads = calc.BatchTrainGrad()(points);
      if (pool_lanes == 1) {
        want = grads;
      } else {
        const bool same = BitwiseEqual(grads, want);
        probe_lane_parity_ok = probe_lane_parity_ok && same;
        std::printf("probe replay at %d lanes vs 1 lane: bitwise %s\n", pool_lanes,
                    same ? "OK" : "FAIL");
      }
    }
  }

  // --- Warm-pool reuse across calculators (cell-scoped ReplayCache): the
  // second calculator re-acquires the recorded forward tape (re-warmed by an
  // allocation-free replay) and the probe lane pool (no refresh needed), so
  // its sweep allocates strictly less than the cold one and the lane-pool
  // acquisition allocates nothing at all. ---
  int64_t cold_calc_allocs = 0, warm_calc_allocs = 0, warm_lane_allocs = 0;
  bool warm_reuse_ok = false;
  {
    influence::ReplayCache replay_cache;
    influence::InfluenceConfig warm_cfg = after;
    warm_cfg.replay_cache = &replay_cache;
    std::vector<std::vector<double>> cold_grads, warm_grads;
    {
      influence::InfluenceCalculator calc(model.get(), ctx, split.train,
                                          data.labels, warm_cfg);
      const int64_t a0 = la::MatrixAllocCount();
      cold_grads = calc.PerNodeLossGrads();
      cold_calc_allocs = la::MatrixAllocCount() - a0;
      calc.BatchTrainGrad();  // populate the lane pool in the cache
    }
    influence::InfluenceCalculator calc(model.get(), ctx, split.train,
                                        data.labels, warm_cfg);
    const int64_t a0 = la::MatrixAllocCount();
    warm_grads = calc.PerNodeLossGrads();
    warm_calc_allocs = la::MatrixAllocCount() - a0;
    const int64_t b0 = la::MatrixAllocCount();
    calc.BatchTrainGrad();  // cache hit: no clone, no re-record
    warm_lane_allocs = la::MatrixAllocCount() - b0;
    warm_reuse_ok = warm_calc_allocs < cold_calc_allocs && warm_lane_allocs == 0 &&
                    BitwiseEqual(cold_grads, warm_grads);
    std::printf("warm-pool reuse: cold %lld allocs, warm %lld, lane acquire %lld (%s)\n",
                static_cast<long long>(cold_calc_allocs),
                static_cast<long long>(warm_calc_allocs),
                static_cast<long long>(warm_lane_allocs),
                warm_reuse_ok ? "OK" : "FAIL");
  }

  // --- Block sweep on the synthetic GEMM-batched operator: k=1 is the oracle
  // row; every other k must agree with it per RHS. ---
  constexpr int kSweepRhs = 16;
  std::vector<SweepRow> sweep;
  {
    SyntheticQuadratic quad(cg_dim, /*seed=*/91);
    influence::MultiVector b(cg_dim, kSweepRhs);
    Rng rng(92);
    for (int j = 0; j < kSweepRhs; ++j) {
      for (int i = 0; i < cg_dim; ++i) b.col(j)[i] = rng.Normal();
    }
    influence::MultiVector oracle;
    sweep.push_back(RunSweepPoint(&quad, b, 1, reps, nullptr, &oracle));
    for (const int k : {4, 8, 16}) {
      sweep.push_back(RunSweepPoint(&quad, b, k, reps, &oracle));
    }
  }
  bool sweep_parity_ok = true;
  double per_rhs_k8 = 0.0;
  for (const SweepRow& row : sweep) {
    sweep_parity_ok = sweep_parity_ok && row.parity_ok;
    if (row.k == 8) per_rhs_k8 = row.per_rhs_ms;
  }
  const double cg_block_speedup =
      per_rhs_k8 > 0.0 ? sweep[0].per_rhs_ms / per_rhs_k8 : 0.0;

  const double tput_serial = train_count / serial.seconds;
  const double tput_pooled = train_count / pooled.seconds;

  TablePrinter table({"Path", "PerNodeGrads ms", "nodes/s", "allocs", "CG ms"});
  table.AddRow({"full-graph serial (before)", TablePrinter::Num(serial.seconds * 1e3),
                TablePrinter::Num(tput_serial, 0), std::to_string(serial.allocs), ""});
  table.AddRow({"block tape pool (after)", TablePrinter::Num(pooled.seconds * 1e3),
                TablePrinter::Num(tput_pooled, 0), std::to_string(pooled.allocs),
                TablePrinter::Num(cg_ms)});
  table.AddSeparator();
  table.AddRow({"speedup", TablePrinter::Num(serial.seconds / pooled.seconds) + "x",
                TablePrinter::Num(tput_pooled / tput_serial) + "x", "", ""});
  table.Print();

  TablePrinter sweep_table({"k", "per-RHS ms", "total ms", "block iters",
                            "grad evals", "algebra GFLOP/s", "vs k=1 rel err"});
  for (const SweepRow& row : sweep) {
    sweep_table.AddRow({std::to_string(row.k), TablePrinter::Num(row.per_rhs_ms),
                        TablePrinter::Num(row.total_ms),
                        std::to_string(row.block_iterations),
                        std::to_string(row.grad_evals),
                        TablePrinter::Num(row.algebra_gflops),
                        row.k == 1 ? std::string("oracle")
                                   : TablePrinter::Num(row.max_rel_err_vs_oracle, 9)});
  }
  sweep_table.AddSeparator();
  sweep_table.AddRow({"k=8", TablePrinter::Num(cg_block_speedup) + "x vs k=1", "", "",
                      "", "", sweep_parity_ok ? "parity OK" : "parity FAIL"});
  sweep_table.Print();

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(8);
  json.Key("nodes").Int(nodes);
  json.Key("train").Int(train_count);
  json.Key("backend").String(la::ActiveBackend().name());
  json.Key("threads").Int(la::ActiveBackend().num_threads());
  bench::WriteHost(&json);
  // Peak-memory accounting over the whole bench run: the arena peak counts
  // logical bytes of live dense/sparse matrix buffers, the RSS peak is the
  // kernel's VmHWM (0 where /proc is unavailable).
  json.Key("arena_peak_bytes").Int(la::ArenaPeakBytes());
  json.Key("process_peak_rss_bytes").Int(la::ProcessPeakRssBytes());
  json.Key("lanes").Int(lanes);
  json.Key("per_node_grads_ms_serial").Number(serial.seconds * 1e3);
  json.Key("per_node_grads_ms_pooled").Number(pooled.seconds * 1e3);
  json.Key("per_node_throughput_serial").Number(tput_serial);
  json.Key("per_node_throughput_pooled").Number(tput_pooled);
  json.Key("per_node_speedup").Number(serial.seconds / pooled.seconds);
  json.Key("per_node_allocs_serial").Int(serial.allocs);
  json.Key("per_node_allocs_pooled").Int(pooled.allocs);
  json.Key("cg_solve_ms").Number(cg_ms);
  json.Key("per_node_max_rel_err").Number(per_node_err);
  json.Key("per_node_parity_ok").Bool(per_node_ok);
  // Block solver: the real per-node influence sweep (cg_block vs the
  // single-RHS oracle) and the synthetic GEMM-batched block sweep.
  json.Key("cg_block").Int(cg_block);
  json.Key("cg_targets").Int(num_targets);
  json.Key("pipeline_per_rhs_ms_single").Number(pipe_single.seconds * 1e3 / num_targets);
  json.Key("pipeline_per_rhs_ms_block").Number(pipe_block.seconds * 1e3 / num_targets);
  json.Key("pipeline_block_speedup").Number(pipe_speedup);
  json.Key("pipeline_max_rel_err").Number(pipe_parity);
  json.Key("pipeline_parity_ok").Bool(pipe_parity_ok);
  json.Key("pipeline_block_iterations").Int(pipe_block.stats.block_iterations);
  json.Key("pipeline_grad_evals_single").Int(pipe_single.stats.grad_evals);
  json.Key("pipeline_grad_evals_block").Int(pipe_block.stats.grad_evals);
  // Probe replay: the lane-count bitwise gate and warm-pool reuse counters.
  json.Key("probe_lane_parity_ok").Bool(probe_lane_parity_ok);
  json.Key("warm_calc_allocs").Int(warm_calc_allocs);
  json.Key("cold_calc_allocs").Int(cold_calc_allocs);
  json.Key("warm_lane_allocs").Int(warm_lane_allocs);
  json.Key("warm_reuse_ok").Bool(warm_reuse_ok);
  json.Key("block_sweep_dim").Int(cg_dim);
  json.Key("block_sweep_rhs").Int(kSweepRhs);
  json.Key("block_sweep").BeginArray();
  for (const SweepRow& row : sweep) {
    json.BeginObject();
    json.Key("k").Int(row.k);
    json.Key("per_rhs_ms").Number(row.per_rhs_ms);
    json.Key("total_ms").Number(row.total_ms);
    json.Key("block_iterations").Int(row.block_iterations);
    json.Key("grad_evals").Int(row.grad_evals);
    json.Key("algebra_gflops").Number(row.algebra_gflops);
    json.Key("max_rel_err_vs_oracle").Number(row.max_rel_err_vs_oracle);
    json.Key("parity_ok").Bool(row.parity_ok);
    json.EndObject();
  }
  json.EndArray();
  json.Key("cg_block_speedup").Number(cg_block_speedup);
  json.EndObject();

  const std::string json_path = flags.GetString("json", "BENCH_influence.json");
  WriteFileOrDie(json_path, json.ToString());
  std::printf("wrote %s\n", json_path.c_str());

  return per_node_ok && pipe_parity_ok && sweep_parity_ok && probe_lane_parity_ok &&
                 warm_reuse_ok
             ? 0
             : 1;
}

}  // namespace ppfr

int main(int argc, char** argv) { return ppfr::Main(argc, argv); }
