// Micro-benchmarks of the substrate hot paths (google-benchmark): SpMM, GCN
// forward/backward, GAT attention, Jaccard similarity, attack distance
// evaluation, influence per-node gradients and the QCLP solver. These bound
// the cost of every experiment binary in this repo.
//
// Before the google-benchmark suite runs, the binary prints a
// reference/parallel backend comparison per kernel and per thread count and
// emits it as BENCH_micro.json (the BENCH trajectory for the la::Backend
// layer — per-kernel GFLOP/s across PRs; schema pinned by
// bench/golden/artifact_schema.txt, section "micro"). Flags:
//   --la_backend=reference|parallel --la_threads=N   backend for BM_*
//   --compare_reps=N        timing repetitions for the comparison (0 skips it)
//   --compare_gemm_size=N   GEMM problem size (default 512, i.e. 512x512x512)
//   --json=PATH             comparison artifact path (default BENCH_micro.json)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "data/datasets.h"
#include "graph/graph_ops.h"
#include "graph/jaccard.h"
#include "la/backend.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "privacy/attack/link_stealing.h"
#include "privacy/defense/edge_rand.h"
#include "solver/qclp.h"

namespace {

using namespace ppfr;

const data::NodeClassificationData& CoraLikeData() {
  static const auto* data = new data::NodeClassificationData(
      data::GenerateSbm(data::DatasetConfig(data::DatasetId::kCoraLike), 1));
  return *data;
}

const nn::GraphContext& CoraLikeContext() {
  static const auto* ctx = new nn::GraphContext(
      nn::GraphContext::Build(CoraLikeData().graph, CoraLikeData().features));
  return *ctx;
}

void BM_SpMM(benchmark::State& state) {
  const nn::GraphContext& ctx = CoraLikeContext();
  Rng rng(1);
  la::Matrix x(ctx.num_nodes(), static_cast<int>(state.range(0)));
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.gcn_adj->mat.Multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * ctx.gcn_adj->mat.nnz());
}
BENCHMARK(BM_SpMM)->Arg(16)->Arg(64);

void BM_DenseMatMul(benchmark::State& state) {
  Rng rng(2);
  const int n = static_cast<int>(state.range(0));
  la::Matrix a(n, n), b(n, n);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Normal();
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Normal();
  for (auto _ : state) benchmark::DoNotOptimize(la::MatMul(a, b));
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_GcnForward(benchmark::State& state) {
  const nn::GraphContext& ctx = CoraLikeContext();
  auto model = nn::MakeModel(nn::ModelKind::kGcn, ctx.feature_dim(),
                             CoraLikeData().num_classes, 1);
  for (auto _ : state) benchmark::DoNotOptimize(model->Logits(ctx));
}
BENCHMARK(BM_GcnForward);

void BM_GatForward(benchmark::State& state) {
  const nn::GraphContext& ctx = CoraLikeContext();
  auto model = nn::MakeModel(nn::ModelKind::kGat, ctx.feature_dim(),
                             CoraLikeData().num_classes, 1);
  for (auto _ : state) benchmark::DoNotOptimize(model->Logits(ctx));
}
BENCHMARK(BM_GatForward);

void BM_GcnTrainEpoch(benchmark::State& state) {
  const nn::GraphContext& ctx = CoraLikeContext();
  auto model = nn::MakeModel(nn::ModelKind::kGcn, ctx.feature_dim(),
                             CoraLikeData().num_classes, 1);
  std::vector<int> train_nodes;
  for (int v = 0; v < 140; ++v) train_nodes.push_back(v * 10);
  nn::TrainConfig cfg;
  cfg.epochs = 1;
  for (auto _ : state) {
    nn::Train(model.get(), ctx, train_nodes, CoraLikeData().labels, cfg);
  }
}
BENCHMARK(BM_GcnTrainEpoch);

void BM_JaccardSimilarity(benchmark::State& state) {
  const auto& data = CoraLikeData();
  for (auto _ : state) benchmark::DoNotOptimize(graph::JaccardSimilarity(data.graph));
}
BENCHMARK(BM_JaccardSimilarity);

void BM_LinkStealingAttack(benchmark::State& state) {
  const auto& data = CoraLikeData();
  const privacy::PairSample pairs = privacy::SamplePairs(data.graph, 2000, 3);
  Rng rng(4);
  la::Matrix probs(data.graph.num_nodes(), data.num_classes);
  for (int v = 0; v < probs.rows(); ++v) {
    double sum = 0;
    for (int c = 0; c < probs.cols(); ++c) {
      probs(v, c) = 0.01 + rng.Uniform();
      sum += probs(v, c);
    }
    for (int c = 0; c < probs.cols(); ++c) probs(v, c) /= sum;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::LinkStealingAttack(probs, pairs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.connected.size()) * 2 *
                          static_cast<int64_t>(privacy::AllDistanceKinds().size()));
}
BENCHMARK(BM_LinkStealingAttack);

void BM_EdgeRand(benchmark::State& state) {
  const auto& data = CoraLikeData();
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::EdgeRand(data.graph, 6.0, ++seed));
  }
}
BENCHMARK(BM_EdgeRand);

void BM_QclpSolve(benchmark::State& state) {
  Rng rng(5);
  solver::QclpProblem problem;
  const int n = static_cast<int>(state.range(0));
  problem.objective.resize(n);
  problem.halfspace_u.resize(n);
  for (int i = 0; i < n; ++i) {
    problem.objective[i] = rng.Normal();
    problem.halfspace_u[i] = rng.Normal();
  }
  problem.ball_radius_sq = 0.9 * n;
  problem.halfspace_offset = 0.1;
  problem.zero_sum = true;
  for (auto _ : state) benchmark::DoNotOptimize(solver::SolveQclp(problem));
}
BENCHMARK(BM_QclpSolve)->Arg(140)->Arg(500);

// ---------------------------------------------------------------------------
// Backend comparison. Each kernel is timed on a standalone ReferenceBackend
// and on ParallelBackend instances with increasing thread counts; the table
// reports milliseconds, speedups over the reference loops and the parallel
// backend's GFLOP/s. The same numbers are emitted to
// BENCH_micro.json so the kernel trajectory is tracked across PRs like the
// influence and sweep artifacts.
// ---------------------------------------------------------------------------

struct CompareCase {
  std::string kernel;
  std::string shape;
  double flops_per_call;
  std::function<void(la::Backend&)> run;
};

double TimeKernel(la::Backend& backend, const CompareCase& cc, int reps) {
  cc.run(backend);  // warmup
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    cc.run(backend);
    best_ms = std::min(best_ms, sw.ElapsedMillis());
  }
  return best_ms;
}

double Gflops(double flops, double ms) { return flops / (ms * 1e-3) / 1e9; }

std::string ShapeName(std::initializer_list<int> dims) {
  std::string out;
  for (const int d : dims) {
    if (!out.empty()) out += 'x';
    out += std::to_string(d);
  }
  return out;
}

void RunBackendComparison(const Flags& flags) {
  const int reps = flags.GetInt("compare_reps", 3);
  if (reps <= 0) return;
  const int n = flags.GetInt("compare_gemm_size", 512);

  std::vector<int> thread_counts = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > thread_counts.back()) thread_counts.push_back(hw);

  Rng rng(17);
  la::Matrix a(n, n), b(n, n), gemm_out(n, n);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Normal();
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Normal();

  const nn::GraphContext& ctx = CoraLikeContext();
  const la::CsrMatrix& adj = ctx.gcn_adj->mat;
  la::Matrix spmm_x(ctx.num_nodes(), 64), spmm_out(ctx.num_nodes(), 64);
  for (int64_t i = 0; i < spmm_x.size(); ++i) spmm_x.data()[i] = rng.Normal();
  // A wide operand: 128 contiguous columns per row, the shape the
  // multi-column SpmmRow kernel keeps in registers across a row's whole
  // nonzero list.
  la::Matrix spmm_wide_x(ctx.num_nodes(), 128), spmm_wide_out(ctx.num_nodes(), 128);
  for (int64_t i = 0; i < spmm_wide_x.size(); ++i) {
    spmm_wide_x.data()[i] = rng.Normal();
  }

  const int64_t vec_n = 4 * 1000 * 1000;
  std::vector<double> vx(vec_n), vy(vec_n);
  for (auto& v : vx) v = rng.Normal();
  for (auto& v : vy) v = rng.Normal();

  const double gemm_flops = 2.0 * n * n * n;
  const std::string nn_shape =
      std::to_string(n) + "x" + std::to_string(n) + "x" + std::to_string(n);
  std::vector<CompareCase> cases;
  cases.push_back({"gemm", nn_shape, gemm_flops,
                   [&](const la::Backend& be) { be.Gemm(a, b, &gemm_out); }});
  cases.push_back({"gemm_transA", nn_shape, gemm_flops,
                   [&](const la::Backend& be) { be.GemmTransA(a, b, &gemm_out); }});
  cases.push_back({"gemm_transB", nn_shape, gemm_flops,
                   [&](const la::Backend& be) { be.GemmTransB(a, b, &gemm_out); }});
  // Accumulates across repetitions on purpose: zeroing inside the timed
  // region would charge both backends a constant memset and dilute the ratio.
  cases.push_back({"spmm",
                   std::to_string(adj.rows()) + "x" + std::to_string(adj.cols()) +
                       " (" + std::to_string(adj.nnz()) + " nnz) x 64",
                   2.0 * static_cast<double>(adj.nnz()) * 64,
                   [&](const la::Backend& be) {
                     be.SpmmAccum(adj, spmm_x, 1.0, &spmm_out);
                   }});
  cases.push_back({"spmm_wide8",
                   std::to_string(adj.rows()) + "x" + std::to_string(adj.cols()) +
                       " (" + std::to_string(adj.nnz()) + " nnz) x 128",
                   2.0 * static_cast<double>(adj.nnz()) * 128,
                   [&](const la::Backend& be) {
                     be.SpmmAccum(adj, spmm_wide_x, 1.0, &spmm_wide_out);
                   }});
  cases.push_back({"vec_axpy", std::to_string(vec_n), 2.0 * vec_n,
                   [&](const la::Backend& be) {
                     be.VAxpy(0.5, vx.data(), vy.data(), vec_n);
                   }});
  cases.push_back({"vec_dot", std::to_string(vec_n), 2.0 * vec_n,
                   [&](const la::Backend& be) {
                     double d = be.VDot(vx.data(), vy.data(), vec_n);
                     benchmark::DoNotOptimize(d);
                   }});

  // The training step's exp: la::Exp, which any loop vectorises, against
  // libm's std::exp in the reference column. Both run on the calling thread
  // (every parallel row times the same la::Exp loop), over the arguments
  // softmax and GAT attention feed it. One "flop" is one exp.
  const int exp_n = 1 << 16;
  std::vector<double> exp_x(exp_n), exp_y(exp_n);
  for (double& v : exp_x) v = -30.0 * rng.Uniform();
  cases.push_back({"exp", std::to_string(exp_n) + " in [-30, 0]", exp_n,
                   [&](const la::Backend& be) {
                     if (be.name() == "reference") {
                       for (int i = 0; i < exp_n; ++i) exp_y[i] = std::exp(exp_x[i]);
                     } else {
                       for (int i = 0; i < exp_n; ++i) exp_y[i] = la::Exp(exp_x[i]);
                     }
                     benchmark::DoNotOptimize(exp_y.data());
                   }});

  const auto random = [&rng](int rows, int cols) {
    la::Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Normal();
    return m;
  };

  // The paper's narrow products: CoraLike's GAT head (1400 nodes, 32 hidden,
  // 7 classes) and PubmedLike's GCN head (3000 nodes, 16 hidden, 3 classes),
  // each as the forward product and its two backward forms. Half the node
  // side is zero, like a ReLU output.
  struct NarrowShape {
    int rows, inner, side;
    la::Matrix h, w, g;          // nodes x inner (half zeros), inner x side, nodes x side
    la::Matrix fwd, dw, dh;      // h·w, hᵀ·g, g·wᵀ
  };
  std::vector<NarrowShape> narrow;
  for (const auto& [rows, inner, side] :
       {std::tuple{1400, 32, 7}, std::tuple{3000, 16, 3}}) {
    NarrowShape ns{rows,
                   inner,
                   side,
                   random(rows, inner),
                   random(inner, side),
                   random(rows, side),
                   la::Matrix(rows, side),
                   la::Matrix(inner, side),
                   la::Matrix(rows, inner)};
    for (int64_t i = 0; i < ns.h.size(); ++i) {
      if (rng.Uniform() < 0.5) ns.h.data()[i] = 0.0;
    }
    narrow.push_back(std::move(ns));
  }
  for (NarrowShape& ns : narrow) {
    const double flops = 2.0 * ns.rows * ns.inner * ns.side;
    cases.push_back({"gemm", ShapeName({ns.rows, ns.inner, ns.side}), flops,
                     [&ns](const la::Backend& be) { be.Gemm(ns.h, ns.w, &ns.fwd); }});
    cases.push_back({"gemm_transA", ShapeName({ns.inner, ns.rows, ns.side}), flops,
                     [&ns](const la::Backend& be) {
                       be.GemmTransA(ns.h, ns.g, &ns.dw);
                     }});
    cases.push_back({"gemm_transB", ShapeName({ns.rows, ns.side, ns.inner}), flops,
                     [&ns](const la::Backend& be) {
                       be.GemmTransB(ns.g, ns.w, &ns.dh);
                     }});
  }

  // The operators DPReg and DPFR train on: CoraLike after EdgeRand at the
  // sweep's budget and seed (epsilon 4, seed 7), whose A+I has about 11x
  // the original graph's edges.
  const auto& cora = CoraLikeData();
  const nn::GraphContext dp_ctx = nn::GraphContext::Build(
      privacy::EdgeRand(cora.graph, 4.0, 7 ^ 0xd9ULL), cora.features);
  const la::CsrMatrix& dp_adj = dp_ctx.gcn_adj->mat;
  std::vector<std::pair<la::Matrix, la::Matrix>> dp_spmm;
  for (const int width : {7, 16, 32}) {
    dp_spmm.emplace_back(random(dp_ctx.num_nodes(), width),
                         la::Matrix(dp_ctx.num_nodes(), width));
  }
  for (auto& [x, out] : dp_spmm) {
    cases.push_back({"spmm_edgerand",
                     std::to_string(dp_adj.rows()) + "x" + std::to_string(dp_adj.cols()) +
                         " (" + std::to_string(dp_adj.nnz()) + " nnz) x " +
                         std::to_string(x.cols()),
                     2.0 * static_cast<double>(dp_adj.nnz()) * x.cols(),
                     [&dp_adj, &x, &out](const la::Backend& be) {
                       be.SpmmAccum(dp_adj, x, 1.0, &out);
                     }});
  }

  // One GatAttention forward plus backward on the clean graph and on that
  // one, as GAT's first layer (4 heads x 8) and second layer (1 head x 7)
  // run it. The op dispatches through the calling thread's backend. Flops
  // count the aggregation's multiply-adds, forward and backward.
  struct GatCase {
    int heads, dim;
    ag::Parameter h, left, right;
    la::Matrix seed;
  };
  std::vector<std::unique_ptr<GatCase>> gat_cases;
  for (const auto& [heads, dim] : {std::pair{4, 8}, std::pair{1, 7}}) {
    const int n = dp_ctx.num_nodes();
    gat_cases.push_back(std::make_unique<GatCase>(
        GatCase{heads, dim, ag::Parameter("h", random(n, heads * dim)),
                ag::Parameter("left", random(dim, heads)),
                ag::Parameter("right", random(dim, heads)), random(n, heads * dim)}));
  }
  for (const std::shared_ptr<const ag::EdgeSet>* edges :
       {&ctx.edges_with_self, &dp_ctx.edges_with_self}) {
    for (const auto& gc : gat_cases) {
      GatCase* c = gc.get();
      cases.push_back({"gat_attention_fwd_bwd",
                       std::to_string((*edges)->num_edges()) + " edges x " +
                           std::to_string(c->heads) + " heads x " + std::to_string(c->dim),
                       4.0 * static_cast<double>((*edges)->num_edges()) * c->heads * c->dim,
                       [c, edges](la::Backend& be) {
                         la::ThreadLocalBackendGuard guard(&be);
                         ag::Tape tape;
                         const ag::Var out = ag::GatAttention(
                             tape.Leaf(&c->h), tape.Leaf(&c->left), tape.Leaf(&c->right),
                             *edges, c->heads, 0.2);
                         tape.BackwardWithSeed(out, c->seed);
                       }});
    }
  }

  TablePrinter table(
      {"Kernel", "Shape", "thr", "ref ms", "par ms", "par spd", "par GFLOP/s"});
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(3);
  json.Key("bench").String("micro");
  json.Key("gemm_size").Int(n);
  json.Key("reps").Int(reps);
  json.Key("hardware_threads").Int(hw);
  bench::WriteHost(&json);
  json.Key("kernels").BeginArray();

  const auto reference = la::MakeBackend(la::BackendKind::kReference, 1);
  for (const CompareCase& cc : cases) {
    const double ref_ms = TimeKernel(*reference, cc, reps);
    json.BeginObject();
    json.Key("kernel").String(cc.kernel);
    json.Key("shape").String(cc.shape);
    json.Key("flops_per_call").Number(cc.flops_per_call);
    json.Key("timings").BeginArray();
    json.BeginObject();
    json.Key("backend").String("reference");
    json.Key("threads").Int(1);
    json.Key("ms").Number(ref_ms);
    json.Key("gflops").Number(Gflops(cc.flops_per_call, ref_ms));
    json.EndObject();
    for (const int t : thread_counts) {
      const double par_ms =
          TimeKernel(*la::MakeBackend(la::BackendKind::kParallel, t), cc, reps);
      json.BeginObject();
      json.Key("backend").String("parallel");
      json.Key("threads").Int(t);
      json.Key("ms").Number(par_ms);
      json.Key("gflops").Number(Gflops(cc.flops_per_call, par_ms));
      json.EndObject();
      table.AddRow({cc.kernel, cc.shape, std::to_string(t),
                    TablePrinter::Num(ref_ms, 2), TablePrinter::Num(par_ms, 2),
                    TablePrinter::Num(ref_ms / par_ms, 2) + "x",
                    TablePrinter::Num(Gflops(cc.flops_per_call, par_ms), 1)});
    }
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();

  std::printf("la::Backend comparison (best of %d reps; %d hardware threads)\n", reps, hw);
  table.Print();

  const std::string json_path = flags.GetString("json", "BENCH_micro.json");
  WriteFileOrDie(json_path, json.ToString());
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const ppfr::Flags flags(argc, argv);
  ppfr::la::ConfigureBackendFromFlags(flags);
  RunBackendComparison(flags);
  // Hand google-benchmark an argv without this binary's own flags so its
  // unrecognized-argument guard still catches misspelled --benchmark_* args.
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.starts_with("--la_backend") || arg.starts_with("--la_threads") ||
        arg.starts_with("--compare_") || arg.starts_with("--json")) {
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
