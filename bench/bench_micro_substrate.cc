// Micro-benchmarks of the substrate hot paths (google-benchmark): SpMM, GCN
// forward/backward, GAT attention, Jaccard similarity, attack distance
// evaluation, influence per-node gradients and the QCLP solver. These bound
// the cost of every experiment binary in this repo.
//
// Before the google-benchmark suite runs, the binary prints a
// reference/parallel/simd backend comparison per kernel and per thread count
// and emits it as BENCH_micro.json (the BENCH trajectory for the la::Backend
// layer — per-kernel GFLOP/s across PRs; schema pinned by
// bench/golden/artifact_schema.txt, section "micro"). Flags:
//   --la_backend=reference|parallel|simd --la_threads=N   backend for BM_*
//   --compare_reps=N        timing repetitions for the comparison (0 skips it)
//   --compare_gemm_size=N   GEMM problem size (default 512, i.e. 512x512x512)
//   --json=PATH             comparison artifact path (default BENCH_micro.json)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "data/datasets.h"
#include "graph/graph_ops.h"
#include "graph/jaccard.h"
#include "la/backend.h"
#include "la/simd_kernels.h"
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
// and on ParallelBackend/SimdBackend instances with increasing thread
// counts; the table reports milliseconds, speedups over the reference loops
// and the simd backend's GFLOP/s. The same numbers are emitted to
// BENCH_micro.json so the kernel trajectory is tracked across PRs like the
// influence and sweep artifacts.
// ---------------------------------------------------------------------------

struct CompareCase {
  std::string kernel;
  std::string shape;
  double flops_per_call;
  std::function<void(const la::Backend&)> run;
};

double TimeKernel(const la::Backend& backend, const CompareCase& cc, int reps) {
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

  const bool simd_active = la::simd::KernelsUsable();

  TablePrinter table({"Kernel", "Shape", "thr", "ref ms", "par ms", "par spd",
                      "simd ms", "simd spd", "simd GFLOP/s"});
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("bench").String("micro");
  json.Key("gemm_size").Int(n);
  json.Key("reps").Int(reps);
  json.Key("hardware_threads").Int(hw);
  json.Key("simd_cpu_avx2_fma").Bool(la::simd::CpuSupportsAvx2Fma());
  json.Key("simd_cpu_avx512").Bool(la::simd::CpuSupportsAvx512());
  json.Key("simd_kernels_active").Bool(simd_active);
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
      const double simd_ms =
          TimeKernel(*la::MakeBackend(la::BackendKind::kSimd, t), cc, reps);
      for (const auto& [name, ms] :
           {std::pair<const char*, double>{"parallel", par_ms}, {"simd", simd_ms}}) {
        json.BeginObject();
        json.Key("backend").String(name);
        json.Key("threads").Int(t);
        json.Key("ms").Number(ms);
        json.Key("gflops").Number(Gflops(cc.flops_per_call, ms));
        json.EndObject();
      }
      table.AddRow({cc.kernel, cc.shape, std::to_string(t),
                    TablePrinter::Num(ref_ms, 2), TablePrinter::Num(par_ms, 2),
                    TablePrinter::Num(ref_ms / par_ms, 2) + "x",
                    TablePrinter::Num(simd_ms, 2),
                    TablePrinter::Num(ref_ms / simd_ms, 2) + "x",
                    TablePrinter::Num(Gflops(cc.flops_per_call, simd_ms), 1)});
    }
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();

  std::printf(
      "la::Backend comparison (best of %d reps; %d hardware threads; "
      "simd kernels %s: avx2+fma=%d avx512=%d)\n",
      reps, hw, simd_active ? "active" : "fallback (scalar)",
      la::simd::CpuSupportsAvx2Fma() ? 1 : 0, la::simd::CpuSupportsAvx512() ? 1 : 0);
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
