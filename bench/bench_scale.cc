// Scale-axis benchmark: nodes vs wall-time / peak-memory curves.
//
// Runs the streamed scale pipeline end to end at each point of a named sweep
// ("scale-smoke" for CI, "scale" for the committed trajectory) and times its
// five stages in isolation:
//   * generate  — one pass over the counter-based streamed edge multiset
//                 (no edge list, no CSR; measures raw generator throughput);
//   * build     — ScaleDataset construction, i.e. the two-pass bounded-peak
//                 CSR build replaying the same stream;
//   * train     — neighbour-sampled mini-batch GraphSAGE (TrainSampled):
//                 fanout-capped 2-hop blocks, per-batch frontier feature
//                 gathers — at no point does a full feature matrix exist;
//   * bridge    — the dense bridge the influence engine's context needs:
//                 CsrAdjacency::ToGraph, the materialised feature matrix
//                 and labels, and GraphContext::Build;
//   * influence — the frontier-partitioned per-node influence sweep
//                 (PartitionByTwoHopSupport + RunFrontierSweep). Every loss
//                 gradient it replays runs on its seed nodes' exact 2-hop
//                 block, so its cost follows the seed count, not the graph.
//
// Each stage reports wall seconds, the arena peak (logical bytes of live
// la::Matrix/CsrMatrix/CsrAdjacency buffers, reset per stage) and the
// process peak RSS (VmHWM — monotone over the process, so per-stage values
// read as "peak so far"). Emits BENCH_scale.json (schema pinned by
// bench/golden/artifact_schema.txt, section "scale"); --stable_artifact
// zeroes the measured fields so reruns with identical results are bitwise
// identical.
//
// The influence stage composes with fleet sharding: --shard=i/N runs only
// the frontier chunks owned by shard i (chunk k belongs to shard k % N).
//
//   ./bench_scale --sweep=scale-smoke --fanout=5 --batch_nodes=256
//       --epochs=3 --la_backend=parallel --la_threads=4 --json_dir=.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "data/scale_gen.h"
#include "graph/csr_builder.h"
#include "influence/frontier.h"
#include "influence/influence.h"
#include "la/backend.h"
#include "la/matrix.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/trainer.h"

namespace ppfr {
namespace {

// One point of a scale sweep. Training and influence are opt-in per point:
// the generate/build stages stream and never materialise anything dense, so
// they stretch to 10^7 nodes, while the influence stage also pays the dense
// bridge (a full feature matrix and context).
struct ScalePoint {
  int64_t nodes = 0;
  bool train = false;
  bool influence = false;
};

struct ScaleSweepSpec {
  std::string name;
  std::vector<ScalePoint> points;
};

// The registered scale sweeps. "scale" is the committed-artifact
// configuration (fully-staged 10^5 and 10^6 points around a 3·10^5
// generate/build/train point); "scale-smoke" is the single fully-staged
// point CI runs; "scale-tiny" is a seconds-fast local sanity loop.
std::vector<ScaleSweepSpec> RegisteredScaleSweeps() {
  return {
      {"scale-tiny", {{20000, true, true}}},
      {"scale-smoke", {{100000, true, true}}},
      {"scale",
       {{100000, true, true}, {300000, true, false}, {1000000, true, true}}},
  };
}

ScaleSweepSpec ResolveSweep(const std::string& name) {
  const std::vector<ScaleSweepSpec> sweeps = RegisteredScaleSweeps();
  for (const ScaleSweepSpec& sweep : sweeps) {
    if (sweep.name == name) return sweep;
  }
  std::fprintf(stderr, "--sweep '%s' is not a registered scale sweep; known:",
               name.c_str());
  for (const ScaleSweepSpec& sweep : sweeps) {
    std::fprintf(stderr, " %s", sweep.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(bench::kExitUsage);
}

// Per-stage measurement. The arena peak is reset before the stage body runs,
// so it reads "largest logical buffer footprint this stage reached on top of
// what was already live".
struct StageSample {
  bool ran = false;
  double wall_seconds = 0.0;
  int64_t arena_peak_bytes = 0;
  int64_t process_peak_rss_bytes = 0;
};

template <typename Body>
StageSample MeasureStage(const Body& body) {
  la::ResetArenaPeakBytes();
  Stopwatch watch;
  body();
  StageSample sample;
  sample.ran = true;
  sample.wall_seconds = watch.ElapsedSeconds();
  sample.arena_peak_bytes = la::ArenaPeakBytes();
  sample.process_peak_rss_bytes = la::ProcessPeakRssBytes();
  return sample;
}

struct TrainOutcome {
  StageSample stage;
  int train_nodes = 0;
  int batch_nodes = 0;
  double final_loss = 0.0;
  double val_accuracy = 0.0;
};

struct InfluenceOutcome {
  StageSample stage;
  int train_nodes = 0;
  int targets = 0;
  int chunks_total = 0;
  int chunks_run = 0;
  double influence_abs_mean = 0.0;
  double rhs_converged_frac = 0.0;  // RHS meeting the CG tolerance
};

struct PointResult {
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t edges_streamed = 0;
  int64_t csr_bytes = 0;
  int64_t arena_bytes_after_build = 0;
  int64_t max_degree = 0;
  double average_degree = 0.0;
  StageSample generate;
  StageSample build;
  TrainOutcome train;
  StageSample bridge;
  InfluenceOutcome influence;
};

struct BenchOptions {
  uint64_t seed = 1;
  int fanout = 5;
  int batch_nodes = 256;
  int epochs = 3;
  int train_count = 1024;
  int val_count = 512;
  int influence_train = 96;
  int influence_targets = 8;
  int64_t support_budget = 4096;
  int shard_index = 0;
  int shard_count = 1;
};

PointResult RunPoint(const ScalePoint& point, const BenchOptions& opts) {
  PointResult result;
  result.nodes = point.nodes;

  data::ScaleGraphConfig cfg;
  cfg.num_nodes = point.nodes;

  // generate: one streaming pass, counting the emitted multiset. This is the
  // pure generator cost — the build stage below pays it twice more.
  result.generate = MeasureStage([&] {
    int64_t streamed = 0;
    data::StreamScaleEdges(cfg, opts.seed,
                           [&](int64_t, int64_t) { ++streamed; });
    result.edges_streamed = streamed;
  });

  // build: ScaleDataset construction = the two-pass CSR build.
  std::optional<data::ScaleDataset> dataset;
  result.build = MeasureStage([&] { dataset.emplace(cfg, opts.seed); });
  const graph::CsrAdjacency& adj = dataset->adjacency();
  result.edges = adj.num_edges();
  result.max_degree = adj.MaxDegree();
  result.average_degree = adj.AverageDegree();
  result.csr_bytes =
      static_cast<int64_t>(adj.row_ptr().size()) * sizeof(int64_t) +
      static_cast<int64_t>(adj.adj().size()) * sizeof(int);
  result.arena_bytes_after_build = la::ArenaBytesInUse();

  if (!point.train) return result;

  // train: neighbour-sampled mini-batch GraphSAGE over a strided train split.
  // Feature rows exist only per-batch, gathered for each block's frontier.
  const int64_t train_target =
      std::min<int64_t>(opts.train_count, point.nodes / 4);
  const int64_t val_target = std::min<int64_t>(opts.val_count, point.nodes / 4);
  const std::vector<int> train_nodes =
      dataset->StridedNodes(std::max<int64_t>(train_target, 1), /*salt=*/1);
  const std::vector<int> val_nodes =
      dataset->StridedNodes(std::max<int64_t>(val_target, 1), /*salt=*/2);
  const std::vector<int> train_labels = dataset->LabelsFor(train_nodes);

  auto model = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                             dataset->num_classes(), opts.seed);
  nn::SampledTrainSpec spec;
  spec.adj = &adj;
  spec.gather_features = [&dataset](const std::vector<int>& nodes) {
    return dataset->GatherFeatures(nodes);
  };
  nn::TrainConfig train_cfg;
  train_cfg.epochs = opts.epochs;
  train_cfg.sage_fanout = opts.fanout;
  train_cfg.batch_nodes = opts.batch_nodes;
  train_cfg.seed = opts.seed;

  nn::TrainStats stats;
  result.train.stage = MeasureStage([&] {
    stats = nn::TrainSampled(model.get(), spec, train_nodes, train_labels,
                             train_cfg);
  });
  result.train.train_nodes = static_cast<int>(train_nodes.size());
  result.train.batch_nodes = opts.batch_nodes;
  result.train.final_loss = stats.final_loss;

  // Validation accuracy through the exact (full-fanout) sampled blocks.
  const la::Matrix val_logits = nn::SampledLogits(model.get(), spec, val_nodes);
  const std::vector<int> val_pred = la::ArgmaxRows(val_logits);
  const std::vector<int> val_labels = dataset->LabelsFor(val_nodes);
  int64_t correct = 0;
  for (size_t i = 0; i < val_nodes.size(); ++i) {
    if (val_pred[i] == val_labels[i]) ++correct;
  }
  result.train.val_accuracy =
      static_cast<double>(correct) / static_cast<double>(val_nodes.size());

  if (!point.influence) return result;

  // bridge + influence: frontier-partitioned per-node sweep over the dense
  // context. The context (features + propagation operators) only exists in
  // this scope; the bridge stage's arena peak is its footprint.
  {
    const std::vector<int> inf_train = dataset->StridedNodes(
        std::min<int64_t>(opts.influence_train, train_target), /*salt=*/3);
    const std::vector<int> targets = dataset->StridedNodes(
        std::min<int64_t>(opts.influence_targets, train_target), /*salt=*/4);
    std::optional<nn::GraphContext> ctx_slot;
    std::vector<int> labels;
    result.bridge = MeasureStage([&] {
      la::Matrix features = dataset->MaterializeFeatures();
      labels = dataset->MaterializeLabels();
      ctx_slot.emplace(nn::GraphContext::Build(adj.ToGraph(), std::move(features)));
    });
    const nn::GraphContext& ctx = *ctx_slot;

    influence::InfluenceConfig inf_cfg;
    // Damping 1.0 and a tight iteration cap: the curve tracks sweep
    // wall-time scaling, not solver convergence (the parity story lives in
    // tests/frontier_test.cc; rhs_converged_frac reports how many solves
    // met the tolerance). Narrow pools, as in the repository benchmark's
    // scale-influence workload.
    inf_cfg.cg.damping = 1.0;
    inf_cfg.cg.tolerance = 1e-6;
    inf_cfg.cg.max_iterations = 25;
    inf_cfg.tape_pool_lanes = 2;

    const influence::FrontierPartition partition =
        influence::PartitionByTwoHopSupport(ctx.graph, targets,
                                            opts.support_budget);
    influence::FrontierSweepResult sweep;
    influence::BlockSolveStats solve_stats;
    result.influence.stage = MeasureStage([&] {
      influence::InfluenceCalculator calc(model.get(), ctx, inf_train, labels,
                                          inf_cfg);
      sweep = influence::RunFrontierSweep(
          &calc, partition,
          {.shard_index = opts.shard_index, .shard_count = opts.shard_count});
      solve_stats = calc.block_stats();
    });
    result.influence.rhs_converged_frac =
        solve_stats.total_rhs > 0
            ? static_cast<double>(solve_stats.converged_rhs) / solve_stats.total_rhs
            : 0.0;
    result.influence.train_nodes = static_cast<int>(inf_train.size());
    result.influence.targets = static_cast<int>(sweep.targets.size());
    result.influence.chunks_total = static_cast<int>(partition.chunks.size());
    result.influence.chunks_run = sweep.chunks_run;
    double abs_sum = 0.0;
    int64_t count = 0;
    for (const std::vector<double>& row : sweep.influence) {
      for (double v : row) {
        abs_sum += std::abs(v);
        ++count;
      }
    }
    result.influence.influence_abs_mean =
        count > 0 ? abs_sum / static_cast<double>(count) : 0.0;
  }
  return result;
}

void ScrubStage(StageSample* stage) {
  stage->wall_seconds = 0.0;
  stage->arena_peak_bytes = 0;
  stage->process_peak_rss_bytes = 0;
}

void EmitStage(JsonWriter* json, const char* name, const StageSample& stage) {
  json->Key(name).BeginObject();
  json->Key("ran").Bool(stage.ran);
  JsonMetric(json, "wall_seconds", stage.wall_seconds);
  json->Key("arena_peak_bytes").Int(stage.arena_peak_bytes);
  json->Key("process_peak_rss_bytes").Int(stage.process_peak_rss_bytes);
  json->EndObject();
}

std::string HumanBytes(int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::RejectUnknownFlags(
      flags, {"sweep", "max_nodes", "fanout", "batch_nodes", "epochs", "seed",
              "train_count", "val_count", "influence_train",
              "influence_targets", "support_budget", "shard", "la_backend",
              "la_threads", "json_dir", "stable_artifact"});
  la::ConfigureBackendFromFlags(flags);
  bench::PreflightOutputPaths(flags);

  BenchOptions opts;
  opts.seed = flags.GetUint64("seed", 1);
  opts.fanout = flags.GetInt("fanout", 5);
  opts.batch_nodes = flags.GetInt("batch_nodes", 256);
  opts.epochs = flags.GetInt("epochs", 3);
  opts.train_count = flags.GetInt("train_count", 1024);
  opts.val_count = flags.GetInt("val_count", 512);
  opts.influence_train = flags.GetInt("influence_train", 96);
  opts.influence_targets = flags.GetInt("influence_targets", 8);
  opts.support_budget =
      static_cast<int64_t>(flags.GetUint64("support_budget", 4096));

  // Malformed values ('--fanout=abc') already died inside Flags with the flag
  // name; these are the VALUE contracts — a zero fanout or a negative batch
  // size would otherwise PPFR_CHECK-abort deep inside the sampler with a
  // stack trace instead of a usage line.
  if (opts.fanout < 1) {
    std::fprintf(stderr, "--fanout must be >= 1 (got %d)\n", opts.fanout);
    return bench::kExitUsage;
  }
  if (opts.batch_nodes < 0) {
    std::fprintf(stderr,
                 "--batch_nodes must be >= 0 (0 = one batch per epoch; got "
                 "%d)\n",
                 opts.batch_nodes);
    return bench::kExitUsage;
  }
  if (opts.epochs < 1) {
    std::fprintf(stderr, "--epochs must be >= 1 (got %d)\n", opts.epochs);
    return bench::kExitUsage;
  }
  if (opts.train_count < 1 || opts.val_count < 1 || opts.influence_train < 1 ||
      opts.influence_targets < 1) {
    std::fprintf(stderr,
                 "--train_count/--val_count/--influence_train/"
                 "--influence_targets must be >= 1\n");
    return bench::kExitUsage;
  }
  if (opts.support_budget < 1) {
    std::fprintf(stderr, "--support_budget must be >= 1\n");
    return bench::kExitUsage;
  }
  if (flags.Has("shard")) {
    const std::string raw = flags.GetString("shard", "");
    char tail = '\0';
    if (std::sscanf(raw.c_str(), "%d/%d%c", &opts.shard_index,
                    &opts.shard_count, &tail) != 2 ||
        opts.shard_count < 1 || opts.shard_index < 0 ||
        opts.shard_index >= opts.shard_count) {
      std::fprintf(stderr,
                   "--shard wants i/N with 0 <= i < N (e.g. --shard=0/3), got "
                   "'%s'\n",
                   raw.c_str());
      return bench::kExitUsage;
    }
  }

  ScaleSweepSpec sweep = ResolveSweep(flags.GetString("sweep", "scale-smoke"));
  const int64_t max_nodes =
      static_cast<int64_t>(flags.GetUint64("max_nodes", 0));
  if (max_nodes > 0) {
    std::vector<ScalePoint> kept;
    for (const ScalePoint& point : sweep.points) {
      if (point.nodes <= max_nodes) kept.push_back(point);
    }
    if (kept.empty()) {
      std::fprintf(stderr, "--max_nodes=%lld drops every point of sweep '%s'\n",
                   static_cast<long long>(max_nodes), sweep.name.c_str());
      return bench::kExitUsage;
    }
    sweep.points = std::move(kept);
  }

  std::printf(
      "scale bench: sweep=%s backend=%s threads=%d fanout=%d batch_nodes=%d "
      "epochs=%d shard=%d/%d\n",
      sweep.name.c_str(), la::ActiveBackend().name().c_str(),
      la::ActiveBackend().num_threads(), opts.fanout, opts.batch_nodes,
      opts.epochs, opts.shard_index, opts.shard_count);

  std::vector<PointResult> results;
  for (const ScalePoint& point : sweep.points) {
    std::printf("point: %lld nodes (train=%d influence=%d)\n",
                static_cast<long long>(point.nodes), point.train ? 1 : 0,
                point.influence ? 1 : 0);
    results.push_back(RunPoint(point, opts));
  }

  const bool stable = flags.GetBool("stable_artifact", false);
  if (stable) {
    for (PointResult& r : results) {
      ScrubStage(&r.generate);
      ScrubStage(&r.build);
      ScrubStage(&r.train.stage);
      ScrubStage(&r.bridge);
      ScrubStage(&r.influence.stage);
    }
  }

  TablePrinter table({"nodes", "edges", "gen s", "build s", "train s",
                      "bridge s", "infl s", "csr", "peak rss"});
  for (const PointResult& r : results) {
    table.AddRow({std::to_string(r.nodes), std::to_string(r.edges),
                  TablePrinter::Num(r.generate.wall_seconds),
                  TablePrinter::Num(r.build.wall_seconds),
                  r.train.stage.ran ? TablePrinter::Num(r.train.stage.wall_seconds)
                                    : std::string("-"),
                  r.bridge.ran ? TablePrinter::Num(r.bridge.wall_seconds)
                               : std::string("-"),
                  r.influence.stage.ran
                      ? TablePrinter::Num(r.influence.stage.wall_seconds)
                      : std::string("-"),
                  HumanBytes(r.csr_bytes),
                  HumanBytes(stable ? 0 : la::ProcessPeakRssBytes())});
  }
  table.Print();

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(2);
  json.Key("sweep").String(sweep.name);
  json.Key("backend").String(la::ActiveBackend().name());
  json.Key("threads").Int(la::ActiveBackend().num_threads());
  json.Key("seed").Uint(opts.seed);
  json.Key("fanout").Int(opts.fanout);
  json.Key("batch_nodes").Int(opts.batch_nodes);
  json.Key("epochs").Int(opts.epochs);
  json.Key("shard_index").Int(opts.shard_index);
  json.Key("shard_count").Int(opts.shard_count);
  json.Key("process_peak_rss_bytes")
      .Int(stable ? 0 : la::ProcessPeakRssBytes());
  json.Key("points").BeginArray();
  for (const PointResult& r : results) {
    json.BeginObject();
    json.Key("nodes").Int(r.nodes);
    json.Key("edges").Int(r.edges);
    json.Key("edges_streamed").Int(r.edges_streamed);
    json.Key("csr_bytes").Int(r.csr_bytes);
    json.Key("arena_bytes_after_build")
        .Int(stable ? 0 : r.arena_bytes_after_build);
    json.Key("max_degree").Int(r.max_degree);
    JsonMetric(&json, "average_degree", r.average_degree);
    EmitStage(&json, "generate", r.generate);
    EmitStage(&json, "build", r.build);
    json.Key("train").BeginObject();
    json.Key("ran").Bool(r.train.stage.ran);
    JsonMetric(&json, "wall_seconds", r.train.stage.wall_seconds);
    json.Key("arena_peak_bytes").Int(r.train.stage.arena_peak_bytes);
    json.Key("process_peak_rss_bytes").Int(r.train.stage.process_peak_rss_bytes);
    json.Key("train_nodes").Int(r.train.train_nodes);
    json.Key("batch_nodes").Int(r.train.batch_nodes);
    JsonMetric(&json, "final_loss", r.train.final_loss);
    JsonMetric(&json, "val_accuracy", r.train.val_accuracy);
    json.EndObject();
    EmitStage(&json, "bridge", r.bridge);
    json.Key("influence").BeginObject();
    json.Key("ran").Bool(r.influence.stage.ran);
    JsonMetric(&json, "wall_seconds", r.influence.stage.wall_seconds);
    json.Key("arena_peak_bytes").Int(r.influence.stage.arena_peak_bytes);
    json.Key("process_peak_rss_bytes")
        .Int(r.influence.stage.process_peak_rss_bytes);
    json.Key("train_nodes").Int(r.influence.train_nodes);
    json.Key("targets").Int(r.influence.targets);
    json.Key("chunks_total").Int(r.influence.chunks_total);
    json.Key("chunks_run").Int(r.influence.chunks_run);
    json.Key("support_budget").Int(opts.support_budget);
    JsonMetric(&json, "influence_abs_mean", r.influence.influence_abs_mean);
    JsonMetric(&json, "rhs_converged_frac", r.influence.rhs_converged_frac);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const std::string json_path =
      (std::filesystem::path(flags.GetString("json_dir", ".")) /
       "BENCH_scale.json")
          .string();
  WriteFileOrDie(json_path, json.ToString());
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace ppfr

int main(int argc, char** argv) { return ppfr::Main(argc, argv); }
