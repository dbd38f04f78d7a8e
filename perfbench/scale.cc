// The two scale-axis workloads: the streamed generate -> CSR build ->
// sampled-SAGE pipeline, with (scale-influence, 10^5 nodes) or without
// (scale-build, 10^6 nodes) the dense bridge and frontier influence sweep.
//
// The graph is the recorded reference graph (generator seed kGraphSeed), so
// its edge count is checked exactly. What the workload seed picks is chosen
// so that the amount of work does not depend on it:
//   * scale-build: the SAGE train nodes, model initialisation and sampling
//     stream (fanout-capped, so every seed does the same work); validation
//     nodes are fixed, because full-fanout validation blocks grow with the
//     hubs a node set happens to touch.
//   * scale-influence: the validation nodes only. The influence-train and
//     target nodes are fixed, since 2-hop supports grow with hubs (seed-picked
//     targets moved peak RSS between 1.17 and 1.70 GB), and so is the trained
//     model, since the block-CG iteration count follows it (66 to 198 probe
//     gradient evaluations over three seeds).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "data/scale_gen.h"
#include "graph/csr_builder.h"
#include "influence/frontier.h"
#include "influence/influence.h"
#include "la/matrix.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "probe.h"

namespace perfbench {
namespace {

namespace data = ppfr::data;
namespace graph = ppfr::graph;
namespace influence = ppfr::influence;
namespace la = ppfr::la;
namespace nn = ppfr::nn;

constexpr uint64_t kGraphSeed = 1;

struct ScaleSpec {
  int64_t nodes = 0;
  int64_t expected_edges = -1;  // < 0: not checked (warm-up graphs)
  int train_count = 0;
  int val_count = 0;
  int fanout = 0;
  int batch_nodes = 0;
  int epochs = 0;
  bool influence = false;
  // Influence stage, as bench_scale's scale-smoke point runs it.
  int influence_train = 96;
  int influence_targets = 8;
  int64_t support_budget = 4096;
};

// bench_scale's scale-smoke point: 10^5 nodes, every stage.
ScaleSpec ScaleInfluenceSpec() {
  ScaleSpec spec;
  spec.nodes = 100000;
  spec.expected_edges = 385943;
  spec.train_count = 1024;
  spec.val_count = 2048;  // bench_scale uses 512; 2048 halves the seed noise
  spec.fanout = 5;
  spec.batch_nodes = 256;
  spec.epochs = 3;
  spec.influence = true;
  return spec;
}

// 10^6 nodes with a training set large enough that the sampler, not the
// optimiser step, is a third of the work.
ScaleSpec ScaleBuildSpec() {
  ScaleSpec spec;
  spec.nodes = 1000000;
  spec.expected_edges = 3901469;
  spec.train_count = 16384;
  spec.val_count = 2048;
  spec.fanout = 10;
  spec.batch_nodes = 1024;
  spec.epochs = 3;
  return spec;
}

// The same pipeline at 10^4 nodes: run before timing starts so thread
// pools, the allocator and code paths are warm. This is setup_s.
ScaleSpec WarmupSpec(const ScaleSpec& spec) {
  ScaleSpec warm = spec;
  warm.nodes = 10000;
  warm.expected_edges = -1;
  warm.train_count = std::min(spec.train_count, 1024);
  warm.val_count = std::min(spec.val_count, 512);
  return warm;
}

// StridedNodes salts of the fixed node sets; a seed-picked set uses salt
// kSeededSalt + seed, which never collides with them. Target salt 7 gives one
// frontier chunk of ~3.5k support rows at 10^5 nodes.
constexpr uint64_t kValSalt = 5;
constexpr uint64_t kInfluenceTrainSalt = 6;
constexpr uint64_t kTargetSalt = 7;
constexpr uint64_t kTrainSalt = 8;
constexpr uint64_t kSeededSalt = 100;
constexpr uint64_t kPinnedModelSeed = 1;

// The seed-dependent choices of one workload run (see the file comment).
struct Draw {
  uint64_t model_seed = 0;  // model init and neighbour sampling
  uint64_t train_salt = 0;
  uint64_t val_salt = 0;
};

Draw DrawFor(const ScaleSpec& spec, uint64_t seed) {
  if (spec.influence) return {kPinnedModelSeed, kTrainSalt, kSeededSalt + seed};
  return {seed, kSeededSalt + seed, kValSalt};
}

// Minor page faults of this process so far: first touches of fresh pages.
int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

struct RepOutcome {
  double wall_s = 0.0;
  double val_accuracy = 0.0;
};

RepOutcome RunRep(const ScaleSpec& spec, const Draw& draw, Trace* trace,
                  RunReport* report) {
  const int64_t allocs_before = la::MatrixAllocCount();
  la::ResetArenaPeakBytes();
  const double start = Now();
  RepOutcome out;

  data::ScaleGraphConfig cfg;
  cfg.num_nodes = spec.nodes;

  int64_t streamed = 0;
  {
    Span span(trace, "data.generate_s");
    data::StreamScaleEdges(cfg, kGraphSeed, [&](int64_t, int64_t) { ++streamed; });
  }
  std::optional<data::ScaleDataset> dataset;
  {
    Span span(trace, "graph.csr_build_s");
    dataset.emplace(cfg, kGraphSeed);
  }
  const graph::CsrAdjacency& adj = dataset->adjacency();
  if (spec.expected_edges >= 0) {
    report->Check(adj.num_edges() == spec.expected_edges,
                  "edge count " + std::to_string(adj.num_edges()) + " != recorded " +
                      std::to_string(spec.expected_edges));
  }
  if (trace != nullptr) {
    trace->Set("graph.csr_mb",
               static_cast<double>(adj.row_ptr().size() * sizeof(int64_t) +
                                   adj.adj().size() * sizeof(int)) /
                   kMiB);
  }

  const std::vector<int> train_nodes = dataset->StridedNodes(spec.train_count, draw.train_salt);
  const std::vector<int> val_nodes = dataset->StridedNodes(spec.val_count, draw.val_salt);
  const std::vector<int> train_labels = dataset->LabelsFor(train_nodes);
  auto model = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                             dataset->num_classes(), draw.model_seed);
  nn::SampledTrainSpec sampled;
  sampled.adj = &adj;
  sampled.gather_features = [&dataset](const std::vector<int>& nodes) {
    return dataset->GatherFeatures(nodes);
  };
  nn::TrainConfig train_cfg;
  train_cfg.epochs = spec.epochs;
  train_cfg.sage_fanout = spec.fanout;
  train_cfg.batch_nodes = spec.batch_nodes;
  train_cfg.seed = draw.model_seed;
  nn::TrainStats stats;
  {
    Span span(trace, "nn.train_sampled_s");
    stats = nn::TrainSampled(model.get(), sampled, train_nodes, train_labels, train_cfg);
  }
  report->Check(std::isfinite(stats.final_loss), "sampled SAGE loss is not finite");

  la::Matrix val_logits;
  {
    Span span(trace, "nn.sampled_logits_s");
    val_logits = nn::SampledLogits(model.get(), sampled, val_nodes);
  }
  const std::vector<int> val_pred = la::ArgmaxRows(val_logits);
  const std::vector<int> val_labels = dataset->LabelsFor(val_nodes);
  int64_t hits = 0;
  for (size_t i = 0; i < val_nodes.size(); ++i) hits += val_pred[i] == val_labels[i];
  out.val_accuracy = static_cast<double>(hits) / static_cast<double>(val_nodes.size());
  // Better than chance over the label blocks, or training did nothing.
  report->Check(out.val_accuracy > 1.0 / dataset->num_classes(),
                "sampled SAGE validation accuracy " + std::to_string(out.val_accuracy) +
                    " is at chance");

  int64_t arena_peak = la::ArenaPeakBytes();
  if (spec.influence) {
    const std::vector<int> inf_train = dataset->StridedNodes(
        std::min(spec.influence_train, spec.train_count), kInfluenceTrainSalt);
    const std::vector<int> targets = dataset->StridedNodes(
        std::min(spec.influence_targets, spec.train_count), kTargetSalt);

    // The dense bridge: streamed CSR -> edge-list graph, dense features and
    // the full-graph propagation operators the influence engine needs.
    std::optional<nn::GraphContext> ctx;
    std::vector<int> labels;
    {
      Span span(trace, "influence.dense_bridge_s");
      graph::Graph g = adj.ToGraph();
      la::Matrix features = dataset->MaterializeFeatures();
      labels = dataset->MaterializeLabels();
      ctx.emplace(nn::GraphContext::Build(std::move(g), std::move(features)));
    }

    // bench_scale's settings for the scale-smoke point.
    influence::InfluenceConfig inf_cfg;
    inf_cfg.cg.damping = 1.0;
    inf_cfg.cg.tolerance = 1e-6;
    inf_cfg.cg.max_iterations = 25;
    inf_cfg.tape_pool_lanes = 2;
    inf_cfg.replay_lanes = 2;

    arena_peak = std::max(arena_peak, la::ArenaPeakBytes());
    la::ResetArenaPeakBytes();
    std::optional<influence::FrontierPartition> partition;
    std::optional<influence::InfluenceCalculator> calc;
    {
      Span span(trace, "influence.partition_s");
      partition.emplace(
          influence::PartitionByTwoHopSupport(ctx->graph, targets, spec.support_budget));
      calc.emplace(model.get(), *ctx, inf_train, labels, inf_cfg);
    }
    influence::FrontierSweepResult sweep;
    const int64_t faults_before = MinorFaults();
    {
      Span span(trace, "influence.sweep_s");
      sweep = influence::RunFrontierSweep(&*calc, *partition, {});
    }
    const int64_t sweep_faults = MinorFaults() - faults_before;
    const int64_t influence_peak = la::ArenaPeakBytes();
    arena_peak = std::max(arena_peak, influence_peak);

    std::vector<int> covered = sweep.targets;
    std::sort(covered.begin(), covered.end());
    std::vector<int> wanted = targets;
    std::sort(wanted.begin(), wanted.end());
    report->Check(covered == wanted,
                  "frontier partition does not cover every target exactly once");
    for (size_t t = 0; t < sweep.influence.size(); ++t) {
      const std::vector<double>& row = sweep.influence[t];
      const bool finite =
          row.size() == inf_train.size() &&
          std::all_of(row.begin(), row.end(), [](double v) { return std::isfinite(v); });
      report->Check(finite, "influence row " + std::to_string(t) + " is not finite");
    }

    if (trace != nullptr) {
      int64_t support_rows = 0;
      for (const influence::FrontierChunk& chunk : partition->chunks) {
        support_rows += static_cast<int64_t>(chunk.support.size());
      }
      const influence::BlockSolveStats& block = calc->block_stats();
      trace->Set("influence.minor_faults", static_cast<double>(sweep_faults));
      trace->Set("influence.chunks", static_cast<double>(partition->chunks.size()));
      trace->Set("influence.support_rows", static_cast<double>(support_rows));
      trace->Set("influence.arena_peak_mb", static_cast<double>(influence_peak) / kMiB);
      trace->Set("influence.grad_evals", block.grad_evals);
      trace->Set("influence.block_iterations", block.block_iterations);
      trace->Set("influence.rhs_converged_frac",
                 block.total_rhs > 0
                     ? static_cast<double>(block.converged_rhs) / block.total_rhs
                     : 0.0);
    }
  }

  out.wall_s = Now() - start;
  if (trace != nullptr) {
    trace->Set("la.matrix_allocs",
               static_cast<double>(la::MatrixAllocCount() - allocs_before));
    trace->Set("la.arena_peak_mb", static_cast<double>(arena_peak) / kMiB);
  }
  return out;
}

RunReport RunScale(const ScaleSpec& spec, const WorkloadOptions& options) {
  RunReport report;
  // setup_s: five warm-up passes of the pipeline at 10^4 nodes; their
  // checks are not part of the workload.
  for (int i = 0; i < 5; ++i) {
    RunReport scratch;
    const double start = Now();
    RunRep(WarmupSpec(spec), DrawFor(spec, options.seed), nullptr, &scratch);
    report.Sample("setup_s", "s", Now() - start);
  }

  // Repeat the pipeline until the next repetition would overrun --seconds
  // (always at least one); every metric is the median over repetitions.
  const double start = Now();
  double last = 0.0;
  do {
    Trace trace;
    const RepOutcome rep =
        RunRep(spec, DrawFor(spec, options.seed), options.trace ? &trace : nullptr, &report);
    last = rep.wall_s;
    report.Sample("wall_s", "s", rep.wall_s);
    report.Sample("sage.val_accuracy", "fraction", rep.val_accuracy);
    if (options.trace) report.SampleTrace(trace);
  } while (Now() - start + last <= options.seconds);

  report.Sample("peak_rss_mb", "MB", static_cast<double>(la::ProcessPeakRssBytes()) / kMiB);
  return report;
}

}  // namespace

RunReport RunScaleInfluence(const WorkloadOptions& options) {
  return RunScale(ScaleInfluenceSpec(), options);
}

RunReport RunScaleBuild(const WorkloadOptions& options) {
  return RunScale(ScaleBuildSpec(), options);
}

}  // namespace perfbench
