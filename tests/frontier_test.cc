// Tests for the frontier-partitioned per-node influence sweep
// (influence/frontier). The contracts:
//   * PartitionByTwoHopSupport exactly covers the targets with
//     2-hop-support-local chunks respecting the budget (hubs excepted);
//   * RunFrontierSweep's rows are BITWISE identical to the existing
//     InfluenceOnNodeLosses path invoked on the same target lists — per
//     chunk by construction, verified here against FRESH calculators and
//     under every backend/thread count;
//   * at cg_block = 1 (the single-RHS oracle) rows are bitwise identical
//     ACROSS different chunkings of the same targets;
//   * --shard=i/N style sharding yields a disjoint exact cover whose merged
//     rows equal the unsharded sweep's.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "influence/frontier.h"
#include "influence/influence.h"
#include "la/backend.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr::influence {
namespace {

struct SweepFixture {
  data::NodeClassificationData data;
  nn::GraphContext ctx;
  data::Split split;
  std::unique_ptr<nn::GnnModel> model;

  SweepFixture()
      : data(ppfr::testing::SmallSbm(/*seed=*/42, /*num_nodes=*/120)),
        ctx(nn::GraphContext::Build(data.graph, data.features)),
        split(data::MakeSplit(120, /*train=*/36, 0, /*seed=*/5)) {
    model = nn::MakeModel(nn::ModelKind::kGcn, ctx.feature_dim(),
                          data.num_classes, /*seed=*/7);
    nn::TrainConfig tc;
    tc.epochs = 25;
    nn::Train(model.get(), ctx, split.train, data.labels, tc);
  }

  InfluenceConfig Config(int cg_block) const {
    InfluenceConfig cfg;
    cfg.cg.damping = 1.0;
    cfg.cg.tolerance = 1e-8;
    cfg.cg.max_iterations = 100;
    cfg.cg_block = cg_block;
    cfg.tape_pool_lanes = 2;
    return cfg;
  }

  InfluenceCalculator MakeCalc(int cg_block) const {
    return InfluenceCalculator(model.get(), ctx, split.train, data.labels,
                               Config(cg_block));
  }
};

TEST(FrontierPartitionTest, ExactCoverWithinSupportBudget) {
  const SweepFixture fix;
  std::vector<int> targets(fix.split.train.begin(), fix.split.train.end());
  const FrontierPartition partition =
      PartitionByTwoHopSupport(fix.ctx.graph, targets, /*support_budget=*/30);
  ASSERT_GT(partition.chunks.size(), 1u);

  // Disjoint exact cover of the (deduplicated, sorted) targets.
  std::vector<int> covered;
  for (const FrontierChunk& chunk : partition.chunks) {
    ASSERT_FALSE(chunk.targets.empty());
    ASSERT_TRUE(std::is_sorted(chunk.targets.begin(), chunk.targets.end()));
    covered.insert(covered.end(), chunk.targets.begin(), chunk.targets.end());

    // Chunk support really is the union of its targets' 2-hop supports, and
    // respects the budget unless the chunk is a singleton hub.
    std::set<int> want_support;
    for (int t : chunk.targets) {
      want_support.insert(t);
      for (int u : fix.ctx.graph.Neighbors(t)) {
        want_support.insert(u);
        for (int w : fix.ctx.graph.Neighbors(u)) want_support.insert(w);
      }
    }
    const std::set<int> got_support(chunk.support.begin(), chunk.support.end());
    EXPECT_EQ(got_support, want_support);
    if (chunk.targets.size() > 1) {
      EXPECT_LE(static_cast<int64_t>(chunk.support.size()), 30);
    }
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  ASSERT_TRUE(std::is_sorted(covered.begin(), covered.end()));
  EXPECT_EQ(covered, targets);

  // Deterministic: chunking depends only on (graph, targets, budget).
  const FrontierPartition again =
      PartitionByTwoHopSupport(fix.ctx.graph, targets, 30);
  ASSERT_EQ(again.chunks.size(), partition.chunks.size());
  for (size_t k = 0; k < partition.chunks.size(); ++k) {
    EXPECT_EQ(again.chunks[k].targets, partition.chunks[k].targets);
    EXPECT_EQ(again.chunks[k].support, partition.chunks[k].support);
  }

  // A budget of 1 forces singleton chunks (every support exceeds it).
  const FrontierPartition singletons =
      PartitionByTwoHopSupport(fix.ctx.graph, targets, 1);
  EXPECT_EQ(singletons.chunks.size(), targets.size());
  for (const FrontierChunk& chunk : singletons.chunks) {
    EXPECT_EQ(chunk.targets.size(), 1u);
  }
}

// The headline contract: under EVERY backend/thread count, each chunk's rows
// from the frontier sweep are bitwise identical to a fresh calculator's
// InfluenceOnNodeLosses on that chunk's target list — the partition changes
// scheduling and locality, never a float.
TEST(FrontierSweepTest, BitwiseMatchesPerNodePathPerChunkOnAllBackends) {
  const SweepFixture fix;
  const std::vector<int> targets(fix.split.train.begin(),
                                 fix.split.train.begin() + 12);
  const FrontierPartition partition =
      PartitionByTwoHopSupport(fix.ctx.graph, targets, /*support_budget=*/40);

  const std::vector<std::pair<la::BackendKind, int>> backends = {
      {la::BackendKind::kReference, 1},
      {la::BackendKind::kParallel, 3},
      {la::BackendKind::kSimd, 2},
  };
  for (const auto& [kind, threads] : backends) {
    la::ScopedBackend scoped(kind, threads);
    InfluenceCalculator sweep_calc = fix.MakeCalc(/*cg_block=*/0);
    const FrontierSweepResult sweep = RunFrontierSweep(&sweep_calc, partition,
                                                       FrontierSweepOptions{});
    ASSERT_EQ(sweep.chunks_run, static_cast<int>(partition.chunks.size()));
    ASSERT_EQ(sweep.targets.size(), sweep.influence.size());

    size_t row = 0;
    for (const FrontierChunk& chunk : partition.chunks) {
      InfluenceCalculator fresh = fix.MakeCalc(/*cg_block=*/0);
      const auto want = fresh.InfluenceOnNodeLosses(chunk.targets);
      ASSERT_EQ(want.size(), chunk.targets.size());
      for (size_t i = 0; i < chunk.targets.size(); ++i, ++row) {
        ASSERT_EQ(sweep.targets[row], chunk.targets[i]);
        ASSERT_EQ(sweep.influence[row], want[i])
            << "backend " << static_cast<int>(kind) << " chunk row " << i;
      }
    }
  }
}

// With cg_block = 1 every RHS goes through the single-RHS oracle, so a
// target's solve depends only on its own loss gradient. That gradient comes
// from the block of the target's chunk, whose frontier order — and so
// summation order — depends on the chunk's other targets; the rows therefore
// coincide across ANY chunking of the same targets to roundoff: the block
// path's gradient contract (1e-12 relative) carried through one damped solve.
TEST(FrontierSweepTest, SingleRhsOracleIsChunkingInvariant) {
  const SweepFixture fix;
  const std::vector<int> targets(fix.split.train.begin(),
                                 fix.split.train.begin() + 10);

  const auto sweep_rows = [&](const FrontierPartition& partition) {
    InfluenceCalculator calc = fix.MakeCalc(/*cg_block=*/1);
    const FrontierSweepResult result =
        RunFrontierSweep(&calc, partition, FrontierSweepOptions{});
    std::map<int, std::vector<double>> rows;
    for (size_t i = 0; i < result.targets.size(); ++i) {
      rows[result.targets[i]] = result.influence[i];
    }
    return rows;
  };

  FrontierPartition one_chunk;
  one_chunk.chunks.push_back(FrontierChunk{targets, {}});
  const FrontierPartition fine =
      PartitionByTwoHopSupport(fix.ctx.graph, targets, /*support_budget=*/1);
  ASSERT_EQ(fine.chunks.size(), targets.size());

  for (const auto& [kind, threads] : std::vector<std::pair<la::BackendKind, int>>{
           {la::BackendKind::kReference, 1}, {la::BackendKind::kParallel, 3}}) {
    la::ScopedBackend scoped(kind, threads);
    const auto whole = sweep_rows(one_chunk);
    const auto split = sweep_rows(fine);
    ASSERT_EQ(split.size(), targets.size());
    for (const auto& [target, row] : split) {
      const std::vector<double>& want = whole.at(target);
      ASSERT_EQ(row.size(), want.size());
      double diff = 0.0;
      double ref = 0.0;
      for (size_t v = 0; v < want.size(); ++v) {
        diff += (row[v] - want[v]) * (row[v] - want[v]);
        ref += want[v] * want[v];
      }
      EXPECT_LT(std::sqrt(diff / ref), 1e-11)
          << "backend " << static_cast<int>(kind) << " target " << target;
    }
  }
}

TEST(FrontierSweepTest, ShardsFormDisjointCoverAndMergeBitwise) {
  const SweepFixture fix;
  const std::vector<int> targets(fix.split.train.begin(),
                                 fix.split.train.begin() + 12);
  const FrontierPartition partition =
      PartitionByTwoHopSupport(fix.ctx.graph, targets, /*support_budget=*/25);
  ASSERT_GE(partition.chunks.size(), 3u);

  InfluenceCalculator full_calc = fix.MakeCalc(/*cg_block=*/0);
  const FrontierSweepResult full =
      RunFrontierSweep(&full_calc, partition, FrontierSweepOptions{});

  constexpr int kShards = 3;
  std::map<int, std::vector<double>> merged;
  int chunks_run = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    InfluenceCalculator calc = fix.MakeCalc(/*cg_block=*/0);
    const FrontierSweepResult part = RunFrontierSweep(
        &calc, partition, {.shard_index = shard, .shard_count = kShards});
    chunks_run += part.chunks_run;
    for (size_t i = 0; i < part.targets.size(); ++i) {
      ASSERT_EQ(merged.count(part.targets[i]), 0u)
          << "target " << part.targets[i] << " owned by two shards";
      merged[part.targets[i]] = part.influence[i];
    }
  }
  EXPECT_EQ(chunks_run, static_cast<int>(partition.chunks.size()));
  ASSERT_EQ(merged.size(), full.targets.size());
  for (size_t i = 0; i < full.targets.size(); ++i) {
    ASSERT_EQ(merged.at(full.targets[i]), full.influence[i]);
  }
}

TEST(FrontierSweepDeathTest, GuardsMisuse) {
  const SweepFixture fix;
  InfluenceCalculator calc = fix.MakeCalc(0);
  const FrontierPartition partition;
  EXPECT_DEATH(RunFrontierSweep(nullptr, partition, FrontierSweepOptions{}),
               "CHECK failed");
  EXPECT_DEATH(RunFrontierSweep(&calc, partition,
                                {.shard_index = 2, .shard_count = 2}),
               "CHECK failed");
  EXPECT_DEATH(
      PartitionByTwoHopSupport(fix.ctx.graph, {1, 2}, /*support_budget=*/0),
      "CHECK failed");
}

}  // namespace
}  // namespace ppfr::influence
