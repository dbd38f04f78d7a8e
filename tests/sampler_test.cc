// Tests for the fanout-capped k-hop block sampler (nn/sampler) and the
// sampled mini-batch training path it feeds (nn::TrainSampled). Pins the
// properties the scale axis stands on: blocks are pure functions of
// (seed, epoch, batch, targets) — identical across runs and threads; the
// fanout cap binds; at fanout >= max degree the block is EXACTLY the dense
// 2-hop neighbourhood; and sampled training at full fanout matches
// full-batch training within float-summation tolerance.

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/scale_gen.h"
#include "graph/csr_builder.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/sampler.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr {
namespace {

graph::CsrAdjacency TestAdjacency(uint64_t seed = 5, int64_t nodes = 600) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_blocks = 3;
  cfg.feature_dim = 24;
  cfg.average_degree = 6.0;
  return data::ScaleDataset(cfg, seed).adjacency();
}

bool BlocksEqual(const nn::SampledBlock& a, const nn::SampledBlock& b) {
  if (a.frontier != b.frontier || a.hop_sizes != b.hop_sizes ||
      a.hops.size() != b.hops.size()) {
    return false;
  }
  for (size_t h = 0; h < a.hops.size(); ++h) {
    const la::CsrMatrix& ma = a.hops[h].agg->mat;
    const la::CsrMatrix& mb = b.hops[h].agg->mat;
    if (ma.rows() != mb.rows() || ma.cols() != mb.cols() ||
        ma.row_ptr() != mb.row_ptr() || ma.col_idx() != mb.col_idx() ||
        ma.values() != mb.values()) {
      return false;
    }
  }
  return true;
}

TEST(NeighborSamplerTest, BlocksAreDeterministicAcrossInstancesAndThreads) {
  const graph::CsrAdjacency adj = TestAdjacency();
  const nn::SamplerConfig cfg{.fanout = 3, .num_hops = 2, .seed = 17};
  const std::vector<int> targets = {5, 99, 311, 42};

  const nn::NeighborSampler sampler(&adj, cfg);
  const nn::SampledBlock want = sampler.SampleBlock(targets, /*epoch=*/2,
                                                    /*batch=*/4);

  // A fresh sampler instance reproduces the block bit for bit.
  const nn::NeighborSampler other(&adj, cfg);
  EXPECT_TRUE(BlocksEqual(want, other.SampleBlock(targets, 2, 4)));

  // Concurrent sampling from many threads: each (epoch, batch) stream is
  // independent, so parallel calls must reproduce the serial blocks exactly.
  std::vector<nn::SampledBlock> serial;
  for (int b = 0; b < 8; ++b) {
    serial.push_back(sampler.SampleBlock(targets, /*epoch=*/b / 4,
                                         /*batch=*/b % 4));
  }
  std::vector<nn::SampledBlock> parallel(8);
  std::vector<std::thread> workers;
  for (int b = 0; b < 8; ++b) {
    workers.emplace_back([&, b] {
      parallel[static_cast<size_t>(b)] =
          sampler.SampleBlock(targets, b / 4, b % 4);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int b = 0; b < 8; ++b) {
    EXPECT_TRUE(BlocksEqual(serial[static_cast<size_t>(b)],
                            parallel[static_cast<size_t>(b)]))
        << "epoch " << b / 4 << " batch " << b % 4;
  }

  // Different (epoch, batch) coordinates draw different samples.
  EXPECT_FALSE(BlocksEqual(want, sampler.SampleBlock(targets, 3, 4)));
}

TEST(NeighborSamplerTest, FanoutCapBindsAndWeightsAreRowStochastic) {
  const graph::CsrAdjacency adj = TestAdjacency();
  const int fanout = 3;
  const nn::NeighborSampler sampler(&adj, {.fanout = fanout, .num_hops = 2,
                                           .seed = 9});
  const std::vector<int> targets = {1, 50, 200, 301, 599};
  const nn::SampledBlock block = sampler.SampleBlock(targets, 0, 0);

  ASSERT_EQ(block.hops.size(), 2u);
  ASSERT_EQ(block.hop_sizes.size(), 3u);
  EXPECT_EQ(block.num_targets(), static_cast<int>(targets.size()));
  // Prefix property: targets are the leading frontier entries; frontiers nest.
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(block.frontier[i], targets[i]);
  }
  EXPECT_GE(block.hop_sizes[0], block.hop_sizes[1]);
  EXPECT_GE(block.hop_sizes[1], block.hop_sizes[2]);

  for (size_t h = 0; h < block.hops.size(); ++h) {
    const la::CsrMatrix& agg = block.hops[h].agg->mat;
    ASSERT_EQ(agg.rows(), block.hop_sizes[h + 1]);
    ASSERT_EQ(agg.cols(), block.hop_sizes[h]);
    for (int r = 0; r < agg.rows(); ++r) {
      const int64_t begin = agg.row_ptr()[static_cast<size_t>(r)];
      const int64_t end = agg.row_ptr()[static_cast<size_t>(r) + 1];
      const int64_t nnz = end - begin;
      const int out_node = block.frontier[static_cast<size_t>(r)];
      const int deg = adj.Degree(out_node);
      ASSERT_LE(nnz, std::min<int64_t>(fanout, deg));
      if (deg <= fanout) {
        ASSERT_EQ(nnz, deg);  // under the cap: keep all
      }
      double row_sum = 0.0;
      for (int64_t k = begin; k < end; ++k) {
        const double w = agg.values()[static_cast<size_t>(k)];
        ASSERT_DOUBLE_EQ(w, 1.0 / static_cast<double>(nnz));
        row_sum += w;
      }
      if (nnz > 0) {
        ASSERT_NEAR(row_sum, 1.0, 1e-12);
      }
    }
  }
}

TEST(NeighborSamplerTest, FullFanoutBlockIsTheExactTwoHopNeighbourhood) {
  const graph::CsrAdjacency adj = TestAdjacency();
  const nn::NeighborSampler sampler(&adj, {.fanout = nn::kAllNeighbors,
                                           .num_hops = 2, .seed = 1});
  const std::vector<int> targets = {7, 123, 456};
  const nn::SampledBlock block = sampler.SampleBlock(targets, 0, 0);

  // Dense reference: F_1 = targets ∪ N(targets), F_0 = F_1 ∪ N(F_1).
  std::set<int> one_hop(targets.begin(), targets.end());
  for (int t : targets) {
    for (int u : adj.Neighbors(t)) one_hop.insert(u);
  }
  std::set<int> two_hop = one_hop;
  for (int v : one_hop) {
    for (int u : adj.Neighbors(v)) two_hop.insert(u);
  }

  ASSERT_EQ(block.hop_sizes[1], static_cast<int>(one_hop.size()));
  ASSERT_EQ(block.hop_sizes[0], static_cast<int>(two_hop.size()));
  const std::set<int> f1(block.frontier.begin(),
                         block.frontier.begin() + block.hop_sizes[1]);
  const std::set<int> f0(block.frontier.begin(),
                         block.frontier.begin() + block.hop_sizes[0]);
  EXPECT_EQ(f1, one_hop);
  EXPECT_EQ(f0, two_hop);

  // Each hop row must hold ALL neighbours of its output node, weight 1/deg.
  for (size_t h = 0; h < 2; ++h) {
    const la::CsrMatrix& agg = block.hops[h].agg->mat;
    for (int r = 0; r < agg.rows(); ++r) {
      const int out_node = block.frontier[static_cast<size_t>(r)];
      const auto want = adj.Neighbors(out_node);
      const int64_t begin = agg.row_ptr()[static_cast<size_t>(r)];
      const int64_t end = agg.row_ptr()[static_cast<size_t>(r) + 1];
      ASSERT_EQ(end - begin, static_cast<int64_t>(want.size()));
      // CSR columns sort by LOCAL frontier index (frontier order interleaves
      // rows), so map them back to global ids and compare as sorted sets.
      std::vector<int> got;
      for (int64_t k = begin; k < end; ++k) {
        const int local = agg.col_idx()[static_cast<size_t>(k)];
        got.push_back(block.frontier[static_cast<size_t>(local)]);
        ASSERT_DOUBLE_EQ(agg.values()[static_cast<size_t>(k)],
                         1.0 / static_cast<double>(want.size()));
      }
      std::sort(got.begin(), got.end());
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "row " << r << " neighbour set mismatch";
    }
  }
}

TEST(NeighborSamplerTest, EpochBatchesPartitionAndReshuffle) {
  const std::vector<int> nodes = {3, 1, 4, 1 + 10, 5, 9, 2, 6};
  const auto batches = nn::NeighborSampler::EpochBatches(nodes, 3, /*seed=*/5,
                                                         /*epoch=*/0);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[1].size(), 3u);
  EXPECT_EQ(batches[2].size(), 2u);

  std::vector<int> flattened;
  for (const auto& batch : batches) {
    flattened.insert(flattened.end(), batch.begin(), batch.end());
  }
  std::vector<int> sorted_nodes = nodes;
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  std::sort(flattened.begin(), flattened.end());
  EXPECT_EQ(flattened, sorted_nodes);  // exact cover

  EXPECT_EQ(batches, nn::NeighborSampler::EpochBatches(nodes, 3, 5, 0));
  EXPECT_NE(batches, nn::NeighborSampler::EpochBatches(nodes, 3, 5, 1));

  // batch_nodes <= 0: one batch, original order.
  const auto whole = nn::NeighborSampler::EpochBatches(nodes, 0, 5, 0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], nodes);
}

// Sampled-vs-full-batch parity: at fanout >= max degree and batch_nodes = 0,
// TrainSampled computes the same loss sequence as full-batch Train() on the
// materialised context — both aggregate ALL neighbours with mean weights and
// share the WeightedNll denominator. The two paths sum the same float terms
// in different orders (local CSR layout vs full-graph CSR), so the parity is
// tolerance-based, not bitwise; the documented tolerance is 1e-6 on every
// epoch loss.
TEST(SampledTrainingTest, FullFanoutMatchesFullBatchWithinTolerance) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_blocks = 3;
  cfg.feature_dim = 24;
  cfg.average_degree = 6.0;
  const data::ScaleDataset dataset(cfg, 13);

  const std::vector<int> train_nodes = dataset.StridedNodes(60, /*salt=*/1);
  const std::vector<int> train_labels = dataset.LabelsFor(train_nodes);
  const std::vector<int> full_labels = dataset.MaterializeLabels();

  nn::TrainConfig tc;
  tc.epochs = 12;
  tc.sage_fanout = nn::kAllNeighbors;
  tc.batch_nodes = 0;
  tc.seed = 3;

  auto full_model = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                                  dataset.num_classes(), /*seed=*/21);
  nn::GraphContext ctx = nn::GraphContext::Build(
      dataset.adjacency().ToGraph(), dataset.MaterializeFeatures());
  const nn::TrainStats full =
      nn::Train(full_model.get(), ctx, train_nodes, full_labels, tc);

  auto sampled_model = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                                     dataset.num_classes(), /*seed=*/21);
  nn::SampledTrainSpec spec;
  spec.adj = &dataset.adjacency();
  spec.gather_features = [&dataset](const std::vector<int>& nodes) {
    return dataset.GatherFeatures(nodes);
  };
  const nn::TrainStats sampled = nn::TrainSampled(sampled_model.get(), spec,
                                                  train_nodes, train_labels, tc);

  ASSERT_EQ(full.epoch_losses.size(), sampled.epoch_losses.size());
  for (size_t e = 0; e < full.epoch_losses.size(); ++e) {
    EXPECT_NEAR(sampled.epoch_losses[e], full.epoch_losses[e], 1e-6)
        << "epoch " << e;
  }

  // Inference parity through the exact sampled blocks.
  const std::vector<int> probe = dataset.StridedNodes(40, /*salt=*/2);
  const la::Matrix sampled_logits =
      nn::SampledLogits(sampled_model.get(), spec, probe);
  const la::Matrix full_logits = full_model->Logits(ctx);
  for (size_t i = 0; i < probe.size(); ++i) {
    for (int c = 0; c < sampled_logits.cols(); ++c) {
      EXPECT_NEAR(sampled_logits(static_cast<int>(i), c),
                  full_logits(probe[i], c), 1e-5);
    }
  }
}

TEST(SampledTrainingTest, MiniBatchRunsAreDeterministicAndLearn) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = 900;
  cfg.num_blocks = 3;
  cfg.feature_dim = 24;
  cfg.average_degree = 6.0;
  const data::ScaleDataset dataset(cfg, 41);

  const std::vector<int> train_nodes = dataset.StridedNodes(180, /*salt=*/1);
  const std::vector<int> train_labels = dataset.LabelsFor(train_nodes);
  nn::SampledTrainSpec spec;
  spec.adj = &dataset.adjacency();
  spec.gather_features = [&dataset](const std::vector<int>& nodes) {
    return dataset.GatherFeatures(nodes);
  };

  nn::TrainConfig tc;
  tc.epochs = 20;
  tc.sage_fanout = 4;
  tc.batch_nodes = 64;
  tc.seed = 7;

  auto model_a = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                               dataset.num_classes(), /*seed=*/33);
  auto model_b = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                               dataset.num_classes(), /*seed=*/33);
  const nn::TrainStats a =
      nn::TrainSampled(model_a.get(), spec, train_nodes, train_labels, tc);
  const nn::TrainStats b =
      nn::TrainSampled(model_b.get(), spec, train_nodes, train_labels, tc);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);  // bitwise: same sampling stream

  EXPECT_LT(a.final_loss, a.epoch_losses.front());

  // The trained model beats chance on held-out nodes through exact blocks.
  const std::vector<int> val_nodes = dataset.StridedNodes(120, /*salt=*/2);
  const la::Matrix logits = nn::SampledLogits(model_a.get(), spec, val_nodes);
  const std::vector<int> pred = la::ArgmaxRows(logits);
  const std::vector<int> val_labels = dataset.LabelsFor(val_nodes);
  int correct = 0;
  for (size_t i = 0; i < val_nodes.size(); ++i) {
    if (pred[i] == val_labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(val_nodes.size()),
            0.6);
}

TEST(SampledTrainingDeathTest, GuardsMisuse) {
  const graph::CsrAdjacency adj = TestAdjacency();
  // Zero fanout is a configuration bug, not a request for isolated nodes.
  EXPECT_DEATH(nn::NeighborSampler(&adj, {.fanout = 0, .num_hops = 2,
                                          .seed = 1}),
               "CHECK failed");
  // Duplicate targets would alias logits rows.
  const nn::NeighborSampler sampler(&adj, {.fanout = 2, .num_hops = 2,
                                           .seed = 1});
  EXPECT_DEATH(sampler.SampleBlock({4, 4}, 0, 0), "CHECK failed");
  // Non-SAGE models have no sampled forward path: a sampled block carries
  // only the mean aggregator.
  const nn::SampledBlock block = sampler.SampleBlock({4, 9}, 0, 0);
  for (nn::ModelKind kind : {nn::ModelKind::kGcn, nn::ModelKind::kGat}) {
    auto model = nn::MakeModel(kind, 24, 3, 1);
    EXPECT_DEATH(model->PrepareBlock(block, la::CsrMatrix(block.num_inputs(), 24)),
                 "no sampled mini-batch forward path");
  }
  // A block forward needs two hops.
  auto sage = nn::MakeModel(nn::ModelKind::kGraphSage, 24, 3, 1);
  EXPECT_DEATH(sage->PrepareBlock(nn::SampledBlock{}, la::CsrMatrix(1, 24)),
               "needs a 2-hop block");
}

}  // namespace
}  // namespace ppfr
