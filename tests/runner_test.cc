// Tests for the scenario-runner subsystem: content-hash cache keys that are
// stable across processes, stage-cached results that are bitwise identical
// to cold runs, the parallel cell scheduler's parity with the serial order,
// the "vanilla trains exactly once" trainer-invocation contract, and the
// uniform JSON artifact schema.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/serialize.h"
#include "core/snapshot.h"
#include "influence/param_vector.h"
#include "nn/trainer.h"
#include "runner/run_cache.h"
#include "runner/runner.h"
#include "runner/scenario.h"
#include "test_util.h"

namespace ppfr::runner {
namespace {

constexpr uint64_t kEnvSeed = 7;

// A MethodConfig with every key-relevant field pinned explicitly, so the
// key goldens depend only on the hash schema — not on the paper defaults.
core::MethodConfig PinnedConfig() {
  core::MethodConfig cfg;
  cfg.train.epochs = 50;
  cfg.train.lr = 0.05;
  cfg.train.weight_decay = 1e-4;
  cfg.train.sage_fanout = 4;
  cfg.train.seed = 3;
  cfg.lambda = 1e-3;
  cfg.dp_epsilon = 2.0;
  cfg.use_lap_graph = false;
  cfg.pp_gamma = 0.25;
  cfg.finetune_scale = 0.5;
  cfg.finetune_epochs = 0;
  cfg.finetune_lr = 2e-3;
  cfg.fr.alpha = 0.8;
  cfg.fr.beta = 0.2;
  cfg.fr.zero_sum = true;
  cfg.fr.influence.cg.damping = 0.02;
  cfg.fr.influence.cg.max_iterations = 20;
  cfg.fr.influence.cg.tolerance = 1e-6;
  cfg.fr.influence.cg.hvp_step = 1e-4;
  cfg.fr.influence.cg_block = 8;  // pinned: 0 would resolve from PPFR_CG_BLOCK
  cfg.seed = 11;
  return cfg;
}

core::ExperimentEnv IdentityOnlyEnv(data::DatasetId id, uint64_t env_seed) {
  core::ExperimentEnv env;
  env.id = id;
  env.env_seed = env_seed;
  return env;
}

// Small sweeps reuse one environment build per dataset across all tests.
RunCache& SharedCache() {
  static RunCache* cache = new RunCache();
  return *cache;
}

Scenario Cell(data::DatasetId dataset, nn::ModelKind model, core::MethodKind method,
              int epochs) {
  Scenario cell{dataset, model, method, {}, ""};
  cell.overrides.epochs = epochs;
  return cell;
}

void ExpectEvalBitwiseEq(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.bias, b.bias);
  EXPECT_EQ(a.risk_auc, b.risk_auc);
  EXPECT_EQ(a.delta_d, b.delta_d);
}

TEST(KeyHasherTest, GoldenValuesStableAcrossProcesses) {
  // Content hashes must not involve addresses or iteration order; these
  // literals pin the schema so any process, on any run, produces the same
  // keys for the same logical inputs. Changing them is a cache-format break
  // (update the literals deliberately if the key schema evolves).
  const core::ExperimentEnv env = IdentityOnlyEnv(data::DatasetId::kCoraLike, 123);
  const core::MethodConfig cfg = PinnedConfig();

  EXPECT_EQ(RunCache::EnvKey(data::DatasetId::kCoraLike, 123),
            0xcda4452e6213209eULL);
  // Every key with the training prefix changed when it gained the sparse
  // first-layer salt: models trained with the dense X·W miss. DP keys have
  // no training prefix and keep hitting.
  EXPECT_EQ(RunCache::VanillaKey(nn::ModelKind::kGcn, env, cfg),
            0x9dbc2bcb9ef297e0ULL);
  EXPECT_EQ(RunCache::DpKey(env, cfg), 0xdc379259979ac35fULL);
  EXPECT_EQ(RunCache::PpKey(nn::ModelKind::kGcn, env, cfg), 0x5b9b2aca326d5bc3ULL);
  // FrKey and CellKey also carry the support-restricted influence salt of
  // the FR prefix: FR results from the full-graph gradients miss. They moved
  // again when the FR prefix stopped mixing the resolved replay width (the
  // fused probe replay it named is gone); DP, PP and vanilla keys did not.
  EXPECT_EQ(RunCache::FrKey(nn::ModelKind::kGcn, env, cfg), 0xb2aff25a97f315feULL);
  // (The cell's FR cg_block resolves to 8 under the default environment.)
  const Scenario cell = Cell(data::DatasetId::kCoraLike, nn::ModelKind::kGcn,
                             core::MethodKind::kPpFr, 50);
  EXPECT_EQ(RunCache::CellKey(cell, 123), 0xbacdb17bbf81fc43ULL);
  // GAT's training prefix also carries the fused-attention salt: GAT stages
  // from the per-head score GEMMs miss; the GCN keys above did not move. The
  // GAT cell key moved with the FR prefix, like the GCN one.
  EXPECT_EQ(RunCache::VanillaKey(nn::ModelKind::kGat, env, cfg), 0x2a29976b2839d1d0ULL);
  const Scenario gat_cell = Cell(data::DatasetId::kCoraLike, nn::ModelKind::kGat,
                                 core::MethodKind::kPpFr, 50);
  EXPECT_EQ(RunCache::CellKey(gat_cell, 123), 0x51396ecaca49bfb7ULL);

  // The namespace tags must actually namespace: stages whose remaining
  // fields coincide still get distinct keys (guards the const char* → bool
  // overload trap in KeyHasher::Mix).
  EXPECT_NE(KeyHasher().Mix("env").hash(), KeyHasher().Mix("cell").hash());
  EXPECT_NE(KeyHasher().Mix("env").hash(), KeyHasher().Mix(true).hash());
}

TEST(KeyHasherTest, KeysDistinguishStageInputs) {
  const core::ExperimentEnv env = IdentityOnlyEnv(data::DatasetId::kCoraLike, 123);
  const core::MethodConfig cfg = PinnedConfig();

  // Rebuilding identical inputs reproduces the key.
  EXPECT_EQ(RunCache::VanillaKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::VanillaKey(nn::ModelKind::kGcn,
                                 IdentityOnlyEnv(data::DatasetId::kCoraLike, 123),
                                 PinnedConfig()));

  // Every identity and stage-prefix field separates keys.
  EXPECT_NE(RunCache::EnvKey(data::DatasetId::kCoraLike, 123),
            RunCache::EnvKey(data::DatasetId::kCoraLike, 124));
  EXPECT_NE(RunCache::EnvKey(data::DatasetId::kCoraLike, 123),
            RunCache::EnvKey(data::DatasetId::kCiteseerLike, 123));
  EXPECT_NE(RunCache::VanillaKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::VanillaKey(nn::ModelKind::kGat, env, cfg));
  core::MethodConfig other = cfg;
  other.seed = 12;
  EXPECT_NE(RunCache::VanillaKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::VanillaKey(nn::ModelKind::kGcn, env, other));
  other = cfg;
  other.train.epochs = 51;
  EXPECT_NE(RunCache::VanillaKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::VanillaKey(nn::ModelKind::kGcn, env, other));
  other = cfg;
  other.dp_epsilon = 3.0;
  EXPECT_NE(RunCache::DpKey(env, cfg), RunCache::DpKey(env, other));
  other = cfg;
  other.use_lap_graph = true;
  EXPECT_NE(RunCache::DpKey(env, cfg), RunCache::DpKey(env, other));
  other = cfg;
  other.pp_gamma = 0.5;
  EXPECT_NE(RunCache::PpKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::PpKey(nn::ModelKind::kGcn, env, other));
  other = cfg;
  other.fr.zero_sum = false;
  EXPECT_NE(RunCache::FrKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::FrKey(nn::ModelKind::kGcn, env, other));
  // The block width changes FR results (different Krylov spaces), so it must
  // separate FR keys — by its RESOLVED value, so cg_block = 0 under the
  // default environment shares the explicit cg_block = 8 entry.
  other = cfg;
  other.fr.influence.cg_block = 16;
  EXPECT_NE(RunCache::FrKey(nn::ModelKind::kGcn, env, cfg),
            RunCache::FrKey(nn::ModelKind::kGcn, env, other));

  // The DP perturbation doesn't depend on the model or its training
  // schedule (the cache shares one DP context across GCN/GAT/GraphSage
  // cells), so train-prefix fields must not reach DpKey.
  other = cfg;
  other.train.epochs = 99;
  other.train.lr = 0.5;
  EXPECT_EQ(RunCache::DpKey(env, cfg), RunCache::DpKey(env, other));

  // Cell keys hash the resolved config, never the display label.
  Scenario a = Cell(data::DatasetId::kCoraLike, nn::ModelKind::kGcn,
                    core::MethodKind::kPpFr, 50);
  Scenario b = a;
  b.label = "renamed";
  EXPECT_EQ(RunCache::CellKey(a, 123), RunCache::CellKey(b, 123));
  b = a;
  b.overrides.finetune_epochs = 9;
  EXPECT_NE(RunCache::CellKey(a, 123), RunCache::CellKey(b, 123));
  EXPECT_NE(RunCache::CellKey(a, 123), RunCache::CellKey(a, 124));
}

TEST(KeyHasherTest, CanonicalizesNegativeZeroAndNaN) {
  // -0.0 == 0.0 and NaNs are config-equivalent, so equal configs must hash
  // equally — with the disk-persisted cache a spurious key split would be a
  // user-visible recompute.
  EXPECT_EQ(KeyHasher().Mix(0.0).hash(), KeyHasher().Mix(-0.0).hash());
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double payload_nan =
      std::bit_cast<double>(std::bit_cast<uint64_t>(qnan) | 0x5ULL);
  EXPECT_EQ(KeyHasher().Mix(qnan).hash(), KeyHasher().Mix(payload_nan).hash());
  EXPECT_EQ(KeyHasher().Mix(-qnan).hash(), KeyHasher().Mix(qnan).hash());
  // ...but canonicalization must not collapse distinct reals.
  EXPECT_NE(KeyHasher().Mix(0.0).hash(), KeyHasher().Mix(1e-300).hash());

  // End-to-end: a cell overridden with -0.0 shares the +0.0 cell's key.
  Scenario plus = Cell(data::DatasetId::kCoraLike, nn::ModelKind::kGcn,
                       core::MethodKind::kPpFr, 50);
  plus.overrides.pp_gamma = 0.0;
  Scenario minus = plus;
  minus.overrides.pp_gamma = -0.0;
  EXPECT_EQ(RunCache::CellKey(plus, 123), RunCache::CellKey(minus, 123));
}

TEST(RunCacheTest, CachedStagesBitwiseIdenticalToColdRuns) {
  const auto env = SharedCache().Env(data::DatasetId::kEnzymesLike, kEnvSeed);
  core::MethodConfig cfg =
      core::DefaultMethodConfig(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn);
  cfg.train.epochs = 8;

  for (core::MethodKind method : {core::MethodKind::kDpFr, core::MethodKind::kPpFr}) {
    SCOPED_TRACE(core::MethodName(method));
    // Cold: the historical path — vanilla retrained inside the method run.
    const core::MethodRun cold =
        core::RunMethod(method, nn::ModelKind::kGcn, *env, cfg, nullptr);
    // Warm: stages resumed from the shared cache (vanilla model, FR solve,
    // DP/PP context all come out of the memo after the first method).
    RunCache cache;
    const core::MethodRun warm =
        core::RunMethod(method, nn::ModelKind::kGcn, *env, cfg, &cache);
    ExpectEvalBitwiseEq(cold.eval, warm.eval);
    ASSERT_EQ(cold.fr_weights.size(), warm.fr_weights.size());
    for (size_t i = 0; i < cold.fr_weights.size(); ++i) {
      ASSERT_EQ(cold.fr_weights[i], warm.fr_weights[i]) << "weight " << i;
    }
    const std::vector<double> cold_params =
        influence::FlattenValues(cold.model->Params());
    const std::vector<double> warm_params =
        influence::FlattenValues(warm.model->Params());
    ASSERT_EQ(cold_params.size(), warm_params.size());
    for (size_t i = 0; i < cold_params.size(); ++i) {
      ASSERT_EQ(cold_params[i], warm_params[i]) << "param " << i;
    }

    // A second run through the same cache is a pure cell hit with identical
    // results.
    const core::MethodRun again =
        core::RunMethod(method, nn::ModelKind::kGcn, *env, cfg, &cache);
    ExpectEvalBitwiseEq(warm.eval, again.eval);
  }
}

TEST(RunnerTest, Table4EquivalentSweepMatchesPreRefactorAndTrainsVanillaOnce) {
  // A bench_table4-equivalent sweep (every method × two models on one
  // dataset) through the runner must produce numerically identical tables to
  // the pre-refactor per-method pipelines while training vanilla exactly
  // once per (dataset, model, seed).
  const int epochs = 8;
  const std::vector<nn::ModelKind> models{nn::ModelKind::kGcn,
                                          nn::ModelKind::kGraphSage};
  Sweep sweep;
  sweep.name = "table4_mini";
  for (nn::ModelKind model : models) {
    for (core::MethodKind method :
         {core::MethodKind::kVanilla, core::MethodKind::kReg,
          core::MethodKind::kDpReg, core::MethodKind::kDpFr,
          core::MethodKind::kPpFr}) {
      sweep.cells.push_back(
          Cell(data::DatasetId::kEnzymesLike, model, method, epochs));
    }
  }

  RunnerOptions opts;
  opts.threads = 1;
  opts.env_seed = kEnvSeed;
  opts.verbose = false;
  RunCache cache;
  const int64_t trains_before = nn::TrainInvocationCount();
  const SweepResult result = RunSweep(sweep, &cache, opts);
  const int64_t trains = nn::TrainInvocationCount() - trains_before;

  // Per model: 1 vanilla + 1 Reg + 1 DPReg + 2 fine-tunes = 5 Train calls.
  // The pre-refactor path took 7: DPFR and PPFR each retrained their own
  // vanilla (TrainFresh + Finetune = 2 Train calls apiece on top of the
  // baseline's 3).
  EXPECT_EQ(trains, static_cast<int64_t>(5 * models.size()));
  EXPECT_EQ(result.trainer_invocations, trains);
  EXPECT_EQ(result.cache_stats.vanilla.misses,
            static_cast<int64_t>(models.size()));

  // Numerically identical to the pre-refactor per-method pipelines.
  const auto env = SharedCache().Env(data::DatasetId::kEnzymesLike, kEnvSeed);
  for (nn::ModelKind model : models) {
    core::MethodConfig cfg =
        core::DefaultMethodConfig(data::DatasetId::kEnzymesLike, model);
    cfg.train.epochs = epochs;
    const core::MethodRun vanilla =
        core::RunMethod(core::MethodKind::kVanilla, model, *env, cfg, nullptr);
    for (const CellResult& cell : result.cells) {
      if (cell.scenario.model != model) continue;
      SCOPED_TRACE(std::string(nn::ModelKindName(model)) + "/" +
                   core::MethodName(cell.scenario.method));
      const core::MethodRun fresh =
          core::RunMethod(cell.scenario.method, model, *env, cfg, nullptr);
      ExpectEvalBitwiseEq(fresh.eval, cell.run->eval);
      if (cell.scenario.method != core::MethodKind::kVanilla) {
        const core::DeltaMetrics want = core::ComputeDeltas(fresh.eval, vanilla.eval);
        EXPECT_EQ(want.d_acc, cell.delta.d_acc);
        EXPECT_EQ(want.d_bias, cell.delta.d_bias);
        EXPECT_EQ(want.d_risk, cell.delta.d_risk);
        EXPECT_EQ(want.combined, cell.delta.combined);
      }
    }
  }
}

TEST(SchedulerTest, ParallelCellsMatchSerialOrderBitwiseOn2x2x3Grid) {
  const int epochs = 6;
  Sweep sweep;
  sweep.name = "grid_2x2x3";
  for (data::DatasetId dataset :
       {data::DatasetId::kEnzymesLike, data::DatasetId::kCreditLike}) {
    for (nn::ModelKind model : {nn::ModelKind::kGcn, nn::ModelKind::kGraphSage}) {
      for (core::MethodKind method : {core::MethodKind::kVanilla,
                                      core::MethodKind::kReg,
                                      core::MethodKind::kPpFr}) {
        sweep.cells.push_back(Cell(dataset, model, method, epochs));
      }
    }
  }

  RunnerOptions serial_opts;
  serial_opts.threads = 1;
  serial_opts.env_seed = kEnvSeed;
  serial_opts.verbose = false;
  RunCache serial_cache;
  const SweepResult serial = RunSweep(sweep, &serial_cache, serial_opts);

  RunnerOptions parallel_opts = serial_opts;
  parallel_opts.threads = 3;
  RunCache parallel_cache;
  const SweepResult parallel = RunSweep(sweep, &parallel_cache, parallel_opts);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(parallel.threads, 3);
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " " +
                 serial.cells[i].scenario.DisplayLabel());
    ExpectEvalBitwiseEq(serial.cells[i].run->eval, parallel.cells[i].run->eval);
    EXPECT_EQ(serial.cells[i].delta.d_acc, parallel.cells[i].delta.d_acc);
    EXPECT_EQ(serial.cells[i].delta.d_bias, parallel.cells[i].delta.d_bias);
    EXPECT_EQ(serial.cells[i].delta.d_risk, parallel.cells[i].delta.d_risk);
    EXPECT_EQ(serial.cells[i].delta.combined, parallel.cells[i].delta.combined);
  }
  // Both schedulers train each (dataset, model) vanilla exactly once.
  EXPECT_EQ(serial.cache_stats.vanilla.misses, 4);
  EXPECT_EQ(parallel.cache_stats.vanilla.misses, 4);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A sweep exercising every persisted stage: vanilla train + eval, DP and PP
// contexts, the FR solve, and whole cells.
Sweep MiniSuiteSweep(int epochs) {
  Sweep sweep;
  sweep.name = "disk_mini";
  for (core::MethodKind method :
       {core::MethodKind::kVanilla, core::MethodKind::kDpFr,
        core::MethodKind::kPpFr}) {
    sweep.cells.push_back(
        Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn, method, epochs));
  }
  return sweep;
}

void ExpectSweepBitwiseEq(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " " +
                 a.cells[i].scenario.DisplayLabel());
    ExpectEvalBitwiseEq(a.cells[i].run->eval, b.cells[i].run->eval);
    ExpectEvalBitwiseEq(a.cells[i].vanilla_eval, b.cells[i].vanilla_eval);
    ASSERT_EQ(a.cells[i].run->fr_weights.size(), b.cells[i].run->fr_weights.size());
    for (size_t j = 0; j < a.cells[i].run->fr_weights.size(); ++j) {
      ASSERT_EQ(a.cells[i].run->fr_weights[j], b.cells[i].run->fr_weights[j]);
    }
    const std::vector<double> pa = influence::FlattenValues(a.cells[i].run->model->Params());
    const std::vector<double> pb = influence::FlattenValues(b.cells[i].run->model->Params());
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t j = 0; j < pa.size(); ++j) {
      ASSERT_EQ(pa[j], pb[j]) << "param " << j;
    }
  }
}

TEST(DiskCacheTest, FreshProcessReloadsEveryStageWithoutTraining) {
  const std::string dir = ::testing::TempDir() + "/disk_cache_roundtrip";
  std::filesystem::remove_all(dir);
  const Sweep sweep = MiniSuiteSweep(6);
  RunnerOptions opts;
  opts.threads = 1;
  opts.env_seed = kEnvSeed;
  opts.verbose = false;

  RunCache cold(dir);
  const SweepResult first = RunSweep(sweep, &cold, opts);
  EXPECT_GT(first.trainer_invocations, 0);
  EXPECT_EQ(first.cache_stats.cell.disk_hits, 0);

  // A fresh RunCache over the same dir stands in for a second process — the
  // keys are process-stable content hashes, so nothing in-memory carries
  // over. Every stage must come off disk: zero nn::Train calls, results
  // bitwise identical, stable artifacts byte-for-byte equal.
  RunCache warm(dir);
  const SweepResult second = RunSweep(sweep, &warm, opts);
  EXPECT_EQ(second.trainer_invocations, 0);
  EXPECT_EQ(second.cache_stats.cell.disk_hits,
            static_cast<int64_t>(sweep.cells.size()));
  ExpectSweepBitwiseEq(first, second);

  const std::string dir1 = ::testing::TempDir() + "/disk_art1";
  const std::string dir2 = ::testing::TempDir() + "/disk_art2";
  std::filesystem::create_directories(dir1);
  std::filesystem::create_directories(dir2);
  ArtifactOptions stable;
  stable.stable = true;
  const std::string path1 = WriteArtifact(first, dir1, stable);
  const std::string path2 = WriteArtifact(second, dir2, stable);
  EXPECT_EQ(ReadFileOrDie(path1), ReadFileOrDie(path2))
      << "stable artifacts must be bitwise identical across processes";

  // The vanilla stage itself also reloads train-free for a third consumer.
  RunCache third(dir);
  const auto env = SharedCache().Env(data::DatasetId::kEnzymesLike, kEnvSeed);
  const int64_t trains_before = nn::TrainInvocationCount();
  const core::EvalResult eval = third.VanillaEval(
      nn::ModelKind::kGcn, *env, sweep.cells[0].ResolvedConfig());
  EXPECT_EQ(nn::TrainInvocationCount(), trains_before);
  ExpectEvalBitwiseEq(eval, first.cells[0].run->eval);
}

TEST(DiskCacheTest, CorruptAndForeignEntriesRecoverBitwise) {
  const std::string dir = ::testing::TempDir() + "/disk_cache_corrupt";
  std::filesystem::remove_all(dir);
  const Sweep sweep = MiniSuiteSweep(6);
  RunnerOptions opts;
  opts.threads = 1;
  opts.env_seed = kEnvSeed;
  opts.verbose = false;

  RunCache cold(dir);
  const SweepResult first = RunSweep(sweep, &cold, opts);

  // Vandalise the store: truncate every cell entry mid-payload, garbage the
  // FR entry, and leave the rest intact.
  int mangled = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("cell-")) {
      const std::string bytes = ReadFileOrDie(entry.path().string());
      std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
      ++mangled;
    } else if (name.starts_with("fr-")) {
      std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
      out << "not a cache entry";
      ++mangled;
    }
  }
  ASSERT_GT(mangled, 0);

  // Recovery: corrupt entries are deleted and recomputed (never a crash),
  // and the recompute reproduces the original numbers bitwise. The intact
  // vanilla entry still loads, so the DP/PP cells only pay their fine-tune.
  RunCache recover(dir);
  const SweepResult recovered = RunSweep(sweep, &recover, opts);
  ExpectSweepBitwiseEq(first, recovered);
  EXPECT_EQ(recovered.cache_stats.vanilla.disk_hits, 1);

  // The recompute rewrote clean entries: one more fresh cache is train-free.
  RunCache warm(dir);
  const SweepResult warm_run = RunSweep(sweep, &warm, opts);
  EXPECT_EQ(warm_run.trainer_invocations, 0);
  ExpectSweepBitwiseEq(first, warm_run);
}

TEST(DiskCacheTest, MismatchedFingerprintIsAMissNotACrash) {
  const std::string dir = ::testing::TempDir() + "/disk_cache_foreign";
  std::filesystem::remove_all(dir);
  CacheStore store(dir);
  ASSERT_TRUE(store.enabled());
  store.Store("fr", 42, "payload");
  std::string payload;
  ASSERT_TRUE(store.Load("fr", 42, &payload));
  EXPECT_EQ(payload, "payload");
  // Another key never aliases.
  EXPECT_FALSE(store.Load("fr", 43, &payload));

  // Rewrite the entry as if a different build had produced it: flip a byte
  // inside the stored fingerprint region. Structurally intact ⇒ plain miss,
  // and the file survives for its producer.
  const std::string path = store.EntryPath("fr", 42);
  std::string bytes = ReadFileOrDie(path);
  // Header layout: magic u64 (0-7), format u32 (8-11), fingerprint length
  // u64 (12-19), fingerprint chars from 20 ("v1|backend=..."); flipping the
  // low bit of the '1' at offset 21 yields an intact "v0|..." fingerprint.
  bytes[21] ^= 0x1;
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(store.Load("fr", 42, &payload));
  EXPECT_TRUE(std::filesystem::exists(path));

  // A foreign-magic file (another tool's, or a future format) is not ours
  // to delete either: plain miss, file left in place.
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "alien bytes with no ppfr magic";
  }
  EXPECT_FALSE(store.Load("fr", 42, &payload));
  EXPECT_TRUE(std::filesystem::exists(path));

  // But a magic-matching truncation IS corruption: deleted on sight.
  store.Store("fr", 42, "payload");
  std::string intact = ReadFileOrDie(path);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(intact.data(), static_cast<std::streamsize>(intact.size() - 3));
  }
  EXPECT_FALSE(store.Load("fr", 42, &payload));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(MultiSeedTest, SeedExpansionMatchesIndependentRunsAndAggregates) {
  Sweep sweep;
  sweep.name = "multiseed_mini";
  sweep.cells.push_back(Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn,
                             core::MethodKind::kVanilla, 6));
  sweep.cells.push_back(Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn,
                             core::MethodKind::kReg, 6));
  sweep.seeds = {3, 4};

  RunnerOptions opts;
  opts.threads = 1;
  opts.env_seed = kEnvSeed;
  opts.verbose = false;
  RunCache cache;
  const SweepResult result = RunSweep(sweep, &cache, opts);

  // Seed-major expansion: each seed block repeats the cell order.
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.seeds, (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(result.cells[0].seed, 3u);
  EXPECT_EQ(result.cells[1].seed, 3u);
  EXPECT_EQ(result.cells[2].seed, 4u);
  EXPECT_EQ(result.cells[3].seed, 4u);
  EXPECT_EQ(result.cells[0].scenario.method, core::MethodKind::kVanilla);
  EXPECT_EQ(result.cells[2].scenario.method, core::MethodKind::kVanilla);

  // Each instance is bitwise identical to an independent cold run pinned to
  // that seed — expansion changes scheduling, not numbers.
  const auto env = SharedCache().Env(data::DatasetId::kEnzymesLike, kEnvSeed);
  for (size_t i = 0; i < result.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    core::MethodConfig cfg = result.cells[i].scenario.ResolvedConfig();
    EXPECT_EQ(cfg.seed, result.cells[i].seed);
    const core::MethodRun cold = core::RunMethod(
        result.cells[i].scenario.method, nn::ModelKind::kGcn, *env, cfg, nullptr);
    ExpectEvalBitwiseEq(cold.eval, result.cells[i].run->eval);
  }

  // Aggregates group by logical cell across seeds, in first-appearance
  // order, and report exact mean / sample-stddev over the per-seed values.
  const std::vector<CellAggregate> aggregates = AggregateCells(result);
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates[0].scenario.method, core::MethodKind::kVanilla);
  EXPECT_EQ(aggregates[1].scenario.method, core::MethodKind::kReg);
  for (const CellAggregate& agg : aggregates) {
    EXPECT_EQ(agg.seeds, (std::vector<uint64_t>{3, 4}));
    ASSERT_EQ(agg.metrics.at("accuracy").values.size(), 2u);
  }
  const MetricAggregate& acc = aggregates[1].metrics.at("accuracy");
  const double v0 = result.cells[1].run->eval.accuracy;
  const double v1 = result.cells[3].run->eval.accuracy;
  EXPECT_EQ(acc.values[0], v0);
  EXPECT_EQ(acc.values[1], v1);
  EXPECT_EQ(acc.mean, (v0 + v1) / 2.0);
  const double mean = (v0 + v1) / 2.0;
  const double want_stddev =
      std::sqrt((v0 - mean) * (v0 - mean) + (v1 - mean) * (v1 - mean));
  EXPECT_DOUBLE_EQ(acc.stddev, want_stddev);

  // A single-instance group degrades to stddev 0 without schema changes.
  Sweep single = sweep;
  single.seeds.clear();
  const SweepResult single_result = RunSweep(single, &cache, opts);
  const std::vector<CellAggregate> single_aggs = AggregateCells(single_result);
  ASSERT_EQ(single_aggs.size(), 2u);
  EXPECT_EQ(single_aggs[0].metrics.at("accuracy").values.size(), 1u);
  EXPECT_EQ(single_aggs[0].metrics.at("accuracy").stddev, 0.0);
}

TEST(MultiSeedTest, SeedsFlagParsingAndRegistryDefaults) {
  EXPECT_EQ(ParseSeedListOrDie("0,1,2"), (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_TRUE(ParseSeedListOrDie("").empty());
  EXPECT_EXIT(ParseSeedListOrDie("1,2x,3"), ::testing::ExitedWithCode(2),
              "invalid seed '2x'");
  EXPECT_EXIT(ParseSeedListOrDie("1,1"), ::testing::ExitedWithCode(2),
              "duplicate seed 1");

  {
    const char* argv[] = {"prog", "--seeds=5,6"};
    Flags flags(2, const_cast<char**>(argv));
    Sweep sweep = *RegistrySweep("smoke");
    ApplyCommonOverrides(flags, &sweep);
    EXPECT_EQ(sweep.seeds, (std::vector<uint64_t>{5, 6}));
  }
  {
    // A pinned --seed= beats any default seed list.
    const char* argv[] = {"prog", "--seed=11"};
    Flags flags(2, const_cast<char**>(argv));
    Sweep sweep = *RegistrySweep("smoke-multiseed");
    EXPECT_EQ(sweep.seeds.size(), 3u);
    ApplyCommonOverrides(flags, &sweep);
    EXPECT_TRUE(sweep.seeds.empty());
    EXPECT_EQ(*sweep.cells[0].overrides.seed, 11u);
  }
  {
    const char* argv[] = {"prog", "--seed=1", "--seeds=1,2"};
    Flags flags(3, const_cast<char**>(argv));
    Sweep sweep = *RegistrySweep("smoke");
    EXPECT_EXIT(ApplyCommonOverrides(flags, &sweep),
                ::testing::ExitedWithCode(2), "mutually exclusive");
  }
  {
    // Merging sweeps with conflicting default seed lists dies without an
    // override...
    const char* argv[] = {"prog", "--scenarios=smoke,smoke-multiseed"};
    Flags flags(2, const_cast<char**>(argv));
    EXPECT_EXIT(SweepFromFlags(flags, "smoke"), ::testing::ExitedWithCode(2),
                "default seed lists differ");
  }
  {
    // ...but an explicit --seeds= resolves the conflict, exactly as the
    // error message advises.
    const char* argv[] = {"prog", "--scenarios=smoke,smoke-multiseed",
                          "--seeds=5"};
    Flags flags(3, const_cast<char**>(argv));
    Sweep merged = SweepFromFlags(flags, "smoke");
    ApplyCommonOverrides(flags, &merged);
    EXPECT_EQ(merged.cells.size(), 10u);
    EXPECT_EQ(merged.seeds, (std::vector<uint64_t>{5}));
  }
}

TEST(SnapshotTest, GarbageEdgeCountIsRejectedBeforeAllocating) {
  // A checksum could in principle collide, so the snapshot loaders must be
  // total on arbitrary bytes too: a garbage edge count may not trigger a
  // pathological reserve() (length_error would escape this exception-free
  // codebase as a crash).
  BinaryWriter w;
  w.WriteI32(3);                         // num_nodes
  w.WriteU64(0xffffffffffffffffULL);     // num_edges: larger than any stream
  BinaryReader r(w.data());
  const la::Matrix features(3, 2);
  nn::GraphContext ctx;
  EXPECT_FALSE(core::LoadGraphContext(&r, features, &ctx));
}

TEST(ArtifactTest, WritesUniformSchemaGolden) {
  Sweep sweep;
  sweep.name = "artifact_probe";
  sweep.title = "artifact schema probe";
  sweep.cells.push_back(Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn,
                             core::MethodKind::kVanilla, 2));
  sweep.cells.push_back(Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn,
                             core::MethodKind::kReg, 2));

  RunnerOptions opts;
  opts.threads = 1;
  opts.env_seed = kEnvSeed;
  opts.verbose = false;
  SweepResult result = RunSweep(sweep, &SharedCache(), opts);
  result.cells[0].extra["probe_metric"] = 0.5;
  result.cells[1].extra["bad_metric"] = std::numeric_limits<double>::quiet_NaN();

  const std::string dir = ::testing::TempDir();
  const std::string path = WriteArtifact(result, dir);
  EXPECT_EQ(path, dir + "/BENCH_artifact_probe.json");
  const std::string json = ReadFileOrDie(path);

  // The uniform schema every sweep artifact shares (CI diffs the same list
  // against bench/golden/artifact_schema.txt).
  for (const char* key :
       {"\"schema_version\": 4", "\"sweep\"", "\"title\"", "\"backend\"",
        "\"backend_threads\"", "\"runner_threads\"", "\"env_seed\"",
        "\"seeds\"", "\"shard\"", "\"stable\"", "\"wall_seconds\"",
        "\"trainer_invocations\"", "\"failed_cells\"", "\"interrupted\"",
        "\"resumed_cells\"", "\"skipped_cells\"", "\"missing_cells\"",
        "\"missing_shards\"", "\"conflicting_cells\"",
        "\"cache\"", "\"env\"", "\"vanilla\"", "\"dp_context\"", "\"pp_context\"",
        "\"fr\"", "\"cell\"", "\"hits\"", "\"misses\"", "\"disk_hits\"",
        "\"cells\"", "\"dataset\"", "\"model\"", "\"method\"", "\"label\"",
        "\"seed\"", "\"seconds\"", "\"cache_hit\"", "\"status\"", "\"error\"",
        "\"retries\"", "\"resumed\"", "\"eval\"", "\"accuracy\"",
        "\"bias\"", "\"risk_auc\"", "\"delta_d\"", "\"delta\"", "\"d_acc\"",
        "\"d_bias\"", "\"d_risk\"", "\"combined\"", "\"extra\"",
        "\"probe_metric\"", "\"aggregates\"", "\"metrics\"", "\"mean\"",
        "\"stddev\"", "\"values\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "artifact missing " << key;
  }
  EXPECT_NE(json.find("\"sweep\": \"artifact_probe\""), std::string::npos);
  // A non-finite metric serialises as null but announces itself with a
  // sibling marker instead of corrupting the trajectory silently.
  EXPECT_NE(json.find("\"bad_metric\": null"), std::string::npos);
  EXPECT_NE(json.find("\"bad_metric_finite\": false"), std::string::npos);
  std::remove(path.c_str());

  // Stable mode zeroes only the run-varying fields; schema and results are
  // untouched, so two identical-result runs produce identical bytes.
  ArtifactOptions stable;
  stable.stable = true;
  const std::string stable_path = WriteArtifact(result, dir, stable);
  const std::string stable_json = ReadFileOrDie(stable_path);
  EXPECT_NE(stable_json.find("\"stable\": true"), std::string::npos);
  EXPECT_NE(stable_json.find("\"wall_seconds\": 0"), std::string::npos);
  EXPECT_NE(stable_json.find("\"trainer_invocations\": 0"), std::string::npos);
  EXPECT_NE(stable_json.find("\"probe_metric\": 0.5"), std::string::npos);
  std::remove(stable_path.c_str());
}

TEST(ScenarioTest, RegistryCoversEveryPaperSweep) {
  for (const std::string& name : RegistrySweepNames()) {
    const std::optional<Sweep> sweep = RegistrySweep(name);
    ASSERT_TRUE(sweep.has_value()) << name;
    EXPECT_FALSE(sweep->cells.empty()) << name;
  }
  EXPECT_FALSE(RegistrySweep("no_such_sweep").has_value());
  // The multiseed smoke entry carries the registry's only default seed list.
  EXPECT_EQ(RegistrySweep("smoke-multiseed")->seeds,
            (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_TRUE(RegistrySweep("smoke")->seeds.empty());
  // Aliases resolve to the same cells.
  EXPECT_EQ(RegistrySweep("table5")->cells.size(),
            RegistrySweep("weak-homophily")->cells.size());
  EXPECT_EQ(RegistrySweep("fig6")->cells.size(),
            RegistrySweep("ablation")->cells.size());
}

TEST(ScenarioTest, StarAndEmptyFiltersKeepEverything) {
  const char* argv[] = {"prog", "--datasets=*", "--models="};
  Flags flags(3, const_cast<char**>(argv));
  Sweep sweep = *RegistrySweep("table4");
  const size_t cells = sweep.cells.size();
  ApplyFilters(flags, &sweep);
  EXPECT_EQ(sweep.cells.size(), cells);
}

TEST(ScenarioTest, OverridesResolveOntoDefaults) {
  Scenario cell = Cell(data::DatasetId::kCoraLike, nn::ModelKind::kGcn,
                       core::MethodKind::kPpFr, 42);
  cell.overrides.pp_gamma = 0.0;
  cell.overrides.finetune_epochs = 9;
  cell.overrides.fr_zero_sum = false;
  const core::MethodConfig cfg = cell.ResolvedConfig();
  EXPECT_EQ(cfg.train.epochs, 42);
  EXPECT_EQ(cfg.pp_gamma, 0.0);
  EXPECT_EQ(cfg.finetune_epochs, 9);
  EXPECT_FALSE(cfg.fr.zero_sum);
  EXPECT_EQ(core::FinetuneEpochs(cfg), 9);

  core::MethodConfig scaled = cfg;
  scaled.finetune_epochs = 0;
  scaled.finetune_scale = 0.5;
  EXPECT_EQ(core::FinetuneEpochs(scaled), 21);
}

}  // namespace
}  // namespace ppfr::runner
