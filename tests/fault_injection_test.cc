// Tests for the deterministic fault-injection harness (common/fault_injection)
// and the runner behaviours built on it: per-cell fault isolation, bounded
// transient retries, and the "a faulted-but-recovered sweep is bitwise equal
// to a clean one" contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/recoverable.h"
#include "nn/trainer.h"
#include "runner/run_cache.h"
#include "runner/runner.h"

namespace ppfr::runner {
namespace {

constexpr uint64_t kEnvSeed = 7;

Scenario Cell(data::DatasetId dataset, nn::ModelKind model, core::MethodKind method,
              int epochs) {
  Scenario cell{dataset, model, method, {}, ""};
  cell.overrides.epochs = epochs;
  return cell;
}

// A sweep exercising every persisted stage (vanilla, DP/PP contexts, the FR
// solve, whole cells) — the same shape runner_test's disk-cache suite uses.
Sweep MiniSuiteSweep(int epochs) {
  Sweep sweep;
  sweep.name = "fault_mini";
  for (core::MethodKind method :
       {core::MethodKind::kVanilla, core::MethodKind::kDpFr,
        core::MethodKind::kPpFr}) {
    sweep.cells.push_back(
        Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn, method, epochs));
  }
  return sweep;
}

RunnerOptions QuietOptions() {
  RunnerOptions opts;
  opts.threads = 1;
  opts.env_seed = kEnvSeed;
  opts.verbose = false;
  opts.retry_backoff_ms = 0;  // no sleeping in tests
  return opts;
}

void ExpectEvalBitwiseEq(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.bias, b.bias);
  EXPECT_EQ(a.risk_auc, b.risk_auc);
  EXPECT_EQ(a.delta_d, b.delta_d);
}

// Resets injection to "off" when a test returns, even on failure — the
// harness is process-wide state.
struct FaultScope {
  explicit FaultScope(const std::string& spec) { fault::ConfigureForTest(spec); }
  ~FaultScope() { fault::ConfigureForTest(""); }
};

TEST(RecoverableErrorTest, CarriesMessageAndTransience) {
  const RecoverableError hard("diverged", /*transient=*/false);
  EXPECT_STREQ(hard.what(), "diverged");
  EXPECT_FALSE(hard.transient());
  const RecoverableError soft("read race", /*transient=*/true);
  EXPECT_TRUE(soft.transient());
  // Catchable through the std::exception base (what RunCache's futures see).
  try {
    throw RecoverableError("as base", true);
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "as base");
  }
}

TEST(FaultInjectionTest, FiresEveryNthHitDeterministically) {
  FaultScope scope("test.site:3");
  EXPECT_TRUE(fault::Enabled());
  // Hits 1..6: fires on exactly 3 and 6.
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(fault::ShouldFail(fault::kTestSite));
    EXPECT_FALSE(fault::ShouldFail(fault::kTestSite));
    EXPECT_TRUE(fault::ShouldFail(fault::kTestSite));
  }
  EXPECT_EQ(fault::HitCount(fault::kTestSite), 6);
  EXPECT_EQ(fault::FiredCount(fault::kTestSite), 2);
  // Sites not named in the spec never fire.
  EXPECT_FALSE(fault::ShouldFail(fault::kCacheStoreRead));
  EXPECT_EQ(fault::FiredCount(fault::kCacheStoreRead), 0);
}

TEST(FaultInjectionTest, ReconfigureResetsCounters) {
  FaultScope scope("test.site:1");
  EXPECT_TRUE(fault::ShouldFail(fault::kTestSite));
  fault::ConfigureForTest("test.site:2");
  EXPECT_EQ(fault::HitCount(fault::kTestSite), 0);
  EXPECT_FALSE(fault::ShouldFail(fault::kTestSite));
  EXPECT_TRUE(fault::ShouldFail(fault::kTestSite));
  fault::ConfigureForTest("");
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFail(fault::kTestSite));
}

TEST(FaultInjectionDeathTest, RejectsMalformedSpecs) {
  EXPECT_DEATH(fault::ConfigureForTest("no_such.site:3"), "unknown site");
  EXPECT_DEATH(fault::ConfigureForTest("test.site:0"), "positive every_n");
  EXPECT_DEATH(fault::ConfigureForTest("test.site"), "not site:every_n");
  EXPECT_DEATH(fault::ConfigureForTest("test.site:abc"), "positive every_n");
}

TEST(FaultInjectionTest, HonoursEnvironmentSpecWhenSet) {
  // The CI fault leg runs this binary with PPFR_FAULT_INJECT exported; the
  // suite must stay deterministic regardless (every sweep test pins its own
  // spec via ConfigureForTest), but the env path itself is only observable
  // when the variable is present.
  if (std::getenv("PPFR_FAULT_INJECT") == nullptr) {
    GTEST_SKIP() << "PPFR_FAULT_INJECT not set";
  }
  // ConfigureForTest ran in earlier tests, so Enabled() no longer reflects
  // the env directly — but the env spec must have parsed without dying at
  // first use, which reaching this line proves for this process.
  SUCCEED();
}

// The tentpole contract: a sweep whose disk-cache reads keep faulting
// transiently completes with zero failed cells, burns retries, and produces
// results bitwise identical to an undisturbed warm run.
TEST(FaultInjectionTest, SweepSurvivesCacheReadFaultsBitwise) {
  const std::string dir = ::testing::TempDir() + "/fault_cache_read";
  std::filesystem::remove_all(dir);
  const Sweep sweep = MiniSuiteSweep(6);
  const RunnerOptions opts = QuietOptions();

  RunCache cold(dir);
  const SweepResult clean = RunSweep(sweep, &cold, opts);
  ASSERT_EQ(clean.failed_cells, 0);

  // Every 2nd disk read throws the transient RecoverableError; the cell
  // retry loop re-requests until an attempt's reads all land.
  FaultScope scope("cache_store.read:2");
  RunCache faulted(dir);
  const SweepResult survived = RunSweep(sweep, &faulted, opts);
  EXPECT_EQ(survived.failed_cells, 0);
  int total_retries = 0;
  for (const CellResult& cell : survived.cells) total_retries += cell.retries;
  EXPECT_GT(total_retries, 0) << "read faults must have cost at least one retry";
  ASSERT_EQ(clean.cells.size(), survived.cells.size());
  for (size_t i = 0; i < clean.cells.size(); ++i) {
    SCOPED_TRACE(clean.cells[i].scenario.DisplayLabel());
    EXPECT_FALSE(survived.cells[i].failed);
    ExpectEvalBitwiseEq(clean.cells[i].run->eval, survived.cells[i].run->eval);
  }
}

// Write faults only degrade persistence (the entry recomputes next process);
// the faulted run itself completes clean and bitwise-equal.
TEST(FaultInjectionTest, CacheWriteFaultsOnlySkipPersistence) {
  const std::string dir = ::testing::TempDir() + "/fault_cache_write";
  std::filesystem::remove_all(dir);
  const Sweep sweep = MiniSuiteSweep(6);
  const RunnerOptions opts = QuietOptions();

  SweepResult faulted;
  {
    FaultScope scope("cache_store.write:2");
    RunCache cache(dir);
    faulted = RunSweep(sweep, &cache, opts);
  }
  EXPECT_EQ(faulted.failed_cells, 0);

  RunCache clean_cache;  // in-memory reference, no disk involved
  const SweepResult clean = RunSweep(sweep, &clean_cache, opts);
  ASSERT_EQ(clean.cells.size(), faulted.cells.size());
  for (size_t i = 0; i < clean.cells.size(); ++i) {
    SCOPED_TRACE(clean.cells[i].scenario.DisplayLabel());
    ExpectEvalBitwiseEq(clean.cells[i].run->eval, faulted.cells[i].run->eval);
  }
}

// Fault isolation without retries: every cell fails, but the sweep (and the
// artifact write) still completes, and failed cells stay out of aggregates.
TEST(FaultInjectionTest, ExhaustedRetriesFailCellsNotTheSweep) {
  const Sweep sweep = MiniSuiteSweep(4);
  RunnerOptions opts = QuietOptions();
  opts.max_cell_retries = 0;

  FaultScope scope("stage.cell:1");  // every cell compute throws
  RunCache cache;
  const SweepResult result = RunSweep(sweep, &cache, opts);
  EXPECT_EQ(result.failed_cells, static_cast<int64_t>(sweep.cells.size()));
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.failed);
    EXPECT_NE(cell.error.find("injected stage.cell fault"), std::string::npos)
        << cell.error;
    EXPECT_TRUE(std::isnan(cell.run->eval.accuracy));
  }
  // NaN placeholders must not leak into the cross-seed aggregates.
  EXPECT_TRUE(AggregateCells(result).empty());

  // The artifact still writes, reporting the failures honestly.
  const std::string dir = ::testing::TempDir() + "/fault_all_failed";
  std::filesystem::create_directories(dir);
  const std::string path = WriteArtifact(result, dir);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"failed_cells\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("injected stage.cell fault"), std::string::npos);
  std::remove(path.c_str());
}

// Bounded retries: a transient fault that keeps firing burns exactly
// max_cell_retries extra attempts before the cell is marked failed.
TEST(FaultInjectionTest, TransientRetriesAreBounded) {
  Sweep sweep;
  sweep.name = "fault_bound";
  sweep.cells.push_back(Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn,
                             core::MethodKind::kVanilla, 4));
  RunnerOptions opts = QuietOptions();
  opts.max_cell_retries = 2;

  FaultScope scope("stage.cell:1");
  RunCache cache;
  const SweepResult result = RunSweep(sweep, &cache, opts);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].failed);
  EXPECT_EQ(result.cells[0].retries, 2);
  EXPECT_EQ(fault::FiredCount(fault::kStageCell), 3);  // initial + 2 retries
}

// FR-backed cells surface their inverse-HVP solve health as an artifact
// extra (the cg_unconverged satellite).
TEST(FaultInjectionTest, FrCellsReportCgConvergenceExtra) {
  Sweep sweep;
  sweep.name = "cg_extra";
  sweep.cells.push_back(Cell(data::DatasetId::kEnzymesLike, nn::ModelKind::kGcn,
                             core::MethodKind::kPpFr, 6));
  RunCache cache;
  const SweepResult result = RunSweep(sweep, &cache, QuietOptions());
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  ASSERT_TRUE(cell.extra.count("cg_unconverged"));
  EXPECT_GE(cell.extra.at("cg_unconverged"), 0.0);
  EXPECT_GT(cell.run->cg_total_rhs, 0);
  EXPECT_LE(cell.run->cg_unconverged, cell.run->cg_total_rhs);
}

}  // namespace
}  // namespace ppfr::runner
