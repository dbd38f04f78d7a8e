// Tests for processes sharing the disk cache (runner/cache_store): two
// forked writers on one cache dir leave only valid entries behind, and a
// child forked while backend worker pools are warm still computes and exits
// cleanly. Kept apart from runner_test, which also runs under TSan, because
// these tests fork.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "la/backend.h"
#include "la/matrix.h"
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

// A sweep exercising every persisted stage (vanilla model, DP/PP contexts,
// the FR solve, whole cells) — the contention suite's unit of work.
Sweep MiniSuiteSweep(int epochs) {
  Sweep sweep;
  sweep.name = "contention_mini";
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
  return opts;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Runs the sweep against `dir` on a private single-threaded reference
// backend and returns how many nn::Train calls it cost THIS thread's
// process.
int64_t RunSweepCountingTrains(const Sweep& sweep, const std::string& dir) {
  const std::unique_ptr<la::Backend> backend =
      la::MakeBackend(la::BackendKind::kReference, /*num_threads=*/1);
  la::ThreadLocalBackendGuard guard(backend.get());
  const int64_t before = nn::TrainInvocationCount();
  RunCache cache(dir);
  const SweepResult result = RunSweep(sweep, &cache, QuietOptions());
  EXPECT_EQ(result.failed_cells, 0);
  return nn::TrainInvocationCount() - before;
}

// Warms a multi-threaded backend worker pool of the active kind, so a
// following fork(2) copies live pool state without its workers.
void WarmWorkerPool(la::Backend* backend) {
  const la::Matrix a(256, 256, 1.0);
  la::Matrix out(256, 256);
  backend->Gemm(a, a, &out);
  ASSERT_EQ(out(255, 255), 256.0);
}

// Two fork(2)ed processes running one sweep against one cache dir. They do
// not coordinate, so both may train a stage; the atomic Store must still
// leave no corrupt or torn entry behind.
TEST(CacheContentionTest, TwoForkedProcessesLeaveNoCorruptEntry) {
  const std::string dir = FreshDir("contention_fork");
  const Sweep sweep = MiniSuiteSweep(6);

  std::vector<pid_t> children;
  for (int child = 0; child < 2; ++child) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      RunSweepCountingTrains(sweep, dir);
      // _exit: no gtest teardown or atexit in the child.
      _exit(::testing::Test::HasFailure() ? 1 : 0);
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child " << pid << " status " << status;
  }

  // Zero corrupt entries: a third pass over the shared dir loads everything
  // from disk without a single retrain.
  EXPECT_EQ(RunSweepCountingTrains(sweep, dir), 0);
}

// A child forked while worker pools are warm inherits them without their
// threads. It must still compute (inherited pools run inline) and exit
// cleanly: the process-wide backend's destructor runs at exit() and must not
// join, lock or wait on anything the parent's workers owned.
TEST(CacheContentionTest, ForkAfterWorkerPoolsAreWarm) {
  std::unique_ptr<la::Backend> backend =
      la::MakeBackend(la::BackendKind::kParallel, /*num_threads=*/4);
  WarmWorkerPool(backend.get());
  WarmWorkerPool(&la::ActiveBackend());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const la::Matrix a(256, 256, 1.0);
    la::Matrix out(256, 256);
    backend->Gemm(a, a, &out);
    const bool ok = out(0, 0) == 256.0;
    backend.reset();  // destroys an inherited pool explicitly
    la::ActiveBackend().Gemm(a, a, &out);
    // exit, not _exit: static destructors (the process-wide backend's pool)
    // run in the child.
    std::exit(ok && out(0, 0) == 256.0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;

  // The parent's pools are untouched by the child's exit.
  WarmWorkerPool(backend.get());
}

}  // namespace
}  // namespace ppfr::runner
