// Tests for the multi-process hardening of the disk cache (runner/cache_store
// claims + GC) and the RunCache contention contract built on it: concurrent
// threads AND forked processes sharing one cache dir train each stage exactly
// once, stale claims are taken over, corrupt entries recover under
// contention, and the GC respects size/age bounds without ever evicting a
// claimed entry.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/experiment.h"
#include "la/backend.h"
#include "la/matrix.h"
#include "nn/trainer.h"
#include "runner/cache_store.h"
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
  opts.retry_backoff_ms = 0;
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

struct FaultScope {
  explicit FaultScope(const std::string& spec) { fault::ConfigureForTest(spec); }
  ~FaultScope() { fault::ConfigureForTest(""); }
};

// Warms a multi-threaded backend worker pool of the active kind, so a
// following fork(2) copies live pool state without its workers.
void WarmWorkerPool(la::Backend* backend) {
  const la::Matrix a(256, 256, 1.0);
  la::Matrix out(256, 256);
  backend->Gemm(a, a, &out);
  ASSERT_EQ(out(255, 255), 256.0);
}

// Two fork(2)ed processes hammering one cache dir: the claim files must
// serialize every stage compute so the FLEET trains each stage exactly once,
// and neither process may leave a corrupt entry behind.
TEST(CacheContentionTest, TwoForkedProcessesTrainEachStageOnce) {
  const std::string dir = FreshDir("contention_fork");
  const Sweep sweep = MiniSuiteSweep(6);
  const int64_t solo_trains =
      RunSweepCountingTrains(sweep, FreshDir("contention_fork_solo"));
  ASSERT_GT(solo_trains, 0);

  std::vector<pid_t> children;
  for (int child = 0; child < 2; ++child) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const int64_t trains = RunSweepCountingTrains(sweep, dir);
      std::ofstream(dir + "/trains." + std::to_string(getpid()))
          << trains << "\n";
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

  int64_t fleet_trains = 0;
  int reports = 0;
  for (const auto& it : std::filesystem::directory_iterator(dir)) {
    const std::string name = it.path().filename().string();
    if (name.rfind("trains.", 0) != 0) continue;
    std::ifstream in(it.path());
    int64_t trains = -1;
    in >> trains;
    ASSERT_GE(trains, 0) << name;
    fleet_trains += trains;
    ++reports;
  }
  ASSERT_EQ(reports, 2);
  EXPECT_EQ(fleet_trains, solo_trains)
      << "two processes on one cache dir must not double-train any stage";

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

// The same contract inside one process: two threads, each with its OWN
// RunCache instance (no shared in-memory futures), sharing only the dir.
TEST(CacheContentionTest, TwoThreadsOneDirTrainEachStageOnce) {
  const std::string dir = FreshDir("contention_threads");
  const Sweep sweep = MiniSuiteSweep(6);
  const int64_t solo_trains =
      RunSweepCountingTrains(sweep, FreshDir("contention_threads_solo"));
  ASSERT_GT(solo_trains, 0);

  const int64_t before = nn::TrainInvocationCount();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] { RunSweepCountingTrains(sweep, dir); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(nn::TrainInvocationCount() - before, solo_trains)
      << "two threads on one cache dir must not double-train any stage";
  EXPECT_EQ(RunSweepCountingTrains(sweep, dir), 0) << "corrupt or missing entries";
}

// A corrupt entry under contention: both contenders see the checksum failure
// as a miss, exactly one recomputes (claim), and the rewritten entry is
// valid again.
TEST(CacheContentionTest, CorruptEntryRecoversUnderContention) {
  const std::string dir = FreshDir("contention_corrupt");
  const Sweep sweep = MiniSuiteSweep(6);
  ASSERT_GT(RunSweepCountingTrains(sweep, dir), 0);

  // Flip a payload byte in every vanilla-stage entry (this suite has one).
  int corrupted = 0;
  for (const auto& it : std::filesystem::directory_iterator(dir)) {
    const std::string name = it.path().filename().string();
    if (name.rfind("vanilla-", 0) != 0) continue;
    std::ifstream in(it.path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() - 9] ^= 0x5a;
    std::ofstream out(it.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1);

  const int64_t before = nn::TrainInvocationCount();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] { RunSweepCountingTrains(sweep, dir); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(nn::TrainInvocationCount() - before, 1)
      << "exactly one contender retrains the corrupted stage";
  EXPECT_EQ(RunSweepCountingTrains(sweep, dir), 0) << "entry must be valid again";
}

TEST(ClaimTest, ExclusiveCreateProbeAndRelease) {
  const CacheStore store(FreshDir("claim_basic"));
  EXPECT_EQ(store.ProbeClaim("cell", 42), CacheStore::ClaimState::kNone);
  EXPECT_TRUE(store.TryClaim("cell", 42));
  EXPECT_TRUE(std::filesystem::exists(store.ClaimPath("cell", 42)));
  EXPECT_FALSE(store.TryClaim("cell", 42)) << "O_EXCL: one winner";
  EXPECT_EQ(store.ProbeClaim("cell", 42), CacheStore::ClaimState::kHeld);
  store.ReleaseClaim("cell", 42);
  EXPECT_EQ(store.ProbeClaim("cell", 42), CacheStore::ClaimState::kNone);
  EXPECT_TRUE(store.TryClaim("cell", 42));
  store.ReleaseClaim("cell", 42);
  store.ReleaseClaim("cell", 42);  // idempotent

  const CacheStore disabled("");
  EXPECT_TRUE(disabled.TryClaim("cell", 42))
      << "a disabled store has no cross-process concern";
}

TEST(ClaimTest, DeadOwnerPidIsStale) {
  const CacheStore store(FreshDir("claim_dead"));
  // Fabricate the claim a SIGKILL'd shard would leave behind: well-formed,
  // young, but its pid no longer exists (pid_max is far below this value on
  // any Linux config).
  ASSERT_TRUE(store.TryClaim("vanilla", 7));
  {
    std::ofstream out(store.ClaimPath("vanilla", 7), std::ios::trunc);
    out << "pid=999999999\nfingerprint=" << CacheStore::Fingerprint()
        << "\ncreated_unix=9999999999\n";
  }
  EXPECT_EQ(store.ProbeClaim("vanilla", 7), CacheStore::ClaimState::kStale);
  store.BreakClaim("vanilla", 7);
  EXPECT_EQ(store.ProbeClaim("vanilla", 7), CacheStore::ClaimState::kNone);
  EXPECT_TRUE(store.TryClaim("vanilla", 7)) << "takeover re-contends the create";
  store.ReleaseClaim("vanilla", 7);
}

TEST(ClaimTest, OverAgedClaimIsStale) {
  const CacheStore store(FreshDir("claim_aged"));
  ASSERT_TRUE(store.TryClaim("fr", 9));
  // Our own pid is alive, so only the age bound can stale this claim.
  // Backdate the claim's mtime (the staleness clock runs at second
  // granularity) instead of sleeping the test out.
  EXPECT_EQ(store.ProbeClaim("fr", 9), CacheStore::ClaimState::kHeld);
  std::filesystem::last_write_time(
      store.ClaimPath("fr", 9),
      std::filesystem::file_time_type::clock::now() - std::chrono::seconds(5));
  EXPECT_EQ(store.ProbeClaim("fr", 9, /*stale_ms=*/1000),
            CacheStore::ClaimState::kStale);
  EXPECT_EQ(store.ProbeClaim("fr", 9), CacheStore::ClaimState::kHeld)
      << "the default bound is far larger";
  store.ReleaseClaim("fr", 9);
}

TEST(ClaimTest, InjectedClaimFaultSkipsTheCreate) {
  const CacheStore store(FreshDir("claim_fault"));
  FaultScope scope("cache_store.claim:2");
  EXPECT_TRUE(store.TryClaim("cell", 1));  // hit 1: no fire
  store.ReleaseClaim("cell", 1);
  EXPECT_FALSE(store.TryClaim("cell", 1)) << "hit 2 fires: spurious failure";
  EXPECT_EQ(store.ProbeClaim("cell", 1), CacheStore::ClaimState::kNone)
      << "a faulted TryClaim must not leave a claim file behind";
  EXPECT_TRUE(store.TryClaim("cell", 1)) << "the re-contend wins";
  store.ReleaseClaim("cell", 1);
}

// A dead claimant blocking a stage a live sweep needs: the waiter's poll
// loop must classify the claim stale, break it, and complete the compute in
// bounded time.
TEST(ClaimTest, SweepTakesOverDeadClaimants) {
  const std::string dir = FreshDir("claim_takeover");
  const Sweep sweep = MiniSuiteSweep(6);

  // Pre-claim the vanilla stage key under a dead pid.
  const Scenario cell = sweep.cells[0];
  const core::MethodConfig config = cell.ResolvedConfig();
  const core::ExperimentEnv env = core::MakeEnv(cell.dataset, kEnvSeed);
  const uint64_t key = RunCache::VanillaKey(cell.model, env, config);
  const CacheStore store(dir);
  ASSERT_TRUE(store.TryClaim("vanilla", key));
  {
    std::ofstream out(store.ClaimPath("vanilla", key), std::ios::trunc);
    out << "pid=999999999\nfingerprint=" << CacheStore::Fingerprint()
        << "\ncreated_unix=9999999999\n";
  }

  RunCache cache(dir);
  const SweepResult result = RunSweep(sweep, &cache, QuietOptions());
  EXPECT_EQ(result.failed_cells, 0) << "stale claim must not wedge the sweep";
  EXPECT_EQ(store.ProbeClaim("vanilla", key), CacheStore::ClaimState::kNone)
      << "the takeover's own claim is released after the compute";
}

// ---- GC ---------------------------------------------------------------

// Stores a synthetic entry and backdates its mtime so a FRESH CacheStore
// instance (whose in-process touch map is empty) sees it as idle.
void StoreAged(const CacheStore& store, uint64_t key, size_t bytes,
               int64_t age_seconds) {
  store.Store("cell", key, std::string(bytes, 'x'));
  const std::string path = store.EntryPath("cell", key);
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() -
                std::chrono::seconds(age_seconds));
}

TEST(CacheGcTest, EvictsLeastRecentlyUsedOverBudget) {
  const std::string dir = FreshDir("gc_lru");
  {
    const CacheStore writer(dir);
    StoreAged(writer, 1, 1000, 3600);  // oldest
    StoreAged(writer, 2, 1000, 1800);
    StoreAged(writer, 3, 1000, 60);  // newest
  }
  const CacheStore store(dir);  // fresh instance: mtimes alone order the LRU
  // Entries carry a fixed serialization header, so size them from disk.
  const uint64_t entry_bytes =
      std::filesystem::file_size(store.EntryPath("cell", 3));
  CacheStore::GcOptions options;
  options.max_bytes = static_cast<int64_t>(entry_bytes + entry_bytes / 2);
  const CacheStore::GcResult result = store.GarbageCollect(options);
  EXPECT_EQ(result.entries_before, 3);
  EXPECT_EQ(result.bytes_before, 3 * entry_bytes);
  EXPECT_EQ(result.evicted_entries, 2);
  EXPECT_EQ(result.evicted_bytes, 2 * entry_bytes);
  EXPECT_FALSE(std::filesystem::exists(store.EntryPath("cell", 1)));
  EXPECT_FALSE(std::filesystem::exists(store.EntryPath("cell", 2)));
  EXPECT_TRUE(std::filesystem::exists(store.EntryPath("cell", 3)))
      << "the most recently used entry survives";
  // The refreshed index lists exactly the survivors.
  EXPECT_TRUE(std::filesystem::exists(store.IndexPath()));
  std::ifstream in(store.IndexPath());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string index = buffer.str();
  EXPECT_EQ(index.find(std::filesystem::path(store.EntryPath("cell", 1))
                           .filename()
                           .string()),
            std::string::npos);
  EXPECT_NE(index.find(std::filesystem::path(store.EntryPath("cell", 3))
                           .filename()
                           .string()),
            std::string::npos);
}

TEST(CacheGcTest, EvictsEntriesIdleBeyondTheAgeBound) {
  const std::string dir = FreshDir("gc_age");
  {
    const CacheStore writer(dir);
    StoreAged(writer, 1, 500, 3600);
    StoreAged(writer, 2, 500, 0);
  }
  const CacheStore store(dir);
  CacheStore::GcOptions options;
  options.max_age_seconds = 600;
  const CacheStore::GcResult result = store.GarbageCollect(options);
  EXPECT_EQ(result.evicted_entries, 1);
  EXPECT_FALSE(std::filesystem::exists(store.EntryPath("cell", 1)));
  EXPECT_TRUE(std::filesystem::exists(store.EntryPath("cell", 2)));
}

TEST(CacheGcTest, InProcessTouchRefreshesAnAgedEntry) {
  const std::string dir = FreshDir("gc_touch");
  {
    const CacheStore writer(dir);
    StoreAged(writer, 1, 500, 3600);
  }
  // A fresh instance (no Store-time touch) whose only traffic is one Load:
  // that read alone must spare the entry from the age bound.
  const CacheStore store(dir);
  std::string payload;
  ASSERT_TRUE(store.Load("cell", 1, &payload));
  CacheStore::GcOptions options;
  options.max_age_seconds = 600;
  EXPECT_EQ(store.GarbageCollect(options).evicted_entries, 0)
      << "a recent in-process Load outranks the stale mtime";
}

TEST(CacheGcTest, NeverEvictsClaimedEntries) {
  const std::string dir = FreshDir("gc_claimed");
  const CacheStore store(dir);
  StoreAged(store, 1, 1000, 3600);
  StoreAged(store, 2, 1000, 3600);
  ASSERT_TRUE(store.TryClaim("cell", 1));
  CacheStore::GcOptions options;
  options.max_bytes = 1;  // over budget: everything is an eviction candidate
  const CacheStore::GcResult result = store.GarbageCollect(options);
  EXPECT_EQ(result.kept_claimed, 1);
  EXPECT_EQ(result.evicted_entries, 1);
  EXPECT_TRUE(std::filesystem::exists(store.EntryPath("cell", 1)))
      << "a claimant is about to rewrite this entry";
  EXPECT_TRUE(std::filesystem::exists(store.ClaimPath("cell", 1)))
      << "claim files are not entries and are left alone";
  EXPECT_FALSE(std::filesystem::exists(store.EntryPath("cell", 2)));
  store.ReleaseClaim("cell", 1);
}

TEST(CacheGcTest, UnboundedAndDisabledAreNoOps) {
  const std::string dir = FreshDir("gc_noop");
  const CacheStore store(dir);
  StoreAged(store, 1, 500, 3600);
  const CacheStore::GcResult unbounded = store.GarbageCollect({});
  EXPECT_EQ(unbounded.entries_before, 1);
  EXPECT_EQ(unbounded.evicted_entries, 0);
  EXPECT_TRUE(std::filesystem::exists(store.EntryPath("cell", 1)));

  const CacheStore disabled("");
  const CacheStore::GcResult off = disabled.GarbageCollect({});
  EXPECT_EQ(off.entries_before, 0);
  EXPECT_EQ(off.evicted_entries, 0);
}

}  // namespace
}  // namespace ppfr::runner
