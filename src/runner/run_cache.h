#ifndef PPFR_RUNNER_RUN_CACHE_H_
#define PPFR_RUNNER_RUN_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/serialize.h"
#include "core/methods.h"
#include "runner/cache_store.h"
#include "runner/scenario.h"

namespace ppfr::runner {

// Stable content hash for cache keys: FNV-1a over tagged field bytes. Keys
// never involve addresses or iteration order, so the same logical inputs
// hash identically in every process — a prerequisite for persisting the
// cache across processes (golden-tested in tests/runner_test.cc).
class KeyHasher {
 public:
  KeyHasher& Mix(uint64_t v);
  KeyHasher& Mix(int v) { return Mix(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  KeyHasher& Mix(bool v) { return Mix(static_cast<uint64_t>(v ? 1 : 0)); }
  // Canonicalized bit pattern: -0.0 hashes as +0.0 and every NaN payload as
  // one canonical qNaN, so configs that compare equal share a key.
  KeyHasher& Mix(double v);
  KeyHasher& Mix(const std::string& s);
  // Without this overload a literal like Mix("env") would take the bool
  // conversion (pointer-to-bool beats the user-defined std::string one) and
  // every namespace tag would hash identically.
  KeyHasher& Mix(const char* s) { return Mix(std::string(s)); }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;  // FNV offset basis
};

// Process-wide stage-level run cache behind the scenario runner: one
// instance memoises every expensive pipeline stage across methods, cells and
// sweeps, keyed by content hashes of the stage's inputs ("stage prefix" of
// the MethodConfig). Vanilla training therefore happens exactly once per
// (dataset, env seed, model kind, train schedule, method seed) no matter how
// many methods, tables and figures consume it.
//
// Thread safety: all getters are callable from concurrent scheduler workers.
// The first requester of a key computes the entry (outside the map lock);
// concurrent requesters for the same key block on a shared_future until it
// is ready. Entries are immutable once computed and never evicted; a compute
// that fails with the sanctioned RecoverableError (common/recoverable.h)
// stays mapped to its exception, which every requester of the key rethrows
// (the failure is deterministic, so recomputing would only repeat it). Because
// the computer is always a running thread — a waiter only ever waits on a
// key some other running thread claimed — the latch cannot deadlock a
// fixed-size scheduler.
// With a persist dir (--run_cache_dir= / PPFR_RUN_CACHE_DIR), every computed
// stage is additionally serialised into a CacheStore and in-memory misses
// first try a disk load — so a SECOND PROCESS running the same sweep resumes
// every trained model, DP/PP context, FR solve and whole cell from disk
// (zero nn::Train calls, bitwise-identical artifacts; gated in
// tests/runner_test.cc and the CI warm-cache leg). The same load is the
// crash recovery: re-running a killed sweep against its dir recomputes only
// the stages the killed run never persisted. Processes sharing one dir do
// not coordinate; each stays correct but may compute a stage another one is
// computing too.
class RunCache : public core::StageCache {
 public:
  struct StageStats {
    int64_t hits = 0;
    int64_t misses = 0;
    // Of the misses, how many were satisfied by a disk load instead of a
    // recompute (disk_hits <= misses; only ever nonzero with a persist dir).
    int64_t disk_hits = 0;
  };
  struct Stats {
    StageStats env;
    StageStats vanilla;
    StageStats dp_context;
    StageStats pp_context;
    StageStats fr;
    StageStats cell;
  };

  // An empty persist_dir keeps the cache purely in-memory (the historical
  // behaviour); a non-empty one persists every stage across processes.
  explicit RunCache(std::string persist_dir = {});

  // ---- Content-hash keys (public for the stability tests) ----
  static uint64_t EnvKey(data::DatasetId id, uint64_t env_seed);
  static uint64_t VanillaKey(nn::ModelKind kind, const core::ExperimentEnv& env,
                             const core::MethodConfig& config);
  static uint64_t DpKey(const core::ExperimentEnv& env,
                        const core::MethodConfig& config);
  static uint64_t PpKey(nn::ModelKind kind, const core::ExperimentEnv& env,
                        const core::MethodConfig& config);
  static uint64_t FrKey(nn::ModelKind kind, const core::ExperimentEnv& env,
                        const core::MethodConfig& config);
  static uint64_t CellKey(const Scenario& cell, uint64_t env_seed);

  // ---- Stage getters ----

  // Shared experiment environment for a dataset (graph, similarity, attack
  // pairs). Heavyweight and read-only, so all cells share one instance.
  std::shared_ptr<const core::ExperimentEnv> Env(data::DatasetId id,
                                                 uint64_t env_seed);

  // core::StageCache interface (consumed by core::RunMethod).
  std::unique_ptr<nn::GnnModel> VanillaModel(nn::ModelKind kind,
                                             const core::ExperimentEnv& env,
                                             const core::MethodConfig& config) override;
  core::EvalResult VanillaEval(nn::ModelKind kind, const core::ExperimentEnv& env,
                               const core::MethodConfig& config) override;
  std::shared_ptr<const nn::GraphContext> DpContext(
      const core::ExperimentEnv& env, const core::MethodConfig& config) override;
  std::shared_ptr<const nn::GraphContext> PpContext(
      nn::ModelKind kind, const core::ExperimentEnv& env,
      const core::MethodConfig& config) override;
  std::shared_ptr<const core::FrOutput> FrWeights(
      nn::ModelKind kind, const core::ExperimentEnv& env,
      const core::MethodConfig& config) override;

  // Fully-run cell (RunMethod through this cache), memoised on the resolved
  // config — a cell repeated across sweeps in one process runs once. On
  // return *cache_hit (when non-null) says whether the memo held a READY
  // result (a waiter on an in-flight duplicate reports false: it spent the
  // compute's wall time).
  std::shared_ptr<const core::MethodRun> CellRun(const Scenario& cell,
                                                 const core::ExperimentEnv& env,
                                                 bool* cache_hit = nullptr);

  Stats stats() const;

 private:
  struct VanillaStage {
    std::unique_ptr<nn::GnnModel> model;
    core::EvalResult eval;
  };

  template <typename V>
  V GetOrCompute(std::unordered_map<uint64_t, std::shared_future<V>>* map,
                 uint64_t key, StageStats* stats, const std::function<V()>& compute,
                 bool* was_hit = nullptr);

  std::shared_ptr<const VanillaStage> VanillaStageFor(nn::ModelKind kind,
                                                      const core::ExperimentEnv& env,
                                                      const core::MethodConfig& config);

  // Counts a miss that was satisfied from disk (called from compute lambdas,
  // outside the map lock).
  void NoteDiskHit(StageStats* stats);

  // The disk half of a stage compute, and the only code that touches the
  // CacheStore. With the store enabled: exactly one Load; a payload that
  // decode() accepts in full is a disk hit. Anything else (no entry, or a
  // checksum-valid entry decode() rejects) runs compute() and persists
  // encode() of its result over it.
  template <typename T>
  std::shared_ptr<const T> LoadOrCompute(
      const char* stage, uint64_t key, StageStats* stats,
      const std::function<bool(BinaryReader*, T*)>& decode,
      const std::function<std::shared_ptr<const T>()>& compute,
      const std::function<void(BinaryWriter*, const T&)>& encode);

  // Disk-backed compute shared by the DP/PP context stages.
  std::shared_ptr<const nn::GraphContext> ContextStage(
      std::unordered_map<uint64_t,
                         std::shared_future<std::shared_ptr<const nn::GraphContext>>>* map,
      const char* stage, uint64_t key, StageStats* stats,
      const core::ExperimentEnv& env,
      const std::function<nn::GraphContext()>& compute);

  CacheStore store_;
  mutable std::mutex mu_;
  Stats stats_;
  std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const core::ExperimentEnv>>>
      envs_;
  std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const VanillaStage>>>
      vanilla_;
  std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const nn::GraphContext>>>
      dp_contexts_;
  std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const nn::GraphContext>>>
      pp_contexts_;
  std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const core::FrOutput>>>
      fr_outputs_;
  std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const core::MethodRun>>>
      cells_;
};

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_RUN_CACHE_H_
