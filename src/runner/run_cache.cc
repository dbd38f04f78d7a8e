#include "runner/run_cache.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/fault_injection.h"
#include "common/recoverable.h"
#include "common/serialize.h"
#include "core/snapshot.h"
#include "influence/influence.h"

namespace ppfr::runner {

KeyHasher& KeyHasher::Mix(uint64_t v) {
  // FNV-1a over the 8 little-endian bytes.
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffULL;
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

KeyHasher& KeyHasher::Mix(double v) {
  // Canonicalize before bit-casting: -0.0 == 0.0 and any two NaNs compare
  // equivalent config-wise, so equal configs must produce equal keys — the
  // disk-persisted cache makes a spurious key split user-visible as a
  // recompute (or a stale artifact diff).
  if (v == 0.0) v = 0.0;  // collapses -0.0 onto +0.0
  const uint64_t bits = std::isnan(v) ? 0x7ff8000000000000ULL  // canonical qNaN
                                      : std::bit_cast<uint64_t>(v);
  return Mix(bits);
}

KeyHasher& KeyHasher::Mix(const std::string& s) {
  for (unsigned char c : s) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  // Length terminator so ("ab","c") and ("a","bc") differ.
  return Mix(static_cast<uint64_t>(s.size()));
}

namespace {

// The training-schedule prefix every trained-model stage depends on.
void MixTrainPrefix(KeyHasher* h, nn::ModelKind kind, const core::MethodConfig& config) {
  // Names the first layer's numerics: models trained with the dense X·W
  // (before the features became one CSR operand) are keyed without it, so
  // they miss once instead of mixing.
  h->Mix("first-layer:sparse-x");
  // Names GAT's attention numerics: GAT stages from the per-head score GEMMs
  // (before one fused attention op computed the scores) are keyed without
  // it, so they miss once instead of mixing. Other models keep their keys.
  if (kind == nn::ModelKind::kGat) h->Mix("gat:fused-attention");
  h->Mix(config.train.epochs)
      .Mix(config.train.lr)
      .Mix(config.train.weight_decay)
      .Mix(config.train.sage_fanout)
      .Mix(config.train.seed)
      .Mix(config.seed);
}

void MixFrPrefix(KeyHasher* h, const core::MethodConfig& config) {
  // Names the influence engine's numerics: FR results from the full-graph
  // loss gradients (before support restriction reassociated the block
  // aggregation) are keyed without it, so they miss once instead of mixing.
  h->Mix("influence:2-hop-block")
      .Mix(config.fr.alpha)
      .Mix(config.fr.beta)
      .Mix(config.fr.zero_sum)
      .Mix(config.fr.influence.cg.damping)
      .Mix(config.fr.influence.cg.max_iterations)
      .Mix(config.fr.influence.cg.tolerance)
      .Mix(config.fr.influence.cg.hvp_step)
      .Mix(influence::ResolveCgBlock(config.fr.influence.cg_block));
}

}  // namespace

uint64_t RunCache::EnvKey(data::DatasetId id, uint64_t env_seed) {
  return KeyHasher().Mix("env").Mix(static_cast<int>(id)).Mix(env_seed).hash();
}

uint64_t RunCache::VanillaKey(nn::ModelKind kind, const core::ExperimentEnv& env,
                              const core::MethodConfig& config) {
  KeyHasher h;
  h.Mix("vanilla").Mix(EnvKey(env.id, env.env_seed)).Mix(static_cast<int>(kind));
  MixTrainPrefix(&h, kind, config);
  return h.hash();
}

uint64_t RunCache::DpKey(const core::ExperimentEnv& env,
                         const core::MethodConfig& config) {
  return KeyHasher()
      .Mix("dp")
      .Mix(EnvKey(env.id, env.env_seed))
      .Mix(config.dp_epsilon)
      .Mix(config.use_lap_graph)
      .Mix(config.seed)
      .hash();
}

uint64_t RunCache::PpKey(nn::ModelKind kind, const core::ExperimentEnv& env,
                         const core::MethodConfig& config) {
  // The PP context is a function of the vanilla model's predictions, so the
  // vanilla stage key is this key's prefix.
  return KeyHasher()
      .Mix("pp")
      .Mix(VanillaKey(kind, env, config))
      .Mix(config.pp_gamma)
      .Mix(config.seed)
      .hash();
}

uint64_t RunCache::FrKey(nn::ModelKind kind, const core::ExperimentEnv& env,
                         const core::MethodConfig& config) {
  KeyHasher h;
  h.Mix("fr").Mix(VanillaKey(kind, env, config));
  MixFrPrefix(&h, config);
  return h.hash();
}

uint64_t RunCache::CellKey(const Scenario& cell, uint64_t env_seed) {
  const core::MethodConfig config = cell.ResolvedConfig();
  KeyHasher h;
  h.Mix("cell")
      .Mix(EnvKey(cell.dataset, env_seed))
      .Mix(static_cast<int>(cell.model))
      .Mix(static_cast<int>(cell.method));
  MixTrainPrefix(&h, cell.model, config);
  MixFrPrefix(&h, config);
  h.Mix(config.lambda)
      .Mix(config.dp_epsilon)
      .Mix(config.use_lap_graph)
      .Mix(config.pp_gamma)
      .Mix(config.finetune_scale)
      .Mix(config.finetune_epochs)
      .Mix(config.finetune_lr);
  return h.hash();
}

template <typename V>
V RunCache::GetOrCompute(std::unordered_map<uint64_t, std::shared_future<V>>* map,
                         uint64_t key, StageStats* stats,
                         const std::function<V()>& compute, bool* was_hit) {
  std::promise<V> promise;
  std::shared_future<V> future;
  bool computer = false;
  bool ready_at_claim = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map->find(key);
    if (it != map->end()) {
      future = it->second;
      ++stats->hits;
      ready_at_claim =
          future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    } else {
      future = promise.get_future().share();
      map->emplace(key, future);
      ++stats->misses;
      computer = true;
    }
  }
  // was_hit is only true for a PURE hit — the value was ready when we asked.
  // A concurrent waiter that blocks on an in-flight compute spends real wall
  // time, so reporting it as cached would corrupt the per-cell timing in the
  // artifacts (the stats above stay claim-based either way: misses count
  // actual computes).
  if (was_hit != nullptr) *was_hit = ready_at_claim;
  if (computer) {
    // The only thing compute() may throw is the sanctioned RecoverableError
    // (a data-dependent stage failure or an injected fault — everything else
    // still PPFR_CHECK-aborts). The key is unmapped FIRST so any requester
    // arriving after the failure starts a fresh compute — i.e. a cell retry
    // actually retries — and only then are the blocked waiters woken with
    // the exception, which each of them rethrows from get() and handles as
    // its own cell's failure. A failed compute therefore never wedges a key
    // behind a broken promise.
    try {
      promise.set_value(compute());
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        map->erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  // A waiter only ever blocks on a key some RUNNING thread claimed above, so
  // a fixed-size scheduler cannot deadlock here.
  return future.get();
}

RunCache::RunCache(std::string persist_dir) : store_(std::move(persist_dir)) {}

bool RunCache::LoadStage(const char* stage, uint64_t key, std::string* payload) const {
  // The injected read fault models a disk read racing a concurrent writer or
  // a transient I/O error: transient, so the cell retry loop recovers it.
  if (store_.enabled() && fault::ShouldFail(fault::kCacheStoreRead)) {
    throw RecoverableError(std::string("injected cache-store read fault (") +
                               stage + " stage)",
                           /*transient=*/true);
  }
  return store_.Load(stage, key, payload);
}

void RunCache::StoreStage(const char* stage, uint64_t key,
                          const std::string& payload) const {
  // A write fault degrades exactly like the real full-disk path in
  // CacheStore::Store: the entry is simply not persisted (a later process
  // recomputes it); the in-memory result is unaffected.
  if (store_.enabled() && fault::ShouldFail(fault::kCacheStoreWrite)) {
    std::fprintf(stderr,
                 "run cache: injected cache-store write fault (%s stage, "
                 "entry not persisted)\n",
                 stage);
    return;
  }
  store_.Store(stage, key, payload);
}

void RunCache::NoteDiskHit(StageStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats->disk_hits;
}

void RunCache::ClaimedCompute(const char* stage, uint64_t key,
                              const std::function<bool(bool)>& try_load,
                              const std::function<void()>& compute) const {
  if (try_load(/*faulted=*/true)) return;
  if (!store_.enabled()) {
    compute();
    return;
  }
  int64_t backoff_ms = 2;
  for (;;) {
    if (store_.TryClaim(stage, key)) {
      CacheStore::ClaimGuard guard(&store_, stage, key);
      // Double-check under the claim: the previous claimant may have
      // persisted the entry between our miss and our win.
      if (try_load(/*faulted=*/false)) return;
      compute();
      return;
      // ~guard releases the claim — including when compute() unwinds with a
      // RecoverableError, so a failed compute never wedges the key for other
      // processes until the staleness bound.
    }
    // Lost the claim race: the winner is computing this exact deterministic
    // entry. Poll for it instead of double-training.
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min<int64_t>(backoff_ms * 2, 50);
    if (try_load(/*faulted=*/false)) return;
    // No entry yet. A live claim means keep waiting; a stale one (dead pid,
    // over the age bound) or none at all (claimant released without
    // persisting — failed compute or failed write) means re-contend.
    if (store_.ProbeClaim(stage, key) == CacheStore::ClaimState::kStale) {
      store_.BreakClaim(stage, key);
    }
  }
}

std::shared_ptr<const core::ExperimentEnv> RunCache::Env(data::DatasetId id,
                                                         uint64_t env_seed) {
  return GetOrCompute<std::shared_ptr<const core::ExperimentEnv>>(
      &envs_, EnvKey(id, env_seed), &stats_.env, [&] {
        return std::make_shared<const core::ExperimentEnv>(
            core::MakeEnv(id, env_seed));
      });
}

std::shared_ptr<const RunCache::VanillaStage> RunCache::VanillaStageFor(
    nn::ModelKind kind, const core::ExperimentEnv& env,
    const core::MethodConfig& config) {
  const uint64_t key = VanillaKey(kind, env, config);
  return GetOrCompute<std::shared_ptr<const VanillaStage>>(
      &vanilla_, key, &stats_.vanilla, [&] {
        std::shared_ptr<const VanillaStage> result;
        const auto try_load = [&](bool faulted) {
          std::string payload;
          if (!(faulted ? LoadStage("vanilla", key, &payload)
                        : store_.Load("vanilla", key, &payload))) {
            return false;
          }
          BinaryReader r(payload);
          auto stage = std::make_shared<VanillaStage>();
          stage->model = core::LoadModel(&r, kind, env, config.seed);
          if (stage->model != nullptr && core::LoadEval(&r, &stage->eval) &&
              r.AtEnd()) {
            NoteDiskHit(&stats_.vanilla);
            result = std::move(stage);
            return true;
          }
          // Architecture/shape drift inside a checksum-valid entry: fall
          // through to the recompute, which overwrites it.
          return false;
        };
        ClaimedCompute("vanilla", key, try_load, [&] {
          auto stage = std::make_shared<VanillaStage>();
          stage->model =
              core::TrainFresh(kind, env, env.ctx, config, /*lambda=*/0.0);
          stage->eval = core::EvaluateModel(stage->model.get(), env.Eval());
          if (store_.enabled()) {
            BinaryWriter w;
            core::SaveModel(&w, stage->model.get());
            core::SaveEval(&w, stage->eval);
            StoreStage("vanilla", key, w.data());
          }
          result = std::move(stage);
        });
        return result;
      });
}

std::unique_ptr<nn::GnnModel> RunCache::VanillaModel(nn::ModelKind kind,
                                                     const core::ExperimentEnv& env,
                                                     const core::MethodConfig& config) {
  return VanillaStageFor(kind, env, config)->model->Clone();
}

core::EvalResult RunCache::VanillaEval(nn::ModelKind kind,
                                       const core::ExperimentEnv& env,
                                       const core::MethodConfig& config) {
  return VanillaStageFor(kind, env, config)->eval;
}

// Shared disk-backed compute wrapper for the two perturbed-context stages:
// only the edited graph structure is persisted; the operators are rebuilt
// deterministically against the environment's features.
std::shared_ptr<const nn::GraphContext> RunCache::ContextStage(
    std::unordered_map<uint64_t, std::shared_future<std::shared_ptr<const nn::GraphContext>>>*
        map,
    const char* stage, uint64_t key, StageStats* stats,
    const core::ExperimentEnv& env,
    const std::function<nn::GraphContext()>& compute) {
  return GetOrCompute<std::shared_ptr<const nn::GraphContext>>(
      map, key, stats, [&] {
        std::shared_ptr<const nn::GraphContext> result;
        const auto try_load = [&](bool faulted) {
          std::string payload;
          if (!(faulted ? LoadStage(stage, key, &payload)
                        : store_.Load(stage, key, &payload))) {
            return false;
          }
          BinaryReader r(payload);
          auto ctx = std::make_shared<nn::GraphContext>();
          if (core::LoadGraphContext(&r, env.dataset.data.features, ctx.get()) &&
              r.AtEnd()) {
            NoteDiskHit(stats);
            result = std::move(ctx);
            return true;
          }
          return false;
        };
        ClaimedCompute(stage, key, try_load, [&] {
          auto ctx = std::make_shared<const nn::GraphContext>(compute());
          if (store_.enabled()) {
            BinaryWriter w;
            core::SaveGraphStructure(&w, ctx->graph);
            StoreStage(stage, key, w.data());
          }
          result = std::move(ctx);
        });
        return result;
      });
}

std::shared_ptr<const nn::GraphContext> RunCache::DpContext(
    const core::ExperimentEnv& env, const core::MethodConfig& config) {
  return ContextStage(&dp_contexts_, "dp", DpKey(env, config), &stats_.dp_context,
                      env, [&] { return core::MakeDpContext(env, config); });
}

std::shared_ptr<const nn::GraphContext> RunCache::PpContext(
    nn::ModelKind kind, const core::ExperimentEnv& env,
    const core::MethodConfig& config) {
  return ContextStage(
      &pp_contexts_, "pp", PpKey(kind, env, config), &stats_.pp_context, env, [&] {
        // Work on a private clone: concurrent stages must not share a
        // mutable model, and the clone's predictions are identical.
        const std::unique_ptr<nn::GnnModel> model = VanillaModel(kind, env, config);
        return core::MakePpContext(env, model.get(), config.pp_gamma,
                                   config.seed ^ 0x99ULL);
      });
}

std::shared_ptr<const core::FrOutput> RunCache::FrWeights(
    nn::ModelKind kind, const core::ExperimentEnv& env,
    const core::MethodConfig& config) {
  const uint64_t key = FrKey(kind, env, config);
  return GetOrCompute<std::shared_ptr<const core::FrOutput>>(
      &fr_outputs_, key, &stats_.fr, [&] {
        std::shared_ptr<const core::FrOutput> result;
        const auto try_load = [&](bool faulted) {
          std::string payload;
          if (!(faulted ? LoadStage("fr", key, &payload)
                        : store_.Load("fr", key, &payload))) {
            return false;
          }
          BinaryReader r(payload);
          auto fr = std::make_shared<core::FrOutput>();
          if (core::LoadFrOutput(&r, fr.get()) && r.AtEnd()) {
            NoteDiskHit(&stats_.fr);
            result = std::move(fr);
            return true;
          }
          return false;
        };
        ClaimedCompute("fr", key, try_load, [&] {
          const std::unique_ptr<nn::GnnModel> model =
              VanillaModel(kind, env, config);
          auto fr = std::make_shared<const core::FrOutput>(
              core::ComputeFr(model.get(), env, config));
          if (store_.enabled()) {
            BinaryWriter w;
            core::SaveFrOutput(&w, *fr);
            StoreStage("fr", key, w.data());
          }
          result = std::move(fr);
        });
        return result;
      });
}

std::shared_ptr<const core::MethodRun> RunCache::CellRun(
    const Scenario& cell, const core::ExperimentEnv& env, bool* cache_hit) {
  const uint64_t key = CellKey(cell, env.env_seed);
  return GetOrCompute<std::shared_ptr<const core::MethodRun>>(
      &cells_, key, &stats_.cell,
      [&] {
        if (fault::ShouldFail(fault::kStageCell)) {
          throw RecoverableError("injected stage.cell fault", /*transient=*/true);
        }
        const core::MethodConfig config = cell.ResolvedConfig();
        std::shared_ptr<const core::MethodRun> result;
        const auto try_load = [&](bool faulted) {
          std::string payload;
          if (!(faulted ? LoadStage("cell", key, &payload)
                        : store_.Load("cell", key, &payload))) {
            return false;
          }
          BinaryReader r(payload);
          auto run = std::make_shared<core::MethodRun>();
          if (core::LoadMethodRun(&r, cell.model, env, config.seed, run.get()) &&
              r.AtEnd()) {
            NoteDiskHit(&stats_.cell);
            result = std::move(run);
            return true;
          }
          return false;
        };
        ClaimedCompute("cell", key, try_load, [&] {
          auto run = std::make_shared<core::MethodRun>(
              core::RunMethod(cell.method, cell.model, env, config, this));
          if (store_.enabled()) {
            BinaryWriter w;
            core::SaveMethodRun(&w, *run);
            StoreStage("cell", key, w.data());
          }
          result = std::move(run);
        });
        return result;
      },
      cache_hit);
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ppfr::runner
