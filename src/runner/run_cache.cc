#include "runner/run_cache.h"

#include <bit>
#include <chrono>
#include <cmath>

#include "common/serialize.h"
#include "core/snapshot.h"

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
  // Names the training step's exp: stages trained with libm's exp (before
  // la::Exp and GAT's fixed attention sequence) are keyed without it, so
  // they miss once instead of mixing. Every model kind takes it, because
  // log-softmax moves GCN and SAGE too.
  h->Mix("exp:la-exp");
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
      .Mix(config.fr.influence.cg_block);
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
    // (a data-dependent stage failure — everything else still
    // PPFR_CHECK-aborts). It is memoised like a value: the same inputs fail
    // the same way, so every waiter and every later requester of the key
    // rethrows it from get() and handles it as its own cell's failure. A
    // failed compute therefore never wedges a key behind a broken promise.
    try {
      promise.set_value(compute());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  // A waiter only ever blocks on a key some RUNNING thread claimed above, so
  // a fixed-size scheduler cannot deadlock here.
  return future.get();
}

RunCache::RunCache(std::string persist_dir) : store_(std::move(persist_dir)) {}

void RunCache::NoteDiskHit(StageStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats->disk_hits;
}

template <typename T>
std::shared_ptr<const T> RunCache::LoadOrCompute(
    const char* stage, uint64_t key, StageStats* stats,
    const std::function<bool(BinaryReader*, T*)>& decode,
    const std::function<std::shared_ptr<const T>()>& compute,
    const std::function<void(BinaryWriter*, const T&)>& encode) {
  if (store_.enabled()) {
    std::string payload;
    if (store_.Load(stage, key, &payload)) {
      BinaryReader r(payload);
      auto value = std::make_shared<T>();
      if (decode(&r, value.get()) && r.AtEnd()) {
        NoteDiskHit(stats);
        return value;
      }
      // Architecture/shape drift inside a checksum-valid entry (decode()
      // checks every length against the env): fall through to the
      // recompute, which overwrites it.
    }
  }
  std::shared_ptr<const T> value = compute();
  if (!store_.enabled()) return value;
  BinaryWriter w;
  encode(&w, *value);
  store_.Store(stage, key, w.data());
  return value;
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
        return LoadOrCompute<VanillaStage>(
            "vanilla", key, &stats_.vanilla,
            [&](BinaryReader* r, VanillaStage* stage) {
              stage->model = core::LoadModel(r, kind, env, config.seed);
              return stage->model != nullptr && core::LoadEval(r, &stage->eval);
            },
            [&] {
              auto stage = std::make_shared<VanillaStage>();
              stage->model =
                  core::TrainFresh(kind, env, env.ctx, config, /*lambda=*/0.0);
              stage->eval = core::EvaluateModel(stage->model.get(), env.Eval());
              return stage;
            },
            [](BinaryWriter* w, const VanillaStage& stage) {
              core::SaveModel(w, stage.model.get());
              core::SaveEval(w, stage.eval);
            });
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
        return LoadOrCompute<nn::GraphContext>(
            stage, key, stats,
            [&](BinaryReader* r, nn::GraphContext* ctx) {
              return core::LoadGraphContext(r, env.dataset.data.features, ctx);
            },
            [&] { return std::make_shared<const nn::GraphContext>(compute()); },
            [](BinaryWriter* w, const nn::GraphContext& ctx) {
              core::SaveGraphStructure(w, ctx.graph);
            });
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
        return LoadOrCompute<core::FrOutput>(
            "fr", key, &stats_.fr,
            [&](BinaryReader* r, core::FrOutput* fr) {
              const size_t n = env.train_nodes().size();
              return core::LoadFrOutput(r, fr) && fr->w.size() == n &&
                     fr->sample_weights.size() == n &&
                     fr->bias_influence.size() == n && fr->util_influence.size() == n;
            },
            [&] {
              const std::unique_ptr<nn::GnnModel> model =
                  VanillaModel(kind, env, config);
              return std::make_shared<const core::FrOutput>(
                  core::ComputeFr(model.get(), env, config));
            },
            [](BinaryWriter* w, const core::FrOutput& fr) { core::SaveFrOutput(w, fr); });
      });
}

std::shared_ptr<const core::MethodRun> RunCache::CellRun(
    const Scenario& cell, const core::ExperimentEnv& env, bool* cache_hit) {
  const uint64_t key = CellKey(cell, env.env_seed);
  return GetOrCompute<std::shared_ptr<const core::MethodRun>>(
      &cells_, key, &stats_.cell,
      [&] {
        const core::MethodConfig config = cell.ResolvedConfig();
        return LoadOrCompute<core::MethodRun>(
            "cell", key, &stats_.cell,
            [&](BinaryReader* r, core::MethodRun* run) {
              const bool fr = cell.method == core::MethodKind::kDpFr ||
                              cell.method == core::MethodKind::kPpFr;
              return core::LoadMethodRun(r, cell.model, env, config.seed, run) &&
                     run->fr_weights.size() == (fr ? env.train_nodes().size() : 0);
            },
            [&] {
              return std::make_shared<const core::MethodRun>(
                  core::RunMethod(cell.method, cell.model, env, config, this));
            },
            [](BinaryWriter* w, const core::MethodRun& run) {
              core::SaveMethodRun(w, run);
            });
      },
      cache_hit);
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ppfr::runner
