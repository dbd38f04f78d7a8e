#ifndef PPFR_CORE_SNAPSHOT_H_
#define PPFR_CORE_SNAPSHOT_H_

#include "common/serialize.h"
#include "core/methods.h"

namespace ppfr::core {

// Snapshot/restore hooks for the stage-level run cache's disk persistence
// (runner::CacheStore): each expensive pipeline stage serialises to a flat
// binary payload and restores bitwise-identically. Loaders return false on
// any structural mismatch or truncation — the cache treats that as a miss
// and recomputes; they never crash on corrupt bytes. Vector lengths that
// depend on the environment (FR weights and influences: one per training
// node) are the caller's to check; runner::RunCache's decoders do.

// ---- Evaluation scorecards ----
void SaveEval(BinaryWriter* w, const EvalResult& eval);
bool LoadEval(BinaryReader* r, EvalResult* eval);

// ---- FR solve results ----
void SaveFrOutput(BinaryWriter* w, const FrOutput& fr);
bool LoadFrOutput(BinaryReader* r, FrOutput* fr);

// ---- Perturbed graph contexts (DP / PP stages) ----
// Only the edited graph structure is persisted (canonical edge list); the
// feature matrix is the environment's own and the propagation operators are
// deterministic functions of (graph, features), so the restore path rebuilds
// via GraphContext::Build and lands on bitwise-identical operators.
void SaveGraphStructure(BinaryWriter* w, const graph::Graph& g);
bool LoadGraphContext(BinaryReader* r, const la::Matrix& features,
                      nn::GraphContext* ctx);

// ---- Trained models ----
// A fresh architecture-matched model is constructed (MakeModel — the random
// init is fully overwritten) and its parameters loaded.
void SaveModel(BinaryWriter* w, nn::GnnModel* model);
std::unique_ptr<nn::GnnModel> LoadModel(BinaryReader* r, nn::ModelKind kind,
                                        const ExperimentEnv& env, uint64_t seed);

// ---- Whole method runs (the cell stage) ----
void SaveMethodRun(BinaryWriter* w, const MethodRun& run);
bool LoadMethodRun(BinaryReader* r, nn::ModelKind kind, const ExperimentEnv& env,
                   uint64_t seed, MethodRun* run);

}  // namespace ppfr::core

#endif  // PPFR_CORE_SNAPSHOT_H_
