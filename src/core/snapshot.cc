#include "core/snapshot.h"

#include "nn/param_io.h"
#include "privacy/distance.h"

namespace ppfr::core {

void SaveEval(BinaryWriter* w, const EvalResult& eval) {
  w->WriteDouble(eval.accuracy);
  w->WriteDouble(eval.bias);
  w->WriteDouble(eval.risk_auc);
  w->WriteDouble(eval.delta_d);
  w->WriteDoubleVec(eval.attack.auc_per_distance);
  w->WriteDouble(eval.attack.mean_auc);
  w->WriteDouble(eval.attack.cluster_precision);
  w->WriteDouble(eval.attack.cluster_recall);
  w->WriteDouble(eval.attack.cluster_f1);
  w->WriteDouble(eval.attack.cluster_accuracy);
}

bool LoadEval(BinaryReader* r, EvalResult* eval) {
  eval->accuracy = r->ReadDouble();
  eval->bias = r->ReadDouble();
  eval->risk_auc = r->ReadDouble();
  eval->delta_d = r->ReadDouble();
  eval->attack.auc_per_distance = r->ReadDoubleVec();
  eval->attack.mean_auc = r->ReadDouble();
  eval->attack.cluster_precision = r->ReadDouble();
  eval->attack.cluster_recall = r->ReadDouble();
  eval->attack.cluster_f1 = r->ReadDouble();
  eval->attack.cluster_accuracy = r->ReadDouble();
  return r->ok() &&
         eval->attack.auc_per_distance.size() == privacy::AllDistanceKinds().size();
}

void SaveFrOutput(BinaryWriter* w, const FrOutput& fr) {
  w->WriteDoubleVec(fr.w);
  w->WriteDoubleVec(fr.sample_weights);
  w->WriteDoubleVec(fr.bias_influence);
  w->WriteDoubleVec(fr.util_influence);
  w->WriteDouble(fr.objective);
  w->WriteI32(fr.cg_total_rhs);
  w->WriteI32(fr.cg_unconverged);
}

bool LoadFrOutput(BinaryReader* r, FrOutput* fr) {
  fr->w = r->ReadDoubleVec();
  fr->sample_weights = r->ReadDoubleVec();
  fr->bias_influence = r->ReadDoubleVec();
  fr->util_influence = r->ReadDoubleVec();
  fr->objective = r->ReadDouble();
  fr->cg_total_rhs = r->ReadI32();
  fr->cg_unconverged = r->ReadI32();
  return r->ok();
}

void SaveGraphStructure(BinaryWriter* w, const graph::Graph& g) {
  w->WriteI32(g.num_nodes());
  w->WriteU64(static_cast<uint64_t>(g.num_edges()));
  for (const graph::Edge& e : g.Edges()) {
    w->WriteI32(e.u);
    w->WriteI32(e.v);
  }
}

bool LoadGraphContext(BinaryReader* r, const la::Matrix& features,
                      nn::GraphContext* ctx) {
  const int num_nodes = r->ReadI32();
  const uint64_t num_edges = r->ReadU64();
  if (!r->ok() || num_nodes < 0 || num_nodes != features.rows()) return false;
  // Each edge is 8 payload bytes; a count beyond the remaining stream is
  // corruption, and bounding it BEFORE reserve() keeps a garbage prefix
  // from triggering a pathological allocation (same rule as ReadDoubleVec).
  if (num_edges > r->remaining() / 8) return false;
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<size_t>(num_edges));
  for (uint64_t i = 0; i < num_edges; ++i) {
    graph::Edge e{r->ReadI32(), r->ReadI32()};
    if (!r->ok()) return false;
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) return false;
    edges.push_back(e);
  }
  *ctx = nn::GraphContext::Build(graph::Graph::FromEdges(num_nodes, edges),
                                 features);
  return true;
}

void SaveModel(BinaryWriter* w, nn::GnnModel* model) {
  nn::SaveParams(w, model->Params());
}

std::unique_ptr<nn::GnnModel> LoadModel(BinaryReader* r, nn::ModelKind kind,
                                        const ExperimentEnv& env, uint64_t seed) {
  std::unique_ptr<nn::GnnModel> model = nn::MakeModel(
      kind, env.ctx.feature_dim(), env.dataset.data.num_classes, seed);
  if (!nn::LoadParams(r, model->Params())) return nullptr;
  return model;
}

void SaveMethodRun(BinaryWriter* w, const MethodRun& run) {
  SaveModel(w, run.model.get());
  SaveEval(w, run.eval);
  w->WriteDoubleVec(run.fr_weights);
  w->WriteI32(run.cg_total_rhs);
  w->WriteI32(run.cg_unconverged);
}

bool LoadMethodRun(BinaryReader* r, nn::ModelKind kind, const ExperimentEnv& env,
                   uint64_t seed, MethodRun* run) {
  run->model = LoadModel(r, kind, env, seed);
  if (run->model == nullptr) return false;
  if (!LoadEval(r, &run->eval)) return false;
  run->fr_weights = r->ReadDoubleVec();
  run->cg_total_rhs = r->ReadI32();
  run->cg_unconverged = r->ReadI32();
  return r->ok();
}

}  // namespace ppfr::core
