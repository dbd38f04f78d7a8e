#include "runner/runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "common/json_writer.h"
#include "common/recoverable.h"
#include "common/stopwatch.h"
#include "la/backend.h"
#include "la/matrix.h"
#include "nn/trainer.h"

namespace ppfr::runner {
namespace {

RunCache::StageStats Delta(const RunCache::StageStats& after,
                           const RunCache::StageStats& before) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.disk_hits - before.disk_hits};
}

RunCache::Stats Delta(const RunCache::Stats& after, const RunCache::Stats& before) {
  RunCache::Stats d;
  d.env = Delta(after.env, before.env);
  d.vanilla = Delta(after.vanilla, before.vanilla);
  d.dp_context = Delta(after.dp_context, before.dp_context);
  d.pp_context = Delta(after.pp_context, before.pp_context);
  d.fr = Delta(after.fr, before.fr);
  d.cell = Delta(after.cell, before.cell);
  return d;
}

void EmitStage(JsonWriter* w, const char* name, const RunCache::StageStats& s) {
  w->Key(name).BeginObject();
  w->Key("hits").Int(s.hits);
  w->Key("misses").Int(s.misses);
  w->Key("disk_hits").Int(s.disk_hits);
  w->EndObject();
}

// Single source of truth for the uniform per-cell metric set — both the
// aggregation pass and the extras/"is this name reserved" guard derive from
// this table, so adding a metric here is the whole change (the artifact's
// aggregate key set is golden-pinned in bench/golden/artifact_schema.txt).
struct UniformMetric {
  const char* name;
  double (*get)(const CellResult&);
};
constexpr UniformMetric kUniformMetrics[] = {
    {"accuracy", [](const CellResult& c) { return c.run->eval.accuracy; }},
    {"bias", [](const CellResult& c) { return c.run->eval.bias; }},
    {"risk_auc", [](const CellResult& c) { return c.run->eval.risk_auc; }},
    {"delta_d", [](const CellResult& c) { return c.run->eval.delta_d; }},
    {"d_acc", [](const CellResult& c) { return c.delta.d_acc; }},
    {"d_bias", [](const CellResult& c) { return c.delta.d_bias; }},
    {"d_risk", [](const CellResult& c) { return c.delta.d_risk; }},
    {"combined", [](const CellResult& c) { return c.delta.combined; }},
};

bool IsUniformMetric(const std::string& name) {
  for (const UniformMetric& metric : kUniformMetrics) {
    if (name == metric.name) return true;
  }
  return false;
}

// Gives a cell that produced no numbers (failed, or skipped by an interrupt)
// NaN metrics and a model-less run. Benches dereference cell.run->eval
// freely; the artifact's *_finite markers flag the NaNs, and AggregateCells
// skips the cell entirely.
void SetNanPlaceholder(CellResult* out) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto run = std::make_shared<core::MethodRun>();
  run->eval.accuracy = run->eval.bias = run->eval.risk_auc = run->eval.delta_d = nan;
  out->vanilla_eval = run->eval;
  out->run = std::move(run);
  out->delta = {nan, nan, nan, nan};
}

}  // namespace

int ResolveCellThreads(int threads, size_t n) {
  if (threads <= 0) threads = la::ActiveBackend().num_threads();
  return std::max(1, std::min<int>(threads, static_cast<int>(n)));
}

void ParallelCells(size_t n, int threads, const std::function<void(size_t)>& fn) {
  threads = ResolveCellThreads(threads, n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A shared index queue drained by `threads` workers (the caller
  // participates). Every worker — caller included — installs a private
  // single-threaded backend of the active kind, so the shared
  // ParallelBackend pool is never entered concurrently and, since every
  // kernel is thread-count-invariant, each index's numbers are bitwise
  // identical to a serial run.
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    const std::unique_ptr<la::Backend> backend =
        la::MakeBackend(la::ActiveBackendKind(), /*num_threads=*/1);
    la::ThreadLocalBackendGuard guard(backend.get());
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= n) break;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

SweepResult RunSweep(const Sweep& sweep, RunCache* cache,
                     const RunnerOptions& options) {
  SweepResult result;
  result.name = sweep.name;
  result.title = sweep.title;
  result.env_seed = options.env_seed;
  result.seeds = sweep.seeds;

  const std::vector<Scenario> cells = ExpandCells(sweep);
  result.cells.resize(cells.size());
  const int threads = ResolveCellThreads(options.threads, cells.size());
  result.threads = threads;

  const RunCache::Stats stats_before = cache->stats();
  const int64_t trains_before = nn::TrainInvocationCount();
  Stopwatch wall;

  const auto run_cell = [&](size_t i) {
    const Scenario& cell = cells[i];
    CellResult& out = result.cells[i];
    out.scenario = cell;
    out.seed = cell.ResolvedConfig().seed;
    // Graceful interrupt: cells not yet started are skipped (NaN
    // placeholder) while the cells already in flight below finish and
    // persist their stages normally, so no completed work is lost to the
    // signal.
    if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) {
      out.skipped = true;
      SetNanPlaceholder(&out);
      return;
    }
    Stopwatch watch;
    // A RecoverableError from ANY stage (training, contexts, FR solve) marks
    // this one cell failed and lets the grid finish. Anything else still
    // terminates the process: per-cell isolation is for data-dependent
    // failures, not bugs.
    try {
      // Environments are heavyweight and shared read-only by every cell of
      // the same dataset; fetching inside the cell (instead of prebuilding
      // them serially) lets parallel workers overlap env construction with
      // cell work — the cache's once-latch already builds each one exactly
      // once.
      const std::shared_ptr<const core::ExperimentEnv> env_ptr =
          cache->Env(cell.dataset, options.env_seed);
      const core::ExperimentEnv& env = *env_ptr;
      out.run = cache->CellRun(cell, env, &out.cache_hit);
      if (cell.method != core::MethodKind::kVanilla) {
        const core::EvalResult vanilla =
            cache->VanillaEval(cell.model, env, cell.ResolvedConfig());
        out.vanilla_eval = vanilla;
        out.delta = core::ComputeDeltas(out.run->eval, vanilla);
      } else {
        out.vanilla_eval = out.run->eval;
        out.delta = {};
      }
      if (cell.method == core::MethodKind::kDpFr ||
          cell.method == core::MethodKind::kPpFr) {
        // Surface the FR solve's block-CG convergence debt instead of
        // silently using a partial solve (0 = every RHS met tolerance).
        out.extra["cg_unconverged"] = static_cast<double>(out.run->cg_unconverged);
      }
    } catch (const RecoverableError& e) {
      out.failed = true;
      out.error = e.what();
      SetNanPlaceholder(&out);
    }
    out.seconds = watch.ElapsedSeconds();
    if (options.verbose) {
      if (out.failed) {
        std::fprintf(stderr, "  [%s/%s] %s FAILED after %.1fs: %s\n",
                     data::DatasetName(cell.dataset).c_str(),
                     nn::ModelKindName(cell.model).c_str(),
                     cell.DisplayLabel().c_str(), out.seconds, out.error.c_str());
      } else {
        std::fprintf(stderr, "  [%s/%s] %s done in %.1fs%s\n",
                     data::DatasetName(cell.dataset).c_str(),
                     nn::ModelKindName(cell.model).c_str(),
                     cell.DisplayLabel().c_str(), out.seconds,
                     out.cache_hit ? " (cached)" : "");
      }
    }
  };

  // Stage collisions between concurrent cells (two cells needing one
  // vanilla model) are serialised by the cache's once-latch.
  ParallelCells(cells.size(), threads, run_cell);

  result.wall_seconds = wall.ElapsedSeconds();
  result.process_peak_rss_bytes = la::ProcessPeakRssBytes();
  result.cache_stats = Delta(cache->stats(), stats_before);
  result.trainer_invocations = nn::TrainInvocationCount() - trains_before;
  for (const CellResult& cell : result.cells) {
    if (cell.failed) ++result.failed_cells;
    if (cell.skipped) ++result.skipped_cells;
  }
  result.interrupted =
      options.stop != nullptr && options.stop->load(std::memory_order_relaxed);
  if (result.interrupted && options.verbose) {
    std::fprintf(stderr,
                 "  sweep interrupted: %lld of %zu cells skipped (in-flight "
                 "cells finished)\n",
                 static_cast<long long>(result.skipped_cells),
                 result.cells.size());
  }
  return result;
}

std::vector<CellAggregate> AggregateCells(const SweepResult& result) {
  std::vector<CellAggregate> groups;
  for (const CellResult& cell : result.cells) {
    // A failed/skipped cell's placeholder metrics are NaN; including them
    // would poison every mean. Its seed is omitted from the group's `seeds`
    // too, so values stay aligned — aggregates always cover exactly the
    // instances that actually finished.
    if (cell.failed || cell.skipped) continue;
    CellAggregate* group = nullptr;
    for (CellAggregate& g : groups) {
      if (g.scenario.dataset == cell.scenario.dataset &&
          g.scenario.model == cell.scenario.model &&
          g.scenario.method == cell.scenario.method &&
          g.scenario.DisplayLabel() == cell.scenario.DisplayLabel()) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({cell.scenario, {}, {}});
      group = &groups.back();
    }
    group->seeds.push_back(cell.seed);
    for (const UniformMetric& metric : kUniformMetrics) {
      group->metrics[metric.name].values.push_back(metric.get(cell));
    }
    for (const auto& [name, value] : cell.extra) {
      // An extra named like a uniform metric would append into that
      // metric's values and silently misalign every aggregate after it.
      if (IsUniformMetric(name)) {
        std::fprintf(stderr,
                     "runner: dropping extra metric '%s' from aggregation "
                     "(shadows a uniform metric name)\n",
                     name.c_str());
        continue;
      }
      group->metrics[name].values.push_back(value);
    }
  }
  for (CellAggregate& g : groups) {
    for (auto& [name, agg] : g.metrics) {
      double sum = 0.0;
      for (double v : agg.values) sum += v;
      const double n = static_cast<double>(agg.values.size());
      agg.mean = sum / n;
      if (agg.values.size() > 1) {
        double sq = 0.0;
        for (double v : agg.values) sq += (v - agg.mean) * (v - agg.mean);
        agg.stddev = std::sqrt(sq / (n - 1.0));
      }
    }
  }
  return groups;
}

std::string WriteArtifact(const SweepResult& result, const std::string& dir,
                          const ArtifactOptions& options) {
  const bool stable = options.stable;
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(7);
  w.Key("sweep").String(result.name);
  w.Key("title").String(result.title);
  w.Key("backend").String(la::ActiveBackend().name());
  w.Key("backend_threads").Int(stable ? 0 : la::ActiveBackend().num_threads());
  w.Key("runner_threads").Int(stable ? 0 : result.threads);
  w.Key("env_seed").Uint(result.env_seed);
  w.Key("seeds").BeginArray();
  for (uint64_t seed : result.seeds) w.Uint(seed);
  w.EndArray();
  w.Key("stable").Bool(stable);
  w.Key("wall_seconds").Number(stable ? 0.0 : result.wall_seconds);
  w.Key("process_peak_rss_bytes").Int(stable ? 0 : result.process_peak_rss_bytes);
  w.Key("trainer_invocations").Int(stable ? 0 : result.trainer_invocations);
  // failed_cells and the interrupt state stay REAL in stable mode: a failed
  // or skipped cell already differs numerically (NaN metrics), and hiding
  // the counts would make a degraded artifact read as clean.
  w.Key("failed_cells").Int(result.failed_cells);
  w.Key("interrupted").Bool(result.interrupted);
  w.Key("skipped_cells").Int(result.skipped_cells);

  w.Key("cache").BeginObject();
  const RunCache::Stats cache_stats = stable ? RunCache::Stats{} : result.cache_stats;
  EmitStage(&w, "env", cache_stats.env);
  EmitStage(&w, "vanilla", cache_stats.vanilla);
  EmitStage(&w, "dp_context", cache_stats.dp_context);
  EmitStage(&w, "pp_context", cache_stats.pp_context);
  EmitStage(&w, "fr", cache_stats.fr);
  EmitStage(&w, "cell", cache_stats.cell);
  w.EndObject();

  w.Key("cells").BeginArray();
  for (const CellResult& cell : result.cells) {
    w.BeginObject();
    w.Key("dataset").String(data::DatasetName(cell.scenario.dataset));
    w.Key("model").String(nn::ModelKindName(cell.scenario.model));
    w.Key("method").String(core::MethodName(cell.scenario.method));
    w.Key("label").String(cell.scenario.DisplayLabel());
    w.Key("seed").Uint(cell.seed);
    w.Key("seconds").Number(stable ? 0.0 : cell.seconds);
    w.Key("cache_hit").Bool(stable ? false : cell.cache_hit);
    w.Key("status").String(cell.failed ? "failed" : cell.skipped ? "skipped" : "ok");
    w.Key("error").String(cell.error);
    w.Key("eval").BeginObject();
    JsonMetric(&w, "accuracy", cell.run->eval.accuracy);
    JsonMetric(&w, "bias", cell.run->eval.bias);
    JsonMetric(&w, "risk_auc", cell.run->eval.risk_auc);
    JsonMetric(&w, "delta_d", cell.run->eval.delta_d);
    w.EndObject();
    w.Key("delta").BeginObject();
    JsonMetric(&w, "d_acc", cell.delta.d_acc);
    JsonMetric(&w, "d_bias", cell.delta.d_bias);
    JsonMetric(&w, "d_risk", cell.delta.d_risk);
    JsonMetric(&w, "combined", cell.delta.combined);
    w.EndObject();
    if (!cell.extra.empty()) {
      w.Key("extra").BeginObject();
      for (const auto& [key, value] : cell.extra) {
        JsonMetric(&w, key, value);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();

  // Per-metric cross-seed aggregates (degenerate single-value groups for a
  // single-seed run, so the schema does not depend on the seed list).
  w.Key("aggregates").BeginArray();
  for (const CellAggregate& group : AggregateCells(result)) {
    w.BeginObject();
    w.Key("dataset").String(data::DatasetName(group.scenario.dataset));
    w.Key("model").String(nn::ModelKindName(group.scenario.model));
    w.Key("method").String(core::MethodName(group.scenario.method));
    w.Key("label").String(group.scenario.DisplayLabel());
    w.Key("seeds").BeginArray();
    for (uint64_t seed : group.seeds) w.Uint(seed);
    w.EndArray();
    // Bench-attached extras aggregate under "extra" (schema-exempt, like the
    // per-cell extras) so the uniform "metrics" key set stays golden-pinned.
    const auto emit_metric = [&w](const std::string& name, const MetricAggregate& agg) {
      w.Key(name).BeginObject();
      JsonMetric(&w, "mean", agg.mean);
      JsonMetric(&w, "stddev", agg.stddev);
      w.Key("values").BeginArray();
      for (double v : agg.values) w.Number(v);
      w.EndArray();
      w.EndObject();
    };
    // An extra attached to only some seed instances of a group cannot be
    // aligned with "seeds"; dropping it loudly beats emitting statistics
    // over a silently wrong sample.
    const auto extra_complete = [&](const std::string& name,
                                    const MetricAggregate& agg) {
      if (agg.values.size() == group.seeds.size()) return true;
      std::fprintf(stderr,
                   "runner: dropping extra metric '%s' from aggregate '%s' "
                   "(%zu values for %zu seed instances)\n",
                   name.c_str(), group.scenario.DisplayLabel().c_str(),
                   agg.values.size(), group.seeds.size());
      return false;
    };
    bool has_extras = false;
    w.Key("metrics").BeginObject();
    for (const auto& [name, agg] : group.metrics) {
      if (IsUniformMetric(name)) {
        emit_metric(name, agg);
      } else {
        has_extras |= extra_complete(name, agg);
      }
    }
    w.EndObject();
    if (has_extras) {
      w.Key("extra").BeginObject();
      for (const auto& [name, agg] : group.metrics) {
        if (!IsUniformMetric(name) && agg.values.size() == group.seeds.size()) {
          emit_metric(name, agg);
        }
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string path = dir + "/BENCH_" + result.name + ".json";
  WriteFileOrDie(path, w.ToString());
  return path;
}

const CellResult* FindCell(const SweepResult& result, data::DatasetId dataset,
                           nn::ModelKind model, core::MethodKind method) {
  for (const CellResult& cell : result.cells) {
    if (cell.scenario.dataset == dataset && cell.scenario.model == model &&
        cell.scenario.method == method) {
      return &cell;
    }
  }
  return nullptr;
}

const CellResult* FindCellByLabel(const SweepResult& result,
                                  const std::string& label) {
  for (const CellResult& cell : result.cells) {
    if (cell.scenario.DisplayLabel() == label) return &cell;
  }
  return nullptr;
}

}  // namespace ppfr::runner
