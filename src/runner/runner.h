#ifndef PPFR_RUNNER_RUNNER_H_
#define PPFR_RUNNER_RUNNER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner/run_cache.h"
#include "runner/scenario.h"

namespace ppfr::runner {

struct RunnerOptions {
  // Concurrent cells. 1 = serial on the calling thread with the process-wide
  // backend (the historical bench behaviour); > 1 fans independent cells
  // across worker threads, each pinned to a private single-threaded backend
  // of the active kind (la::ThreadLocalBackendGuard), which keeps results
  // bitwise identical to the serial order. <= 0 picks the active backend's
  // thread count.
  int threads = 1;
  uint64_t env_seed = core::kDefaultEnvSeed;
  bool verbose = true;  // per-cell progress lines on stderr
  // Graceful-interrupt flag (set from a SIGTERM/SIGINT handler). When it
  // reads true, cells not yet started are marked `skipped` while in-flight
  // cells finish normally, and the result comes back with interrupted=true.
  // Re-running the sweep against the same --run_cache_dir recomputes only
  // what no finished stage left on disk. null = never stop.
  const std::atomic<bool>* stop = nullptr;
};

struct CellResult {
  Scenario scenario;
  std::shared_ptr<const core::MethodRun> run;
  core::EvalResult vanilla_eval;  // vanilla baseline of the same (dataset, model)
  core::DeltaMetrics delta;       // vs vanilla_eval; zeros for vanilla cells
  uint64_t seed = 0;       // resolved method seed this instance ran with
  double seconds = 0.0;
  bool cache_hit = false;  // the whole cell came out of the run cache
  // A stage of the cell raised ppfr::RecoverableError (common/recoverable.h:
  // a non-finite training loss, a block-CG collapse); `run` holds the NaN
  // placeholder (no model), `error` the reason. Failed cells are excluded
  // from AggregateCells and emitted with status "failed" in the artifact.
  bool failed = false;
  std::string error;
  // Not computed because a graceful interrupt (RunnerOptions::stop) landed
  // before this cell started; carries the NaN placeholder, excluded from
  // aggregates, status "skipped".
  bool skipped = false;
  // Bench-specific scalar metrics merged into the JSON artifact (e.g.
  // table2's Pearson r); keyed by metric name.
  std::map<std::string, double> extra;
};

struct SweepResult {
  std::string name;
  std::string title;
  // One entry per scheduled run. With a seed list the sweep is expanded
  // seed-major: cells[s * base + i] is base cell i under seeds[s], so each
  // seed block preserves the sweep's vanilla-first cell order.
  std::vector<CellResult> cells;
  std::vector<uint64_t> seeds;  // expansion list; empty = single-seed run
  double wall_seconds = 0.0;
  // The process's peak resident set (la::ProcessPeakRssBytes) when the sweep
  // ended: everything the process held up to then, earlier sweeps included.
  int64_t process_peak_rss_bytes = 0;
  int threads = 1;
  uint64_t env_seed = 0;
  RunCache::Stats cache_stats;      // cache state delta over this sweep
  int64_t trainer_invocations = 0;  // nn::Train calls during this sweep
  int64_t failed_cells = 0;         // cells that ended in `failed` state
  // A graceful interrupt landed mid-sweep; `skipped_cells` instances were
  // never started. Both stay REAL in stable artifacts — an interrupted run
  // legitimately differs from a completed one.
  bool interrupted = false;
  int64_t skipped_cells = 0;
};

// Mean / stddev / per-seed values of one metric across the seed instances of
// one logical cell. stddev is the sample standard deviation (n-1), 0 for a
// single value; non-finite values propagate into the mean so the artifact's
// *_finite markers flag them.
struct MetricAggregate {
  std::vector<double> values;  // in SweepResult::seeds order
  double mean = 0.0;
  double stddev = 0.0;
};

struct CellAggregate {
  Scenario scenario;            // representative (first seed instance)
  std::vector<uint64_t> seeds;  // seeds contributing, aligned with values
  // Keyed by metric name: the four eval metrics, the four deltas, and any
  // bench-attached extras present on every instance.
  std::map<std::string, MetricAggregate> metrics;
};

// Groups the result's cells by (dataset, model, method, label) in first-
// appearance order and aggregates every metric across seeds. Failed cells
// are skipped entirely — their NaN placeholders would poison every mean —
// so a group's `seeds` lists only the instances that actually finished.
// Called by WriteArtifact at emission time so bench-attached `extra` metrics
// are included; exposed for tests and bespoke bench tables.
std::vector<CellAggregate> AggregateCells(const SweepResult& result);

// Runs every cell of the sweep through the cache, serially or across the
// cell scheduler (see RunnerOptions::threads). Results are returned in cell
// order regardless of completion order.
SweepResult RunSweep(const Sweep& sweep, RunCache* cache,
                     const RunnerOptions& options = {});

// Resolves a requested scheduler width against the work-item count:
// <= 0 means the active backend's thread count, clamped to [1, n].
int ResolveCellThreads(int threads, size_t n);

// The cell scheduler's worker loop, reusable by benches that fan their own
// per-cell work (e.g. table2's influence correlations): runs fn(i) for every
// i in [0, n). threads (after ResolveCellThreads) == 1 runs inline on the
// caller with the process-wide backend; otherwise `threads` workers (the
// caller participates) drain an index queue, each pinned to a private
// single-threaded backend of the active kind — the determinism discipline
// that keeps results bitwise identical to the serial order. fn must only
// touch per-index state (or internally synchronised services like RunCache).
void ParallelCells(size_t n, int threads, const std::function<void(size_t)>& fn);

struct ArtifactOptions {
  // Stable mode zeroes the fields that legitimately vary between otherwise
  // identical runs — wall/cell seconds, the process peak RSS, cache
  // hit/miss/disk counters, trainer invocations, per-cell cache_hit and the
  // runner and backend thread counts (results are thread-count invariant by
  // contract) — so two runs of the same sweep (e.g. cold vs warm --run_cache_dir,
  // killed-then-re-run vs uninterrupted, serial vs scheduled) produce
  // bitwise-identical files iff their numeric results are bitwise identical.
  // The backend name stays: different backends give different bits.
  // Degradation state (failed/skipped cells, interrupted) stays REAL — a
  // degraded artifact must never read as clean. The schema is unchanged.
  bool stable = false;
};

// Writes the uniform BENCH_<name>.json artifact (schema_version 7; the
// version history is in EXPERIMENTS.md, "Artifacts"); returns its path.
std::string WriteArtifact(const SweepResult& result, const std::string& dir = ".",
                          const ArtifactOptions& options = {});

// First cell matching (dataset, model, method); nullptr when absent.
const CellResult* FindCell(const SweepResult& result, data::DatasetId dataset,
                           nn::ModelKind model, core::MethodKind method);
// First cell with the given display label; nullptr when absent.
const CellResult* FindCellByLabel(const SweepResult& result,
                                  const std::string& label);

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_RUNNER_H_
