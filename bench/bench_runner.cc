// Generic scenario-runner front-end: runs any registered sweep (or several,
// sharing one stage cache so e.g. table4 + fig5 never retrain a model the
// other already produced) or an ad-hoc grid, and emits the uniform
// BENCH_<name>.json artifact.
//
//   ./bench_runner --scenarios=table4,fig5 [--epochs=150]
//   ./bench_runner --grid='CoraLike,CiteseerLike;GCN,GAT;Vanilla,PPFR'
//   ./bench_runner --scenarios=smoke --epochs=8 --runner_threads=2
//
// --grid takes three ';'-separated comma-lists (datasets;models;methods);
// an empty or '*' component means the default grid for that axis. All names
// are matched exactly and die with the valid list on a typo.
//
// SIGTERM/SIGINT on a running sweep stops gracefully: in-flight cells
// finish, the artifact is written with interrupted:true, and the exit code
// is 4. A stopped or killed sweep is recovered by re-running the same
// command against the same --run_cache_dir: every stage the first run
// persisted loads from disk, and the rest compute.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace ppfr;
  Flags flags(argc, argv);
  bench::RequireKnownFlags(flags, {"scenarios", "grid"});
  la::ConfigureBackendFromFlags(flags);

  runner::Sweep sweep = runner::SweepFromFlags(flags, /*default_name=*/"smoke");
  runner::ApplyCommonOverrides(flags, &sweep);

  bench::PreflightOutputPaths(flags);
  runner::RunnerOptions opts = bench::RunnerOptionsFromFlags(flags);
  opts.stop = bench::InstallGracefulStop();

  std::printf("sweep %s — %s (%zu cells)\n\n", sweep.name.c_str(),
              sweep.title.c_str(), runner::ExpandCells(sweep).size());

  runner::RunCache cache(bench::RunCacheDir(flags));
  const runner::SweepResult result = runner::RunSweep(sweep, &cache, opts);
  bench::EmitArtifact(flags, result);

  TablePrinter table({"Dataset", "Model", "Cell", "Seed", "Acc%", "Bias",
                      "Risk AUC", "dAcc%", "dBias%", "dRisk%", "D", "sec"});
  for (const runner::CellResult& cell : result.cells) {
    if (cell.failed || cell.skipped) {
      table.AddRow({data::DatasetName(cell.scenario.dataset),
                    nn::ModelKindName(cell.scenario.model),
                    cell.scenario.DisplayLabel(), std::to_string(cell.seed),
                    cell.failed ? "FAILED" : "SKIPPED", "-", "-", "-", "-", "-",
                    "-", TablePrinter::Num(cell.seconds, 1)});
      continue;
    }
    const bool vanilla = cell.scenario.method == core::MethodKind::kVanilla;
    table.AddRow({data::DatasetName(cell.scenario.dataset),
                  nn::ModelKindName(cell.scenario.model), cell.scenario.DisplayLabel(),
                  std::to_string(cell.seed),
                  TablePrinter::Num(100.0 * cell.run->eval.accuracy),
                  TablePrinter::Num(cell.run->eval.bias, 4),
                  TablePrinter::Num(cell.run->eval.risk_auc, 4),
                  vanilla ? "-" : TablePrinter::Pct(cell.delta.d_acc),
                  vanilla ? "-" : TablePrinter::Pct(cell.delta.d_bias),
                  vanilla ? "-" : TablePrinter::Pct(cell.delta.d_risk),
                  vanilla ? "-" : TablePrinter::Num(cell.delta.combined, 3),
                  TablePrinter::Num(cell.seconds, 1)});
  }
  table.Print();

  if (result.failed_cells > 0) {
    std::printf("\n%lld cell(s) FAILED",
                static_cast<long long>(result.failed_cells));
    for (const runner::CellResult& cell : result.cells) {
      if (!cell.failed) continue;
      std::printf("\n  FAILED %s seed %llu: %s", cell.scenario.DisplayLabel().c_str(),
                  static_cast<unsigned long long>(cell.seed), cell.error.c_str());
    }
    std::printf("\n");
  }

  // Cross-seed mean ± stddev per logical cell (the numbers the paper's
  // tables actually report) whenever the sweep was seed-expanded.
  if (result.seeds.size() > 1) {
    std::printf("\naggregates over %zu seeds (mean +/- stddev):\n",
                result.seeds.size());
    TablePrinter agg_table(
        {"Dataset", "Model", "Cell", "Acc%", "+/-", "Bias", "+/-", "Risk AUC", "+/-"});
    for (const runner::CellAggregate& g : runner::AggregateCells(result)) {
      agg_table.AddRow(
          {data::DatasetName(g.scenario.dataset), nn::ModelKindName(g.scenario.model),
           g.scenario.DisplayLabel(),
           TablePrinter::Num(100.0 * g.metrics.at("accuracy").mean),
           TablePrinter::Num(100.0 * g.metrics.at("accuracy").stddev),
           TablePrinter::Num(g.metrics.at("bias").mean, 4),
           TablePrinter::Num(g.metrics.at("bias").stddev, 4),
           TablePrinter::Num(g.metrics.at("risk_auc").mean, 4),
           TablePrinter::Num(g.metrics.at("risk_auc").stddev, 4)});
    }
    agg_table.Print();
  }

  const runner::RunCache::Stats stats = cache.stats();
  std::printf(
      "\n%zu cells in %.1fs (%d runner threads) — vanilla trains %lld "
      "(+%lld from disk), stage hits: vanilla %lld, dp %lld, pp %lld, "
      "fr %lld, cell %lld, disk loads %lld\n",
      result.cells.size(), result.wall_seconds, result.threads,
      static_cast<long long>(stats.vanilla.misses - stats.vanilla.disk_hits),
      static_cast<long long>(stats.vanilla.disk_hits),
      static_cast<long long>(stats.vanilla.hits),
      static_cast<long long>(stats.dp_context.hits),
      static_cast<long long>(stats.pp_context.hits),
      static_cast<long long>(stats.fr.hits),
      static_cast<long long>(stats.cell.hits),
      static_cast<long long>(stats.vanilla.disk_hits + stats.dp_context.disk_hits +
                             stats.pp_context.disk_hits + stats.fr.disk_hits +
                             stats.cell.disk_hits));

  if (result.interrupted) {
    std::printf("sweep interrupted: %lld cell(s) skipped — re-run against the "
                "same --run_cache_dir to finish\n",
                static_cast<long long>(result.skipped_cells));
    return bench::kExitInterrupted;
  }
  return 0;
}
