#ifndef PPFR_RUNNER_SCENARIO_H_
#define PPFR_RUNNER_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/experiment.h"
#include "core/methods.h"

namespace ppfr::runner {

// Declarative description of one experiment cell: which (dataset, model,
// method) to run, plus config overrides layered on top of
// core::DefaultMethodConfig(dataset, model). A named sweep (table4, fig5,
// the ablation, ...) is a list of these — data, not a copy-pasted main().
struct ConfigOverrides {
  std::optional<int> epochs;            // vanilla-phase epochs
  std::optional<uint64_t> seed;         // method seed (model init, DP/PP noise)
  std::optional<double> lambda;         // fairness-regulariser weight
  std::optional<double> dp_epsilon;     // edge-DP budget
  std::optional<double> pp_gamma;       // PP heterophilic edge ratio
  std::optional<int> finetune_epochs;   // exact fine-tune epochs (beats scale)
  std::optional<bool> fr_zero_sum;      // QCLP zero-sum constraint

  // Layers the set fields onto `cfg`.
  void Apply(core::MethodConfig* cfg) const;
};

struct Scenario {
  data::DatasetId dataset = data::DatasetId::kCoraLike;
  nn::ModelKind model = nn::ModelKind::kGcn;
  core::MethodKind method = core::MethodKind::kVanilla;
  ConfigOverrides overrides;
  // Distinguishes variants of the same (dataset, model, method) triple in a
  // sweep (e.g. the ablation's γ/epoch grid); empty means the method name.
  std::string label;

  std::string DisplayLabel() const;
  // The fully resolved config this cell runs with.
  core::MethodConfig ResolvedConfig() const;
};

struct Sweep {
  std::string name;   // artifact is written as BENCH_<name>.json
  std::string title;  // one-line human description
  std::vector<Scenario> cells;
  // Seed list for multi-seed aggregation: when non-empty, RunSweep schedules
  // every cell once per seed (seed-major, overriding overrides.seed) and the
  // artifact reports per-seed values plus mean/stddev per metric. Empty (the
  // default for most registry sweeps) runs each cell once with its resolved
  // config seed. --seeds=0,1,2 overrides any per-scenario default.
  std::vector<uint64_t> seeds;
};

// The sweep's fully expanded (cell × seed) schedule, seed-major:
// expanded[s * cells.size() + i] is base cell i with overrides.seed =
// seeds[s] (an empty seed list schedules the cells as-is). This one function
// defines the grid order of SweepResult::cells and of the artifact, so each
// seed block keeps the sweep's vanilla-first cell order.
std::vector<Scenario> ExpandCells(const Sweep& sweep);

// ---- Exact-match name parsing -------------------------------------------
//
// All parsers match full names (case-sensitive, as printed by DatasetName /
// ModelKindName / MethodName). The *OrDie variants print the valid names to
// stderr and exit(2) on an unknown token — a typo must never silently fall
// back to defaults.

std::optional<data::DatasetId> ParseDataset(const std::string& name);
std::optional<nn::ModelKind> ParseModel(const std::string& name);
std::optional<core::MethodKind> ParseMethod(const std::string& name);

data::DatasetId ParseDatasetOrDie(const std::string& name);
nn::ModelKind ParseModelOrDie(const std::string& name);
core::MethodKind ParseMethodOrDie(const std::string& name);

// Comma-separated lists; an empty string yields `defaults`.
std::vector<data::DatasetId> ParseDatasetListOrDie(
    const std::string& csv, std::vector<data::DatasetId> defaults);
std::vector<nn::ModelKind> ParseModelListOrDie(const std::string& csv,
                                               std::vector<nn::ModelKind> defaults);
std::vector<core::MethodKind> ParseMethodListOrDie(
    const std::string& csv, std::vector<core::MethodKind> defaults);

// Splits a string on `sep`, dropping empty tokens.
std::vector<std::string> SplitList(const std::string& csv, char sep = ',');

// Comma-separated seed list, parsed strictly (ParseUint64Strict): any
// malformed or duplicate token dies with the offending value. Empty input
// yields the empty list (= single-seed behaviour).
std::vector<uint64_t> ParseSeedListOrDie(const std::string& csv);

// ---- Registry ------------------------------------------------------------

// Named sweeps reproducing the paper's tables and figures (see
// EXPERIMENTS.md for the mapping). Known names: table2, table3, table4,
// table5 (alias weak-homophily), fig4, fig5, fig6 (alias ablation), fig7,
// smoke, smoke-multiseed (the smoke grid with a 3-seed default list — the
// paper's tables average repeated runs, and this is the cheap registry
// entry that exercises that path end-to-end). Returns nullopt for unknown
// names.
std::optional<Sweep> RegistrySweep(const std::string& name);

// All registered sweep names, for usage listings.
std::vector<std::string> RegistrySweepNames();

// Builds the sweep a binary should run from its command line:
//   --scenarios=<name>[,<name>...]   merge registered sweeps
//   --grid=<datasets>;<models>;<methods>   ad-hoc full cross product, each
//       component a comma-list ("" or "*" = the component's default grid)
// Both die loudly on unknown names. Without either flag, returns the
// registered sweep `default_name`. After resolution, --datasets= / --models=
// narrow the cell list (exact matching), keeping cell order.
Sweep SweepFromFlags(const Flags& flags, const std::string& default_name);

// Narrows the sweep's cell list with --datasets= / --models= (exact names,
// die-on-unknown); exits if nothing is left.
void ApplyFilters(const Flags& flags, Sweep* sweep);

// Applies the common cell-level flag overrides (--epochs=, --seed=) to every
// cell of the sweep, and --seeds= to the sweep's seed list. --seed and
// --seeds are mutually exclusive (one pins a single method seed, the other
// expands the sweep over several).
void ApplyCommonOverrides(const Flags& flags, Sweep* sweep);

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_SCENARIO_H_
