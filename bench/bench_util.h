#ifndef PPFR_BENCH_BENCH_UTIL_H_
#define PPFR_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the paper-reproduction bench binaries. Each binary
// regenerates one table or figure of "Unraveling Privacy Risks of Individual
// Fairness in Graph Neural Networks" (ICDE'24) as a thin front-end over the
// scenario runner (src/runner/): it resolves its registered sweep, runs it
// through the shared stage cache, renders its bespoke table, and emits the
// uniform BENCH_<name>.json artifact.

#include <sched.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json_writer.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/experiment.h"
#include "core/methods.h"
#include "la/backend.h"
#include "runner/runner.h"

namespace ppfr::bench {

// Exit-code contract of the runner-driven binaries. 0 = clean completion;
// 2 = usage error (the long-standing repo convention); 4 = a signal stopped
// the sweep, so a driver script knows to re-run it against the same
// --run_cache_dir without parsing output.
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 4;  // SIGTERM/SIGINT stopped the sweep

// Flags every runner-driven bench binary understands.
inline std::vector<std::string> CommonFlagNames() {
  return {"datasets",   "models",     "epochs",         "seed",
          "seeds",      "env_seed",   "la_backend",     "la_threads",
          "runner_threads", "json_dir", "run_cache_dir", "stable_artifact"};
}

// Directory for the disk-persisted run cache: --run_cache_dir= beats the
// PPFR_RUN_CACHE_DIR environment variable; absent (the default) keeps the
// cache in-memory only. A bare `--run_cache_dir` (which Flags stores as
// "true") or an empty value is a malformed request for caching, not a
// request for a directory named "true" — die naming the flag.
inline std::string RunCacheDir(const Flags& flags) {
  if (flags.Has("run_cache_dir")) {
    const std::string dir = flags.GetString("run_cache_dir", "");
    if (dir.empty() || dir == "true") {
      std::fprintf(stderr,
                   "--run_cache_dir wants a directory path "
                   "(e.g. --run_cache_dir=.ppfr-cache)\n");
      std::exit(2);
    }
    return dir;
  }
  const char* env = std::getenv("PPFR_RUN_CACHE_DIR");
  return env == nullptr ? std::string{} : std::string(env);
}

// Rejects flags outside `known` with a usage listing and exits — a typo
// like --epoch=10 must fail loudly, never silently run the defaults.
inline void RejectUnknownFlags(const Flags& flags,
                               const std::vector<std::string>& known) {
  const std::vector<std::string> unknown = flags.UnknownFlags(known);
  if (unknown.empty()) return;
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  std::fprintf(stderr, "known flags:");
  for (const std::string& name : known) std::fprintf(stderr, " --%s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// RejectUnknownFlags against the runner-driven bench flag set plus the
// binary's `extra` names.
inline void RequireKnownFlags(const Flags& flags,
                              const std::vector<std::string>& extra) {
  std::vector<std::string> known = CommonFlagNames();
  known.insert(known.end(), extra.begin(), extra.end());
  RejectUnknownFlags(flags, known);
}

// Installs SIGTERM/SIGINT handlers for a graceful sweep stop and returns the
// flag to hand to RunnerOptions::stop: the first signal sets the flag (cells
// not yet started are skipped, in-flight cells finish, the binary writes an
// `interrupted:true` artifact and exits kExitInterrupted);
// SA_RESETHAND restores the default disposition, so a SECOND signal kills
// the process immediately — an operator double-Ctrl-C must never be argued
// with. Async-signal-safe: the handler only stores to a lock-free atomic.
inline const std::atomic<bool>* InstallGracefulStop() {
  static std::atomic<bool> stop{false};
  static_assert(std::atomic<bool>::is_always_lock_free);
  struct sigaction action = {};
  action.sa_handler = [](int) { stop.store(true, std::memory_order_relaxed); };
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  return &stop;
}

inline runner::RunnerOptions RunnerOptionsFromFlags(const Flags& flags) {
  runner::RunnerOptions opts;
  opts.threads = flags.GetInt("runner_threads", 1);
  opts.env_seed = flags.GetUint64("env_seed", core::kDefaultEnvSeed);
  return opts;
}

// Fails fast, BEFORE any training runs, if a location the run will write to
// is not writable: --json_dir (artifact) and the run cache dir, whether set
// by --run_cache_dir or PPFR_RUN_CACHE_DIR. Probes by creating the directory
// and atomically writing + removing a scratch file — the same code path the
// real writes take. A sweep that trains for an hour and then dies on its
// artifact write, or that persists nothing it trained, is the failure mode
// this removes: a requested-but-unusable cache must not silently degrade.
inline void PreflightOutputPaths(const Flags& flags) {
  const auto probe_dir = [](const std::string& dir, const std::string& what) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // ok if it already exists
    const std::string probe =
        (std::filesystem::path(dir) / ".ppfr_preflight").string();
    std::string error;
    if (!WriteFileAtomic(probe, "probe", &error)) {
      std::fprintf(stderr, "%s '%s' is not writable: %s\n", what.c_str(),
                   dir.c_str(), error.c_str());
      std::exit(kExitUsage);
    }
    std::remove(probe.c_str());
  };
  probe_dir(flags.GetString("json_dir", "."), "--json_dir");
  const std::string cache_dir = RunCacheDir(flags);
  if (!cache_dir.empty()) {
    probe_dir(cache_dir, flags.Has("run_cache_dir") ? "--run_cache_dir"
                                                    : "PPFR_RUN_CACHE_DIR");
  }
}

// Writes the "host" object of a kernel-bench artifact, the fingerprint
// perfbench records too: usable cores (the affinity mask, what `nproc`
// prints), the CPU's widest vector ISA, what this binary was compiled for,
// and the active backend.
inline void WriteHost(JsonWriter* json) {
  cpu_set_t set;
  const int cores = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const char* isa = __builtin_cpu_supports("avx512f") ? "AVX-512"
                    : __builtin_cpu_supports("avx2")  ? "AVX2"
                                                      : "scalar";
#else
  const char* isa = "non-x86";  // the probe builtins are x86-only
#endif
#if defined(__AVX512F__)
  const char* build_isa = "AVX-512";
#elif defined(__AVX2__) && defined(__FMA__)
  const char* build_isa = "AVX2+FMA";
#else
  const char* build_isa = "baseline";
#endif
  const la::Backend& backend = la::ActiveBackend();
  json->Key("host").BeginObject();
  json->Key("cores").Int(cores);
  json->Key("isa").String(isa);
  json->Key("build_isa").String(build_isa);
  json->Key("build_type").String(PPFR_BUILD_TYPE);
  json->Key("backend").String(backend.name());
  json->Key("la_threads").Int(backend.num_threads());
  json->EndObject();
}

// Resolves the binary's registered sweep, applying --datasets/--models
// narrowing and the --epochs/--seed cell overrides.
inline runner::Sweep BenchSweep(const Flags& flags, const std::string& name) {
  std::optional<runner::Sweep> sweep = runner::RegistrySweep(name);
  if (!sweep) {
    std::fprintf(stderr, "bench bug: sweep '%s' is not registered\n", name.c_str());
    std::exit(2);
  }
  runner::ApplyFilters(flags, &*sweep);
  runner::ApplyCommonOverrides(flags, &*sweep);
  return *std::move(sweep);
}

// Writes the sweep artifact into --json_dir (default "."), honouring
// --stable_artifact (zeroes the run-varying fields — timings, cache
// counters — so repeated runs with identical results produce identical
// files). Every bench that writes an artifact must come through here so the
// flag is never silently ignored.
inline std::string EmitArtifact(const Flags& flags,
                                const runner::SweepResult& result) {
  runner::ArtifactOptions artifact;
  artifact.stable = flags.GetBool("stable_artifact", false);
  const std::string path =
      runner::WriteArtifact(result, flags.GetString("json_dir", "."), artifact);
  std::printf("wrote %s\n", path.c_str());
  // The bespoke paper tables address cells by (dataset, model, method) and
  // therefore show the FIRST seed instance; under a seed list, say so and
  // point at the aggregated numbers instead of letting a single-seed slice
  // read as the paper's averaged table.
  if (result.seeds.size() > 1) {
    std::printf(
        "note: %zu seed instances per cell ran; any per-cell table above may "
        "show the first seed only — cross-seed mean/stddev per metric are in "
        "the artifact's 'aggregates'\n",
        result.seeds.size());
  }
  return path;
}

// Runs the sweep and emits its artifact (see EmitArtifact). Output paths are
// preflighted first so an unwritable --json_dir or cache dir dies before any
// cell trains.
inline runner::SweepResult RunAndEmit(const Flags& flags, const runner::Sweep& sweep,
                                      runner::RunCache* cache) {
  PreflightOutputPaths(flags);
  runner::SweepResult result =
      runner::RunSweep(sweep, cache, RunnerOptionsFromFlags(flags));
  EmitArtifact(flags, result);
  return result;
}

// Distinct values of a Scenario field in first-appearance cell order.
template <typename T>
std::vector<T> DistinctInOrder(const runner::SweepResult& result,
                               T runner::Scenario::* field) {
  std::vector<T> out;
  for (const runner::CellResult& cell : result.cells) {
    const T value = cell.scenario.*field;
    if (std::find(out.begin(), out.end(), value) == out.end()) out.push_back(value);
  }
  return out;
}

inline std::vector<data::DatasetId> DatasetsIn(const runner::SweepResult& result) {
  return DistinctInOrder(result, &runner::Scenario::dataset);
}

inline std::vector<nn::ModelKind> ModelsIn(const runner::SweepResult& result) {
  return DistinctInOrder(result, &runner::Scenario::model);
}

// FindCell that dies instead of returning nullptr (bench tables address
// cells their own sweep definition guarantees).
inline const runner::CellResult& CellOrDie(const runner::SweepResult& result,
                                           data::DatasetId dataset,
                                           nn::ModelKind model,
                                           core::MethodKind method) {
  const runner::CellResult* cell = runner::FindCell(result, dataset, model, method);
  if (cell == nullptr) {
    std::fprintf(stderr, "sweep '%s' is missing cell (%s, %s, %s)\n",
                 result.name.c_str(), data::DatasetName(dataset).c_str(),
                 nn::ModelKindName(model).c_str(), core::MethodName(method).c_str());
    std::exit(2);
  }
  return *cell;
}

}  // namespace ppfr::bench

#endif  // PPFR_BENCH_BENCH_UTIL_H_
