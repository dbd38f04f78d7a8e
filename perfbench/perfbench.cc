// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload paper-table4|scale-influence|scale-build
//             --seed N --seconds S --trace 0|1
//
// Runs ONE workload in this process (VmHWM only ever grows within a
// process, so workloads never share one), with the la backend at its
// default kind, one kernel thread per usable core (one for paper-table4) and
// a single runner thread. --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that records per-layer spans and counters around the library calls.
//
// Output: a human-readable metric table, then a `perfbench-detail {...}`
// line (host fingerprint, per-metric samples and medians, failed checks) and
// last a `perfbench-result {...}` line holding correct/attempted/failed and
// the median of every metric. perfbench/run.py builds this binary and turns
// that last line into the benchmark's result line.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "la/backend.h"
#include "probe.h"

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void RunReport::SampleTrace(const Trace& trace) {
  for (const auto& [name, value] : trace.values()) {
    const auto ends_with = [&name](const char* suffix) {
      const size_t len = std::strlen(suffix);
      return name.size() >= len && name.compare(name.size() - len, len, suffix) == 0;
    };
    const char* unit = "count";
    if (ends_with("_s")) unit = "s";
    if (ends_with("_mb")) unit = "MB";
    if (ends_with("_frac")) unit = "fraction";
    if (name.rfind("nn.train_s.", 0) == 0) unit = "s";
    Sample(name, unit, value);
  }
}

namespace {

// Usable cores: the affinity mask (what `nproc` prints), which is what a
// container actually gets even when hardware_concurrency reports the host.
int UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HostJson(int cores) {
  __builtin_cpu_init();
  const char* isa = __builtin_cpu_supports("avx512f") ? "AVX-512"
                    : __builtin_cpu_supports("avx2")  ? "AVX2"
                                                      : "scalar";
  const ppfr::la::Backend& backend = ppfr::la::ActiveBackend();
  return std::string("{\"cores\": ") + std::to_string(cores) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa\": " + Quote(isa) + ", \"build_type\": " +
         Quote(PERFBENCH_BUILD_TYPE) + ", \"backend\": " + Quote(backend.name()) +
         ", \"la_threads\": " + std::to_string(backend.num_threads()) +
         ", \"simd_active\": " + (backend.simd_active() ? "true" : "false") +
         ", \"runner_threads\": 1}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-table4|scale-influence|scale-build --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  WorkloadOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in --name value pairs");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  // One malloc arena for every thread. With glibc's per-thread arenas the
  // memory a pool worker frees is not reused by the others, so VmHWM
  // depended on thread timing: the same scale-influence run peaked anywhere
  // between 1.17 and 1.47 GB. With one arena it repeats.
  mallopt(M_ARENA_MAX, 1);

  // One kernel thread per usable core, except for paper-table4: its kernels
  // run on graphs of a few thousand nodes, and on a 4-core AVX-512 VM its
  // sweep took 44.3 s with four threads and 44.4 s with one. Extra threads
  // there only add fork-join points where a thread descheduled by another
  // process stalls the sweep.
  const int cores = UsableCores();
  ppfr::la::SetActiveBackend(ppfr::la::ActiveBackendKind(),
                             workload == "paper-table4" ? 1 : cores);

  RunReport report;
  if (workload == "paper-table4") {
    report = RunPaperTable4(options);
  } else if (workload == "scale-influence") {
    report = RunScaleInfluence(options);
  } else if (workload == "scale-build") {
    report = RunScaleBuild(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  std::printf("%-32s %14s %-9s %s\n", "metric", "median", "unit", "runs");
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-32s %14.6g %-9s %zu\n", name.c_str(), Median(metric.samples),
                metric.unit.c_str(), metric.samples.size());
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  std::string detail = "{\"workload\": " + Quote(workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"host\": " + HostJson(cores) + ", \"metrics\": {";
  std::string result = "{\"correct\": " +
                       std::string(report.failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    const std::string sep = first ? "" : ", ";
    first = false;
    std::string samples;
    for (double v : metric.samples) samples += (samples.empty() ? "" : ", ") + Num(v);
    const std::string median = Num(Median(metric.samples));
    detail += sep + Quote(name) + ": {\"median\": " + median +
              ", \"unit\": " + Quote(metric.unit) +
              ", \"runs\": " + std::to_string(metric.samples.size()) +
              ", \"samples\": [" + samples + "]}";
    result += sep + Quote(name) + ": {\"value\": " + median +
              ", \"unit\": " + Quote(metric.unit) + "}";
  }
  detail += "}, \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    detail += (i == 0 ? "" : ", ") + Quote(report.failures[i]);
  }
  detail += "]}";
  result += "}}";
  std::printf("perfbench-detail %s\n", detail.c_str());
  std::printf("perfbench-result %s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}
