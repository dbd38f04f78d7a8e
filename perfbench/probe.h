#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

// Measurement plumbing shared by the perfbench workloads. Every number is
// taken from outside the library: a span is the wall-clock interval around a
// call into one layer's public functions, and a counter is a delta of one of
// the library's public counters (la::MatrixAllocCount, nn::TrainInvocationCount,
// InfluenceCalculator::block_stats, ...). Nothing under src/ knows it is being
// measured.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-layer totals of one traced repetition: span seconds and counters,
// keyed by the metric names BENCHMARK.json lists under "per_layer".
class Trace {
 public:
  void Add(const std::string& name, double value) { values_[name] += value; }
  void Set(const std::string& name, double value) { values_[name] = value; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

// Adds the wall time of its scope to `name`; a no-op when tracing is off
// (trace == nullptr), so the untraced path pays one branch per span.
class Span {
 public:
  Span(Trace* trace, const char* name)
      : trace_(trace), name_(name), start_(trace != nullptr ? Now() : 0.0) {}
  ~Span() {
    if (trace_ != nullptr) trace_->Add(name_, Now() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  double start_;
};

// Everything one workload run measured. Each metric keeps every sample (one
// per repetition, or per set-up round for setup_s); the report prints the
// median and the sample count.
struct RunReport {
  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the detail line

  void Sample(const std::string& name, const std::string& unit, double value) {
    Metric& m = metrics[name];
    m.unit = unit;
    m.samples.push_back(value);
  }
  // One checked operation: counts toward `attempted`, and toward `failed`
  // with `what` recorded when !ok.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  // Folds one traced repetition into per-layer samples; the unit comes from
  // the name's suffix (_s seconds, _mb megabytes, _frac fraction, else count).
  void SampleTrace(const Trace& trace);
};

struct WorkloadOptions {
  uint64_t seed = 0;
  double seconds = 25.0;
  bool trace = false;
};

RunReport RunPaperTable4(const WorkloadOptions& options);
RunReport RunScaleInfluence(const WorkloadOptions& options);
RunReport RunScaleBuild(const WorkloadOptions& options);

// Median of a non-empty sample list.
double Median(std::vector<double> values);

inline constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
