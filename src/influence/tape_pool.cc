#include "influence/tape_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "influence/param_vector.h"

namespace ppfr::influence {

TapePool::TapePool(const Builder& builder, std::vector<ag::Parameter*> params,
                   int num_lanes)
    : builder_(builder), params_(std::move(params)), num_lanes_(num_lanes) {
  PPFR_CHECK_GE(num_lanes, 1);
  // One forward pass, built with the ACTIVE backend: its values are exactly
  // what a plain single-tape forward would produce, and after construction
  // the tape is only ever read (until a Rewarm replays it).
  tape_.set_accumulate_param_grads(false);
  output_ = builder_(tape_);
  PPFR_CHECK(output_.tape == &tape_);
  if (num_lanes > 1) pool_ = std::make_unique<ThreadPool>(num_lanes);
}

void TapePool::Rewarm() {
  tape_.BeginReplay();
  output_ = builder_(tape_);
  PPFR_CHECK(output_.tape == &tape_);
  // Close the replay here: the seeded backwards that follow run on worker
  // threads, which must never race on the tape's replay state.
  tape_.EndReplay();
}

void TapePool::RunLane(int seed_begin, int seed_end, const SeedFn& seed_fn,
                       std::vector<std::vector<double>>* grads) {
  // Worker-private state: a gradient arena for the shared tape, and a
  // single-threaded backend of the active kind so the shared ParallelBackend
  // pool is never entered concurrently.
  const std::unique_ptr<la::Backend> backend =
      la::MakeBackend(la::ActiveBackendKind(), /*num_threads=*/1);
  la::ThreadLocalBackendGuard backend_guard(backend.get());
  ag::GradArena arena(&tape_);
  ag::ArenaScope arena_scope(&arena);
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<double> values;
  for (int k = seed_begin; k < seed_end; ++k) {
    rows.clear();
    cols.clear();
    values.clear();
    seed_fn(k, &rows, &cols, &values);
    tape_.BackwardWithSparseSeed(output_, rows, cols, values);
    tape_.FlattenLeafGrads(params_, &(*grads)[static_cast<size_t>(k)]);
    tape_.ZeroDirtyNodeGrads();
  }
}

std::vector<std::vector<double>> TapePool::PerSeedGrads(int num_seeds,
                                                        const SeedFn& seed_fn) {
  PPFR_CHECK_GE(num_seeds, 0);
  std::vector<std::vector<double>> grads(static_cast<size_t>(num_seeds));
  if (num_seeds == 0) return grads;
  const int lanes = std::min<int>(num_lanes_, num_seeds);
  if (lanes == 1 || pool_ == nullptr) {
    RunLane(0, num_seeds, seed_fn, &grads);
    return grads;
  }
  // Contiguous, near-even seed ranges; each range is driven by exactly one
  // worker with its own arena, so no backward state is ever shared.
  pool_->ParallelFor(0, lanes, 1, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int begin = static_cast<int>(l * num_seeds / lanes);
      const int end = static_cast<int>((l + 1) * num_seeds / lanes);
      RunLane(begin, end, seed_fn, &grads);
    }
  });
  return grads;
}

GradLanePool::GradLanePool(const LaneFactory& factory, int num_lanes) {
  PPFR_CHECK_GE(num_lanes, 1);
  lanes_.reserve(static_cast<size_t>(num_lanes));
  for (int l = 0; l < num_lanes; ++l) lanes_.push_back(factory());
  if (num_lanes > 1) pool_ = std::make_unique<ThreadPool>(num_lanes);
}

void GradLanePool::RunLane(int lane, int begin, int end,
                           const std::vector<std::vector<double>>& points,
                           std::vector<std::vector<double>>* grads) {
  // Same worker-private discipline as TapePool::RunLane: each lane replays
  // its own graph under a single-threaded backend of the active kind.
  const std::unique_ptr<la::Backend> backend =
      la::MakeBackend(la::ActiveBackendKind(), /*num_threads=*/1);
  la::ThreadLocalBackendGuard backend_guard(backend.get());
  GradLane& state = lanes_[static_cast<size_t>(lane)];
  for (int i = begin; i < end; ++i) {
    SetValues(state.params, points[static_cast<size_t>(i)]);
    (*grads)[static_cast<size_t>(i)] = state.graph->Grad();
  }
}

std::vector<std::vector<double>> GradLanePool::GradsAt(
    const std::vector<std::vector<double>>& points) {
  const int n = static_cast<int>(points.size());
  std::vector<std::vector<double>> grads(points.size());
  if (n == 0) return grads;
  const int lanes = std::min<int>(num_lanes(), n);
  if (lanes == 1 || pool_ == nullptr) {
    RunLane(0, 0, n, points, &grads);
    return grads;
  }
  pool_->ParallelFor(0, lanes, 1, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int begin = static_cast<int>(l * n / lanes);
      const int end = static_cast<int>((l + 1) * n / lanes);
      RunLane(static_cast<int>(l), begin, end, points, &grads);
    }
  });
  return grads;
}

TapePool* ReplayCache::GetOrCreateTapePool(
    const std::string& key, const std::function<std::unique_ptr<TapePool>()>& make) {
  std::unique_ptr<TapePool>& slot = tape_pools_[key];
  if (slot == nullptr) {
    slot = make();
  } else {
    // Warm hit: refresh the recorded forward at the parameters' current
    // values. Replay recycles every node buffer, so this is allocation-free.
    slot->Rewarm();
  }
  return slot.get();
}

GradLanePool* ReplayCache::GetOrCreateGradLanePool(
    const std::string& key,
    const std::function<std::unique_ptr<GradLanePool>()>& make) {
  std::unique_ptr<GradLanePool>& slot = grad_lane_pools_[key];
  if (slot == nullptr) slot = make();
  return slot.get();
}

ReusableLossGraph::ReusableLossGraph(Builder builder,
                                     std::vector<ag::Parameter*> params)
    : builder_(std::move(builder)), params_(std::move(params)) {
  tape_.set_accumulate_param_grads(false);
}

std::vector<double> ReusableLossGraph::Grad() {
  if (recorded_) tape_.BeginReplay();
  ag::Var loss = builder_(tape_);
  PPFR_CHECK(loss.tape == &tape_);
  tape_.Backward(loss);
  recorded_ = true;
  std::vector<double> out;
  tape_.FlattenLeafGrads(params_, &out);
  return out;
}

}  // namespace ppfr::influence
