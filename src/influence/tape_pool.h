#ifndef PPFR_INFLUENCE_TAPE_POOL_H_
#define PPFR_INFLUENCE_TAPE_POOL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "common/thread_pool.h"
#include "la/backend.h"

namespace ppfr::influence {

// Parallel per-seed backward over ONE shared forward tape.
//
// Per-training-node loss gradients are embarrassingly parallel across seeds,
// but the autograd tape's backward state is inherently single-consumer, and
// the process-wide ParallelBackend pool must not be entered concurrently.
// TapePool resolves both without duplicating the forward pass: it builds a
// single forward tape (which stays structurally immutable — seeds are
// injected as sparse gradients on the shared output node, never as tail
// nodes), then hands each worker thread a private ag::GradArena for its
// backward bookkeeping plus a private single-threaded backend of the active
// kind. Each seed runs a reachability-pruned sparse-seeded backward, the
// lane-local leaf gradients are flattened, and only the touched gradient
// rows are re-zeroed.
//
// Determinism: which lane computes a seed never affects the result — every
// lane back-propagates through the same forward values, and every kernel is
// deterministic across thread counts — so the output equals the serial
// single-lane path bit for bit for any lane count and either backend.
class TapePool {
 public:
  // Builds the shared forward pass on `tape` and returns the node the
  // per-seed gradients are injected into (e.g. the log-softmax output).
  using Builder = std::function<ag::Var(ag::Tape&)>;
  // Fills seed k's sparse gradient on the shared output node: parallel
  // arrays of (row, col, value) entries. Called with cleared vectors.
  using SeedFn = std::function<void(int seed, std::vector<int>* rows,
                                    std::vector<int>* cols, std::vector<double>* values)>;

  TapePool(const Builder& builder, std::vector<ag::Parameter*> params, int num_lanes);

  // Flat ∇θ(loss_k) for every seed k in [0, num_seeds).
  std::vector<std::vector<double>> PerSeedGrads(int num_seeds, const SeedFn& seed_fn);

  // Replays the shared forward with the parameters' CURRENT values, reusing
  // the recorded tape storage and the worker pool (no per-node matrix
  // allocations). The values produced are bitwise what a fresh construction
  // would compute — the replay runs on the active backend, like the original
  // forward. Only valid with the same parameter set the pool was built over
  // (leaf identity is CHECKed by the tape).
  void Rewarm();

  int num_lanes() const { return num_lanes_; }

 private:
  void RunLane(int seed_begin, int seed_end, const SeedFn& seed_fn,
               std::vector<std::vector<double>>* grads);

  Builder builder_;  // retained for Rewarm
  std::vector<ag::Parameter*> params_;
  ag::Tape tape_;
  ag::Var output_;
  int num_lanes_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // only when num_lanes > 1
};

// A loss graph recorded once and replayed for every subsequent gradient
// evaluation — the tape arena behind TrainingLossGrad / HessianVectorProduct
// / the CG solve, which previously rebuilt a fresh tape (~2 per CG iteration)
// for every evaluation. Gradients are read from the tape-local leaf buffers,
// so Parameter::grad is never clobbered by an influence solve.
class ReusableLossGraph {
 public:
  // `builder` must produce the same expression structure on every call (the
  // tape CHECKs this); parameter VALUES may change between calls.
  using Builder = std::function<ag::Var(ag::Tape&)>;

  ReusableLossGraph(Builder builder, std::vector<ag::Parameter*> params);

  // Flat ∇θ(loss) at the current parameter values.
  std::vector<double> Grad();

 private:
  Builder builder_;
  std::vector<ag::Parameter*> params_;
  ag::Tape tape_;
  bool recorded_ = false;
};

// One lane of batched gradient evaluation: a private parameter set plus a
// recorded loss graph over it. Factories hand the pool a full clone of the
// model state per lane, so probe-point evaluation never touches the caller's
// parameters; `owner` keeps the cloned model alive for the lane's lifetime.
struct GradLane {
  std::vector<ag::Parameter*> params;
  std::unique_ptr<ReusableLossGraph> graph;
  std::shared_ptr<void> owner;
};

// Evaluates the loss gradient at many ABSOLUTE parameter points, fanned
// across lanes — the BatchGradFn engine behind the block-CG solver's batched
// finite-difference HVPs. Each point's gradient comes from one replay of one
// lane's recorded graph at that point, under a private single-threaded
// backend of the active kind (the shared ParallelBackend pool is never
// entered concurrently). Lanes take contiguous point ranges, and which lane
// evaluates a point never affects its bits, so results are bitwise
// identical for any lane count and any backend thread count.
class GradLanePool {
 public:
  using LaneFactory = std::function<GradLane()>;

  GradLanePool(const LaneFactory& factory, int num_lanes);

  // Flat loss gradient at each point, in point order.
  std::vector<std::vector<double>> GradsAt(
      const std::vector<std::vector<double>>& points);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }

 private:
  void RunLane(int lane, int begin, int end,
               const std::vector<std::vector<double>>& points,
               std::vector<std::vector<double>>* grads);

  std::vector<GradLane> lanes_;
  std::unique_ptr<ThreadPool> pool_;  // only when num_lanes > 1
};

// Cell-scoped cache of warm replay pools. The expensive state behind an
// influence solve — recorded forward tapes, per-lane model clones, worker
// threads — depends only on the cell's (model, graph, training set), yet it
// was previously rebuilt per InfluenceCalculator AND per use-site within a
// calculator. Hoisting ownership here lets every consumer in the same cell
// reuse the warm pools: a TapePool is re-warmed (forward replayed at the
// model's current values, allocation-free) on each reacquisition, and a
// GradLanePool needs no refresh at all (it evaluates ABSOLUTE points, so its
// clones' resident values are irrelevant).
//
// Keys name the model object and pool geometry; the cache must therefore not
// outlive the models/contexts its entries were warmed against — its intended
// lifetime is one cell (see core::ComputeFairnessWeights) or one bench
// scenario.
class ReplayCache {
 public:
  TapePool* GetOrCreateTapePool(
      const std::string& key,
      const std::function<std::unique_ptr<TapePool>()>& make);

  GradLanePool* GetOrCreateGradLanePool(
      const std::string& key,
      const std::function<std::unique_ptr<GradLanePool>()>& make);

 private:
  std::map<std::string, std::unique_ptr<TapePool>> tape_pools_;
  std::map<std::string, std::unique_ptr<GradLanePool>> grad_lane_pools_;
};

}  // namespace ppfr::influence

#endif  // PPFR_INFLUENCE_TAPE_POOL_H_
