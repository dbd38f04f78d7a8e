#ifndef PPFR_AUTOGRAD_TAPE_H_
#define PPFR_AUTOGRAD_TAPE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "la/matrix.h"

namespace ppfr::ag {

class Tape;

// Lightweight handle to a node on a Tape. Vars are cheap to copy; the
// referenced value lives for the lifetime of the tape.
struct Var {
  Tape* tape = nullptr;
  int id = -1;

  bool valid() const { return tape != nullptr && id >= 0; }
  const la::Matrix& value() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }
  // Value of a 1x1 node.
  double scalar() const;
};

// A trainable tensor. Parameters live outside any tape (they persist across
// forward passes); Tape::Leaf temporarily exposes them on a tape, and
// Tape::Backward accumulates into `grad`.
struct Parameter {
  std::string name;
  la::Matrix value;
  la::Matrix grad;

  Parameter(std::string param_name, la::Matrix initial)
      : name(std::move(param_name)),
        value(std::move(initial)),
        grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Zero(); }
  int64_t size() const { return value.size(); }
};

// Per-consumer gradient storage for one tape: node gradient buffers, their
// dirty / row-support bookkeeping, and the reachability scratch of a backward
// pass. A tape always owns a default arena and uses it transparently;
// influence::TapePool installs a private arena per worker thread (via
// ArenaScope) so concurrent seeded backward passes over ONE immutable
// forward tape never share mutable state.
class GradArena {
 public:
  explicit GradArena(const Tape* tape) : tape_(tape) {}

  GradArena(const GradArena&) = delete;
  GradArena& operator=(const GradArena&) = delete;

 private:
  friend class Tape;

  struct NodeGrad {
    la::Matrix grad;  // lazily sized
    bool allocated = false;
    bool dirty = false;
    bool rows_known = false;  // meaningful only while dirty
    std::vector<int> rows;    // sorted nonzero-row support
  };

  const Tape* tape_;
  std::vector<NodeGrad> nodes_;
  std::vector<int> dirty_;
  std::vector<int> reach_stamp_;  // per-node visit epoch for reachability
  int reach_epoch_ = 0;
  int last_backward_visited_ = 0;
};

// Installs `arena` as the calling thread's gradient arena for its tape while
// in scope. Nesting restores the previous arena on destruction.
class ArenaScope {
 public:
  explicit ArenaScope(GradArena* arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  GradArena* previous_;
};

// Reverse-mode automatic differentiation tape. Usage:
//
//   Tape tape;
//   Var x = tape.Leaf(&weight);
//   Var loss = MeanAll(Square(MatMul(x, ...)));
//   tape.Backward(loss);           // accumulates into weight.grad
//
// A tape represents one forward pass. For a loss whose graph STRUCTURE is
// static across evaluations (every training epoch, every CG gradient call),
// the tape doubles as a reusable arena: BeginReplay() rewinds a cursor and
// the next build of the same expression refills the recorded node slots in
// place — value/grad buffers and the node vector are recycled instead of
// reallocated, and ops that request their output via NewValue() run the
// whole refill without touching the allocator.
//
// Seeded backward passes (the per-node influence machinery) get three
// further mechanisms:
//   * reachability pruning — BackwardWithSeed only visits ancestors of the
//     seeded output, so per-node losses hanging off one shared forward pass
//     don't sweep each other's nodes;
//   * gradient row support — ops that know which rows of a parent gradient
//     they wrote declare them via GradRefPartial, and ZeroDirtyNodeGrads()
//     clears exactly those rows, keeping the cost of "reset for the next
//     seed" proportional to the seed's receptive field, not the graph size;
//   * gradient arenas — all backward-pass mutable state lives in a GradArena
//     (the tape's own by default), so N worker threads can back-propagate N
//     different seeds through one shared, immutable forward tape by
//     installing private arenas (see GradArena / influence::TapePool).
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Exposes a parameter as a differentiable leaf.
  Var Leaf(Parameter* param);

  // A constant (no gradient flows into it).
  Var Constant(la::Matrix value);

  // A constant whose referenced data the caller guarantees is IDENTICAL on
  // every rebuild of this tape (graph features, fixed operators). Recording
  // copies it once; a replay only validates the shape and keeps the recorded
  // buffer, so large immutable inputs are never recopied per epoch/solve.
  Var StaticConstant(const la::Matrix& value);

  // Creates an op node. `backward` receives this tape and must route
  // d(output)/d(parents) contributions into parent grads via GradRef() /
  // GradRefPartial(). Pass `needs_grad` as the OR over the parents'
  // needs_grad, and `parents` as every Var the op reads — BackwardWithSeed's
  // reachability pruning walks these edges, so an omitted parent would
  // silently drop gradients.
  Var MakeNode(la::Matrix value, bool needs_grad, std::function<void(Tape&)> backward,
               const std::vector<Var>& parents);

  // Output-buffer hand-off for ops: in record mode this is a fresh
  // (rows x cols) matrix; in replay mode it recycles the buffer of the node
  // slot the subsequent MakeNode/Constant call will refill. With zero_init
  // the buffer is zeroed. Without it the op gets a buffer it must overwrite
  // in full: an uninitialised matrix when recording (NaN in builds without
  // NDEBUG), the previous pass's values when replaying. Each NewValue must
  // be followed by exactly one node creation before the next NewValue.
  la::Matrix NewValue(int rows, int cols, bool zero_init = true);

  bool NeedsGrad(Var v) const;
  const la::Matrix& Value(Var v) const;

  // Mutable gradient buffer of a node (allocated on first use). Marks the
  // node dirty with UNKNOWN row support — the whole buffer is zeroed on the
  // next ZeroDirtyNodeGrads().
  la::Matrix& GradRef(Var v);

  // Like GradRef, but declares that the caller only writes the listed rows.
  // Multiple calls union their supports; mixing with plain GradRef degrades
  // to unknown support (full zero on reset), never to a wrong answer.
  la::Matrix& GradRefPartial(Var v, const std::vector<int>& rows);

  // Read-only view of an already-allocated gradient (backward lambdas read
  // their own output grad through this so the bookkeeping is untouched).
  const la::Matrix& GradView(Var v) const;

  // Sorted nonzero-row support of v's gradient, or nullptr when the support
  // is unknown (dense) or the gradient is untouched.
  const std::vector<int>* GradRowSupport(Var v) const;

  // Runs reverse accumulation from a 1x1 loss node; parameter gradients are
  // ADDED to Parameter::grad (call ZeroGrad on params between steps).
  void Backward(Var loss);

  // Seeds `output`'s gradient with an arbitrary matrix and runs reverse
  // accumulation from there, visiting only nodes reachable from `output`.
  // Together with ZeroDirtyNodeGrads this lets one forward pass serve many
  // backward passes (per-training-node loss gradients in the influence
  // machinery).
  void BackwardWithSeed(Var output, const la::Matrix& seed);

  // Sparse-seed variant: seeds grad(rows[k], cols[k]) += values[k] on
  // `output` (declaring the row support) and back-propagates. This is how a
  // single-node NLL loss is driven without materialising a loss node: the
  // tape stays structurally untouched, so concurrent workers can seed the
  // same output node under different arenas.
  void BackwardWithSparseSeed(Var output, const std::vector<int>& rows,
                              const std::vector<int>& cols,
                              const std::vector<double>& values);

  // When disabled, leaf gradients stay in the tape-local node buffers and
  // Parameter::grad is never written — the thread-safety contract that lets
  // influence::TapePool run concurrent backward passes over lane-local tapes
  // sharing one parameter set. Read them back via FlattenLeafGrads.
  void set_accumulate_param_grads(bool enabled) { accumulate_param_grads_ = enabled; }

  // Concatenates the leaf gradients in `params` order into `out` (resized to
  // the total parameter size; zeros for parameters without a leaf or whose
  // leaf was untouched by the last backward pass).
  void FlattenLeafGrads(const std::vector<Parameter*>& params,
                        std::vector<double>* out) const;

  // Clears all node gradients so the tape can be back-propagated again.
  void ZeroAllGrads();

  // Clears only the gradients touched since the previous reset — and within
  // each, only the declared row support when one is known. O(receptive
  // field) instead of O(tape).
  void ZeroDirtyNodeGrads();

  // ---- Reuse arena ----

  // Rewinds the tape so the next build of the SAME expression structure
  // refills the recorded slots in place. Gradients left over from the
  // previous pass are cleared. Backward/BackwardWithSeed verify that the
  // replay consumed every recorded node and switch back to record mode.
  void BeginReplay();
  // Closes a completed replay without running a backward pass — for callers
  // that replay a forward purely to refresh values (TapePool::Rewarm) and
  // will consume the tape from other threads afterwards. CHECKs that the
  // replay consumed every recorded node.
  void EndReplay();
  bool replaying() const { return replaying_; }

  // Logical node count (the replay cursor while replaying).
  int num_nodes() const {
    return replaying_ ? replay_cursor_ : static_cast<int>(nodes_.size());
  }

  // Nodes visited by the most recent (pruned) backward pass in this
  // thread's arena — observability for tests and the influence-engine bench.
  int last_backward_visited() const { return ActiveArena().last_backward_visited_; }

 private:
  struct Node {
    la::Matrix value;
    bool needs_grad = false;
    std::function<void(Tape&)> backward;  // null for leaves/constants
    Parameter* param = nullptr;
    std::vector<int> parents;
  };

  // The calling thread's arena for this tape (the installed ArenaScope arena
  // when it belongs to this tape, the built-in default otherwise), with its
  // per-node state lazily sized.
  GradArena& ActiveArena() const;
  GradArena::NodeGrad& GradState(GradArena& arena, int id) const;
  void RunBackward(GradArena& arena, int output_id);

  std::vector<Node> nodes_;
  mutable GradArena own_arena_{this};

  bool accumulate_param_grads_ = true;

  bool replaying_ = false;
  int replay_cursor_ = 0;
  bool value_pending_ = false;  // a NewValue awaits its MakeNode
};

}  // namespace ppfr::ag

#endif  // PPFR_AUTOGRAD_TAPE_H_
