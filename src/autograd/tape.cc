#include "autograd/tape.h"

#include <algorithm>

namespace ppfr::ag {
namespace {

// The calling thread's installed arena (see ArenaScope). A tape consults it
// only when it belongs to that tape, so scopes for different tapes coexist.
thread_local GradArena* t_active_arena = nullptr;

}  // namespace

ArenaScope::ArenaScope(GradArena* arena) : previous_(t_active_arena) {
  t_active_arena = arena;
}

ArenaScope::~ArenaScope() { t_active_arena = previous_; }

const la::Matrix& Var::value() const { return tape->Value(*this); }

double Var::scalar() const {
  const la::Matrix& v = value();
  PPFR_CHECK_EQ(v.rows(), 1);
  PPFR_CHECK_EQ(v.cols(), 1);
  return v(0, 0);
}

GradArena& Tape::ActiveArena() const {
  GradArena* arena = t_active_arena;
  if (arena != nullptr && arena->tape_ == this) return *arena;
  return own_arena_;
}

GradArena::NodeGrad& Tape::GradState(GradArena& arena, int id) const {
  if (static_cast<int>(arena.nodes_.size()) <= id) {
    arena.nodes_.resize(nodes_.size());
  }
  return arena.nodes_[id];
}

Var Tape::Leaf(Parameter* param) {
  PPFR_CHECK(param != nullptr);
  PPFR_CHECK(!value_pending_) << "NewValue not consumed before Leaf";
  if (replaying_) {
    PPFR_CHECK_LT(replay_cursor_, static_cast<int>(nodes_.size()))
        << "replay built more nodes than were recorded";
    Node& node = nodes_[replay_cursor_];
    PPFR_CHECK(node.param == param) << "replay structure mismatch at leaf "
                                    << param->name;
    node.value.CopyDataFrom(param->value);
    return Var{this, replay_cursor_++};
  }
  Node node;
  node.value = param->value;
  node.needs_grad = true;
  node.param = param;
  nodes_.push_back(std::move(node));
  return Var{this, static_cast<int>(nodes_.size()) - 1};
}

Var Tape::Constant(la::Matrix value) {
  PPFR_CHECK(!value_pending_) << "NewValue not consumed before Constant";
  if (replaying_) {
    PPFR_CHECK_LT(replay_cursor_, static_cast<int>(nodes_.size()))
        << "replay built more nodes than were recorded";
    Node& node = nodes_[replay_cursor_];
    PPFR_CHECK(node.param == nullptr && !node.needs_grad)
        << "replay structure mismatch: expected a constant";
    PPFR_CHECK(node.value.SameShape(value));
    node.value = std::move(value);
    return Var{this, replay_cursor_++};
  }
  Node node;
  node.value = std::move(value);
  node.needs_grad = false;
  nodes_.push_back(std::move(node));
  return Var{this, static_cast<int>(nodes_.size()) - 1};
}

Var Tape::StaticConstant(const la::Matrix& value) {
  if (replaying_) {
    PPFR_CHECK(!value_pending_);
    PPFR_CHECK_LT(replay_cursor_, static_cast<int>(nodes_.size()))
        << "replay built more nodes than were recorded";
    Node& node = nodes_[replay_cursor_];
    PPFR_CHECK(node.param == nullptr && !node.needs_grad)
        << "replay structure mismatch: expected a constant";
    PPFR_CHECK(node.value.SameShape(value));
    // Caller contract: the data is unchanged, so the recorded copy stands.
    return Var{this, replay_cursor_++};
  }
  return Constant(value);
}

Var Tape::MakeNode(la::Matrix value, bool needs_grad,
                   std::function<void(Tape&)> backward,
                   const std::vector<Var>& parents) {
  value_pending_ = false;
  if (replaying_) {
    PPFR_CHECK_LT(replay_cursor_, static_cast<int>(nodes_.size()))
        << "replay built more nodes than were recorded";
    Node& node = nodes_[replay_cursor_];
    PPFR_CHECK(node.param == nullptr) << "replay structure mismatch: expected an op";
    PPFR_CHECK_EQ(node.needs_grad, needs_grad);
    PPFR_CHECK(node.value.SameShape(value));
    PPFR_CHECK_EQ(node.parents.size(), parents.size());
    for (size_t i = 0; i < parents.size(); ++i) {
      PPFR_CHECK(parents[i].tape == this);
      PPFR_CHECK_EQ(node.parents[i], parents[i].id);
    }
    node.value = std::move(value);
    // The closure is replaced, not reused: ops capture per-forward state
    // (saved activations, sampled operands), which must come from THIS pass.
    if (needs_grad) node.backward = std::move(backward);
    return Var{this, replay_cursor_++};
  }
  Node node;
  node.value = std::move(value);
  node.needs_grad = needs_grad;
  if (needs_grad) node.backward = std::move(backward);
  node.parents.reserve(parents.size());
  const int id = static_cast<int>(nodes_.size());
  for (Var p : parents) {
    PPFR_CHECK(p.tape == this) << "ops must stay on a single tape";
    PPFR_CHECK_GE(p.id, 0);
    PPFR_CHECK_LT(p.id, id);
    node.parents.push_back(p.id);
  }
  nodes_.push_back(std::move(node));
  return Var{this, id};
}

la::Matrix Tape::NewValue(int rows, int cols, bool zero_init) {
  if (!replaying_) {
    return zero_init ? la::Matrix(rows, cols) : la::Matrix(rows, cols, la::kUninitialized);
  }
  PPFR_CHECK(!value_pending_) << "two NewValue calls without a node creation";
  PPFR_CHECK_LT(replay_cursor_, static_cast<int>(nodes_.size()))
      << "replay built more nodes than were recorded";
  Node& node = nodes_[replay_cursor_];
  PPFR_CHECK(node.param == nullptr);
  PPFR_CHECK_EQ(node.value.rows(), rows);
  PPFR_CHECK_EQ(node.value.cols(), cols);
  la::Matrix out = std::move(node.value);
  if (zero_init) out.Zero();
  value_pending_ = true;
  return out;
}

bool Tape::NeedsGrad(Var v) const {
  PPFR_CHECK(v.tape == this);
  return nodes_[v.id].needs_grad;
}

const la::Matrix& Tape::Value(Var v) const {
  PPFR_CHECK(v.tape == this);
  PPFR_CHECK_GE(v.id, 0);
  PPFR_CHECK_LT(v.id, static_cast<int>(nodes_.size()));
  return nodes_[v.id].value;
}

la::Matrix& Tape::GradRef(Var v) {
  PPFR_CHECK(v.tape == this);
  GradArena& arena = ActiveArena();
  GradArena::NodeGrad& g = GradState(arena, v.id);
  if (!g.allocated || !g.grad.SameShape(nodes_[v.id].value)) {
    const Node& node = nodes_[v.id];
    g.grad = la::Matrix(node.value.rows(), node.value.cols());
    g.allocated = true;
  }
  if (!g.dirty) {
    g.dirty = true;
    arena.dirty_.push_back(v.id);
  }
  g.rows_known = false;  // caller may write anywhere
  return g.grad;
}

la::Matrix& Tape::GradRefPartial(Var v, const std::vector<int>& rows) {
  PPFR_CHECK(v.tape == this);
  GradArena& arena = ActiveArena();
  GradArena::NodeGrad& g = GradState(arena, v.id);
  if (!g.allocated || !g.grad.SameShape(nodes_[v.id].value)) {
    const Node& node = nodes_[v.id];
    g.grad = la::Matrix(node.value.rows(), node.value.cols());
    g.allocated = true;
  }
  if (!g.dirty) {
    g.dirty = true;
    arena.dirty_.push_back(v.id);
    g.rows_known = true;
    g.rows.assign(rows.begin(), rows.end());
    // Supports usually arrive already sorted (CSR adjacency walks, presorted
    // seed lists) — skip the O(n log n) pass when a linear scan confirms it.
    if (!std::is_sorted(g.rows.begin(), g.rows.end())) {
      std::sort(g.rows.begin(), g.rows.end());
    }
    g.rows.erase(std::unique(g.rows.begin(), g.rows.end()), g.rows.end());
  } else if (g.rows_known) {
    // Union the new rows into the existing sorted support.
    std::vector<int> incoming(rows.begin(), rows.end());
    if (!std::is_sorted(incoming.begin(), incoming.end())) {
      std::sort(incoming.begin(), incoming.end());
    }
    incoming.erase(std::unique(incoming.begin(), incoming.end()), incoming.end());
    std::vector<int> merged;
    merged.reserve(g.rows.size() + incoming.size());
    std::set_union(g.rows.begin(), g.rows.end(), incoming.begin(), incoming.end(),
                   std::back_inserter(merged));
    g.rows = std::move(merged);
  }
  // If support is already unknown, stay unknown (a full zero is always safe).
  return g.grad;
}

const la::Matrix& Tape::GradView(Var v) const {
  PPFR_CHECK(v.tape == this);
  GradArena& arena = ActiveArena();
  GradArena::NodeGrad& g = GradState(arena, v.id);
  PPFR_CHECK(g.allocated);
  return g.grad;
}

const std::vector<int>* Tape::GradRowSupport(Var v) const {
  PPFR_CHECK(v.tape == this);
  GradArena& arena = ActiveArena();
  const GradArena::NodeGrad& g = GradState(arena, v.id);
  if (!g.dirty || !g.rows_known) return nullptr;
  return &g.rows;
}

void Tape::Backward(Var loss) {
  const la::Matrix& loss_value = Value(loss);
  PPFR_CHECK_EQ(loss_value.rows(), 1);
  PPFR_CHECK_EQ(loss_value.cols(), 1);
  la::Matrix seed(1, 1);
  seed(0, 0) = 1.0;
  BackwardWithSeed(loss, seed);
}

void Tape::BackwardWithSeed(Var output, const la::Matrix& seed) {
  PPFR_CHECK(output.tape == this);
  PPFR_CHECK(nodes_[output.id].needs_grad)
      << "output does not depend on any parameter";
  PPFR_CHECK(seed.SameShape(nodes_[output.id].value));
  GradRef(output).Axpy(1.0, seed);
  RunBackward(ActiveArena(), output.id);
}

void Tape::BackwardWithSparseSeed(Var output, const std::vector<int>& rows,
                                  const std::vector<int>& cols,
                                  const std::vector<double>& values) {
  PPFR_CHECK(output.tape == this);
  PPFR_CHECK(nodes_[output.id].needs_grad)
      << "output does not depend on any parameter";
  PPFR_CHECK_EQ(rows.size(), cols.size());
  PPFR_CHECK_EQ(rows.size(), values.size());
  la::Matrix& g = GradRefPartial(output, rows);
  for (size_t k = 0; k < rows.size(); ++k) {
    g(rows[k], cols[k]) += values[k];
  }
  RunBackward(ActiveArena(), output.id);
}

void Tape::RunBackward(GradArena& arena, int output_id) {
  if (replaying_) {
    PPFR_CHECK_EQ(replay_cursor_, static_cast<int>(nodes_.size()))
        << "replay rebuilt fewer nodes than were recorded";
    PPFR_CHECK(!value_pending_);
    replaying_ = false;
  }
  // Reachability: only ancestors of the output can receive gradient, so the
  // sweep skips everything else (per-seed loss tails hanging off a shared
  // forward pass, unrelated sub-expressions). Parents always have smaller
  // ids, so one descending pass settles the whole mask.
  if (static_cast<int>(arena.reach_stamp_.size()) < static_cast<int>(nodes_.size())) {
    arena.reach_stamp_.resize(nodes_.size(), 0);
  }
  const int epoch = ++arena.reach_epoch_;
  arena.reach_stamp_[output_id] = epoch;
  for (int id = output_id; id >= 0; --id) {
    if (arena.reach_stamp_[id] != epoch) continue;
    for (int p : nodes_[id].parents) arena.reach_stamp_[p] = epoch;
  }

  int visited = 0;
  for (int id = output_id; id >= 0; --id) {
    if (arena.reach_stamp_[id] != epoch) continue;
    Node& node = nodes_[id];
    if (!node.needs_grad) continue;
    const GradArena::NodeGrad& g = GradState(arena, id);
    if (!g.dirty) continue;  // no gradient reached this node
    ++visited;
    if (node.param != nullptr) {
      if (accumulate_param_grads_) node.param->grad.Axpy(1.0, g.grad);
    } else if (node.backward) {
      node.backward(*this);
    }
  }
  arena.last_backward_visited_ = visited;
}

void Tape::FlattenLeafGrads(const std::vector<Parameter*>& params,
                            std::vector<double>* out) const {
  GradArena& arena = ActiveArena();
  int64_t total = 0;
  for (const Parameter* p : params) total += p->size();
  out->assign(static_cast<size_t>(total), 0.0);
  int64_t offset = 0;
  for (const Parameter* p : params) {
    // Sum over EVERY leaf node of the parameter, matching RunBackward's
    // accumulate-per-leaf semantics (a tape may expose one parameter through
    // several leaves, e.g. tied weights).
    for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
      if (nodes_[id].param != p) continue;
      if (id >= static_cast<int>(arena.nodes_.size())) continue;
      const GradArena::NodeGrad& g = arena.nodes_[id];
      if (!g.allocated || !g.dirty) continue;
      const double* src = g.grad.data();
      auto dst = out->begin() + offset;
      for (int64_t i = 0; i < g.grad.size(); ++i) dst[i] += src[i];
    }
    offset += p->size();
  }
}

void Tape::ZeroAllGrads() {
  GradArena& arena = ActiveArena();
  for (GradArena::NodeGrad& g : arena.nodes_) {
    if (g.allocated) g.grad.Zero();
    g.dirty = false;
    g.rows_known = false;
    g.rows.clear();
  }
  arena.dirty_.clear();
}

void Tape::ZeroDirtyNodeGrads() {
  GradArena& arena = ActiveArena();
  for (int id : arena.dirty_) {
    GradArena::NodeGrad& g = arena.nodes_[id];
    if (g.rows_known) {
      for (int r : g.rows) {
        double* row = g.grad.row(r);
        std::fill(row, row + g.grad.cols(), 0.0);
      }
    } else {
      g.grad.Zero();
    }
    g.dirty = false;
    g.rows_known = false;
    g.rows.clear();
  }
  arena.dirty_.clear();
}

void Tape::BeginReplay() {
  PPFR_CHECK(!replaying_) << "BeginReplay while a replay is in progress";
  PPFR_CHECK(!nodes_.empty()) << "nothing recorded to replay";
  PPFR_CHECK(!value_pending_);
  ZeroDirtyNodeGrads();
  replaying_ = true;
  replay_cursor_ = 0;
}

void Tape::EndReplay() {
  PPFR_CHECK(replaying_) << "EndReplay without a replay in progress";
  PPFR_CHECK_EQ(replay_cursor_, static_cast<int>(nodes_.size()))
      << "replay rebuilt fewer nodes than were recorded";
  PPFR_CHECK(!value_pending_);
  replaying_ = false;
}

}  // namespace ppfr::ag
