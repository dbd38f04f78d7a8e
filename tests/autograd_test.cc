#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/rng.h"
#include "la/backend.h"
#include "privacy/defense/edge_rand.h"
#include "test_util.h"

namespace ppfr::ag {
namespace {

using ::ppfr::testing::RandomMatrix;

constexpr double kTol = 1e-5;

Parameter MakeParam(const std::string& name, int rows, int cols, Rng* rng) {
  return Parameter(name, RandomMatrix(rows, cols, rng));
}

TEST(TapeTest, LeafExposesParameterValue) {
  Rng rng(1);
  Parameter p = MakeParam("p", 2, 3, &rng);
  Tape tape;
  Var v = tape.Leaf(&p);
  EXPECT_EQ(v.rows(), 2);
  EXPECT_EQ(v.cols(), 3);
  EXPECT_DOUBLE_EQ(v.value()(1, 2), p.value(1, 2));
  EXPECT_TRUE(tape.NeedsGrad(v));
}

TEST(TapeTest, ConstantsDoNotRequireGrad) {
  Tape tape;
  Var c = tape.Constant(la::Matrix(2, 2, 1.0));
  EXPECT_FALSE(tape.NeedsGrad(c));
}

TEST(TapeTest, BackwardAccumulatesIntoParameter) {
  Rng rng(2);
  Parameter p = MakeParam("p", 3, 1, &rng);
  p.ZeroGrad();
  Tape tape;
  Var loss = SumAll(tape.Leaf(&p));
  tape.Backward(loss);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(p.grad(i, 0), 1.0);
  // Backward again accumulates (caller is responsible for zeroing).
  Tape tape2;
  Var loss2 = SumAll(tape2.Leaf(&p));
  tape2.Backward(loss2);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(p.grad(i, 0), 2.0);
}

TEST(TapeTest, BackwardWithSeedMatchesScaledBackward) {
  Rng rng(3);
  Parameter p = MakeParam("p", 2, 2, &rng);
  p.ZeroGrad();
  {
    Tape tape;
    Var loss = MeanAll(Square(tape.Leaf(&p)));
    la::Matrix seed(1, 1);
    seed(0, 0) = 2.0;
    tape.BackwardWithSeed(loss, seed);
  }
  la::Matrix grad_seeded = p.grad;
  p.ZeroGrad();
  {
    Tape tape;
    Var loss = Scale(MeanAll(Square(tape.Leaf(&p))), 2.0);
    tape.Backward(loss);
  }
  EXPECT_LT(la::Sub(grad_seeded, p.grad).MaxAbs(), 1e-12);
}

TEST(TapeTest, ZeroAllGradsEnablesReplay) {
  Rng rng(4);
  Parameter p = MakeParam("p", 3, 2, &rng);
  Tape tape;
  Var x = tape.Leaf(&p);
  Var loss = MeanAll(Square(x));

  p.ZeroGrad();
  tape.Backward(loss);
  const la::Matrix first = p.grad;

  p.ZeroGrad();
  tape.ZeroAllGrads();
  tape.Backward(loss);
  EXPECT_LT(la::Sub(first, p.grad).MaxAbs(), 1e-12);
}

// ---- Gradient checks per op ----

TEST(TapeTest, BackwardSkipsNodesUnreachableFromOutput) {
  // Two disjoint sub-expressions on one tape: back-propagating one must not
  // sweep — or write any gradient into — the other.
  Rng rng(40);
  Parameter used = MakeParam("used", 3, 2, &rng);
  Parameter untouched = MakeParam("untouched", 4, 4, &rng);
  used.ZeroGrad();
  untouched.ZeroGrad();

  Tape tape;
  Var loss_a = MeanAll(Square(tape.Leaf(&used)));
  Var loss_b = MeanAll(Square(Tanh(tape.Leaf(&untouched))));
  (void)loss_b;

  la::Matrix seed(1, 1);
  seed(0, 0) = 1.0;
  tape.BackwardWithSeed(loss_a, seed);

  EXPECT_GT(used.grad.MaxAbs(), 0.0);
  EXPECT_EQ(untouched.grad.MaxAbs(), 0.0);
  // The pruned sweep must visit only loss_a's ancestry (leaf + square +
  // sum + scale + the loss node itself), not the whole tape.
  EXPECT_LT(tape.last_backward_visited(), tape.num_nodes());
  EXPECT_LE(tape.last_backward_visited(), 4);
}

TEST(TapeTest, SparseSeedMatchesDenseSeed) {
  Rng rng(41);
  Parameter p = MakeParam("p", 5, 3, &rng);

  p.ZeroGrad();
  {
    Tape tape;
    Var out = Tanh(tape.Leaf(&p));
    la::Matrix seed(5, 3);
    seed(2, 1) = -1.5;
    seed(4, 0) = 0.75;
    tape.BackwardWithSeed(out, seed);
  }
  const la::Matrix dense = p.grad;

  p.ZeroGrad();
  {
    Tape tape;
    Var out = Tanh(tape.Leaf(&p));
    tape.BackwardWithSparseSeed(out, {2, 4}, {1, 0}, {-1.5, 0.75});
  }
  for (int64_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense.data()[i], p.grad.data()[i]) << "component " << i;
  }
}

TEST(TapeTest, ReplayRebuildsValuesAndGradsBitwise) {
  Rng rng(42);
  Parameter w = MakeParam("w", 4, 3, &rng);
  Parameter b = MakeParam("b", 1, 3, &rng);
  auto build = [&](Tape& t) {
    return MeanAll(Square(AddRowVec(Sigmoid(t.Leaf(&w)), t.Leaf(&b))));
  };

  Tape reused;
  for (int round = 0; round < 3; ++round) {
    // Fresh-tape oracle at the current parameter values.
    w.ZeroGrad();
    b.ZeroGrad();
    Tape fresh;
    Var fresh_loss = build(fresh);
    fresh.Backward(fresh_loss);
    const double want_loss = fresh_loss.scalar();
    const la::Matrix want_dw = w.grad;
    const la::Matrix want_db = b.grad;

    w.ZeroGrad();
    b.ZeroGrad();
    if (round > 0) reused.BeginReplay();
    Var loss = build(reused);
    reused.Backward(loss);

    EXPECT_EQ(loss.scalar(), want_loss) << "round " << round;
    EXPECT_EQ(la::Sub(w.grad, want_dw).MaxAbs(), 0.0) << "round " << round;
    EXPECT_EQ(la::Sub(b.grad, want_db).MaxAbs(), 0.0) << "round " << round;
    // The replay must not have grown the tape.
    EXPECT_EQ(reused.num_nodes(), fresh.num_nodes());

    for (int64_t i = 0; i < w.value.size(); ++i) w.value.data()[i] *= 1.0 + 0.1 * round;
  }
}

TEST(TapeTest, ReplayRecyclesValueBuffers) {
  Rng rng(43);
  Parameter p = MakeParam("p", 32, 32, &rng);
  auto build = [&](Tape& t) { return MeanAll(Square(Relu(t.Leaf(&p)))); };

  Tape tape;
  tape.Backward(build(tape));
  p.ZeroGrad();
  tape.BeginReplay();
  const int64_t alloc0 = la::MatrixAllocCount();
  tape.Backward(build(tape));
  // Ops route their outputs through Tape::NewValue, so a replayed pass runs
  // allocation-free on the dense-buffer side (grads were allocated in round
  // one and are recycled too).
  EXPECT_EQ(la::MatrixAllocCount() - alloc0, 1);  // the 1x1 backward seed
}

TEST(TapeTest, GradArenasIsolateBackwardState) {
  // Two arenas over one tape: seeding different rows under each must yield
  // the same per-seed gradients as running both seeds in one arena
  // sequentially — and neither arena sees the other's dirty rows.
  Rng rng(44);
  Parameter p = MakeParam("p", 6, 2, &rng);

  Tape tape;
  tape.set_accumulate_param_grads(false);
  Var out = Square(tape.Leaf(&p));

  auto flat = [&](const std::vector<Parameter*>& params) {
    std::vector<double> v;
    tape.FlattenLeafGrads(params, &v);
    return v;
  };

  tape.BackwardWithSparseSeed(out, {1}, {0}, {2.0});
  const std::vector<double> want_seed1 = flat({&p});
  tape.ZeroDirtyNodeGrads();
  tape.BackwardWithSparseSeed(out, {4}, {1}, {-1.0});
  const std::vector<double> want_seed2 = flat({&p});
  tape.ZeroDirtyNodeGrads();

  GradArena arena_a(&tape);
  GradArena arena_b(&tape);
  std::vector<double> got_seed1, got_seed2;
  {
    ArenaScope scope(&arena_a);
    tape.BackwardWithSparseSeed(out, {1}, {0}, {2.0});
    got_seed1 = flat({&p});
  }
  {
    ArenaScope scope(&arena_b);
    tape.BackwardWithSparseSeed(out, {4}, {1}, {-1.0});
    got_seed2 = flat({&p});
  }
  {
    // arena_a's state is untouched by arena_b's backward pass.
    ArenaScope scope(&arena_a);
    EXPECT_EQ(flat({&p}), got_seed1);
  }
  EXPECT_EQ(got_seed1, want_seed1);
  EXPECT_EQ(got_seed2, want_seed2);
}

TEST(GradCheckTest, MatMulBothSides) {
  Rng rng(10);
  Parameter a = MakeParam("a", 3, 4, &rng);
  Parameter b = MakeParam("b", 4, 2, &rng);
  auto build = [&](Tape& t) { return MeanAll(Square(MatMul(t.Leaf(&a), t.Leaf(&b)))); };
  const GradCheckResult r = GradCheck(build, {&a, &b}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, SpMM) {
  Rng rng(11);
  Parameter x = MakeParam("x", 5, 3, &rng);
  std::vector<la::Triplet> triplets;
  for (int i = 0; i < 12; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(5)),
                        static_cast<int>(rng.UniformInt(5)), rng.Normal()});
  }
  auto sp = MakeSparseOperand(la::CsrMatrix::FromTriplets(5, 5, triplets),
                              /*symmetric=*/false);
  auto build = [&](Tape& t) { return MeanAll(Square(SpMM(sp, t.Leaf(&x)))); };
  const GradCheckResult r = GradCheck(build, {&x}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, ElementwiseBinaryOps) {
  Rng rng(12);
  Parameter a = MakeParam("a", 3, 3, &rng);
  Parameter b = MakeParam("b", 3, 3, &rng);
  // Keep b away from zero for Div.
  for (int64_t i = 0; i < b.size(); ++i) {
    b.value.data()[i] = 1.5 + std::fabs(b.value.data()[i]);
  }
  auto build = [&](Tape& t) {
    Var av = t.Leaf(&a);
    Var bv = t.Leaf(&b);
    Var mix = Add(Sub(Mul(av, bv), av), Div(av, bv));
    return MeanAll(Square(mix));
  };
  const GradCheckResult r = GradCheck(build, {&a, &b}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, BroadcastAndScalarOps) {
  Rng rng(13);
  Parameter a = MakeParam("a", 4, 3, &rng);
  Parameter row = MakeParam("row", 1, 3, &rng);
  Parameter s = MakeParam("s", 1, 1, &rng);
  auto build = [&](Tape& t) {
    Var out = AddRowVec(t.Leaf(&a), t.Leaf(&row));
    out = Add(out, ExpandScalar(t.Leaf(&s), 4, 3));
    out = AddScalar(Scale(out, 0.7), -0.3);
    return MeanAll(Square(out));
  };
  const GradCheckResult r = GradCheck(build, {&a, &row, &s}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

// Unary nonlinearity sweep. Inputs are nudged away from the kink at 0 so the
// finite-difference probe stays on one side.
using UnaryFactory = Var (*)(Var);
class UnaryGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnaryGradSweep, MatchesNumericGradient) {
  Rng rng(100 + GetParam());
  Parameter a = MakeParam("a", 4, 4, &rng);
  for (int64_t i = 0; i < a.size(); ++i) {
    double& v = a.value.data()[i];
    if (std::fabs(v) < 0.05) v = v < 0 ? v - 0.1 : v + 0.1;
  }
  auto apply = [&](Var x) {
    switch (GetParam()) {
      case 0:
        return Relu(x);
      case 1:
        return LeakyRelu(x, 0.2);
      case 2:
        return Elu(x);
      case 3:
        return Tanh(x);
      case 4:
        return Sigmoid(x);
      case 5:
        return Square(x);
      case 6:
        return Abs(x);
      default:
        return Sqrt(Square(x));  // positive-domain sqrt
    }
  };
  auto build = [&](Tape& t) { return MeanAll(Square(apply(t.Leaf(&a)))); };
  const GradCheckResult r = GradCheck(build, {&a}, &rng);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllUnaryOps, UnaryGradSweep, ::testing::Range(0, 8));

TEST(GradCheckTest, LogSoftmaxAndNll) {
  Rng rng(14);
  Parameter logits = MakeParam("logits", 6, 4, &rng);
  const std::vector<int> rows{0, 2, 5};
  const std::vector<int> labels{1, 3, 0};
  const std::vector<double> weights{1.0, 0.5, 2.0};
  auto build = [&](Tape& t) {
    return WeightedNll(LogSoftmaxRows(t.Leaf(&logits)), rows, labels, weights, 3.0);
  };
  const GradCheckResult r = GradCheck(build, {&logits}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, SoftmaxRows) {
  Rng rng(15);
  Parameter logits = MakeParam("logits", 5, 3, &rng);
  auto build = [&](Tape& t) {
    Var p = SoftmaxRows(t.Leaf(&logits));
    // Non-trivial downstream so the softmax Jacobian matters.
    return MeanAll(Square(Sub(p, t.Constant(la::Matrix(5, 3, 0.2)))));
  };
  const GradCheckResult r = GradCheck(build, {&logits}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, GatherRowSums) {
  Rng rng(16);
  Parameter a = MakeParam("a", 6, 3, &rng);
  const std::vector<int> idx{0, 0, 4, 5, 2};
  auto build = [&](Tape& t) {
    Var g = GatherRows(t.Leaf(&a), idx);
    return MeanAll(Square(RowSums(Add(g, Square(g)))));
  };
  const GradCheckResult r = GradCheck(build, {&a}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, LaplacianQuadratic) {
  Rng rng(17);
  Parameter y = MakeParam("y", 6, 2, &rng);
  // Symmetric Laplacian of a small similarity graph.
  std::vector<la::Triplet> sim{{0, 1, 0.5}, {1, 0, 0.5}, {2, 3, 1.0},
                               {3, 2, 1.0}, {1, 4, 0.25}, {4, 1, 0.25}};
  la::CsrMatrix s = la::CsrMatrix::FromTriplets(6, 6, sim);
  std::vector<la::Triplet> lap;
  for (int i = 0; i < 6; ++i) {
    double degree = 0.0;
    for (int j = 0; j < 6; ++j) {
      const double v = s.At(i, j);
      if (v != 0.0) {
        lap.push_back({i, j, -v});
        degree += v;
      }
    }
    lap.push_back({i, i, degree});
  }
  auto laplacian =
      std::make_shared<la::CsrMatrix>(la::CsrMatrix::FromTriplets(6, 6, lap));
  auto build = [&](Tape& t) { return LaplacianQuadratic(laplacian, t.Leaf(&y)); };
  const GradCheckResult r = GradCheck(build, {&y}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(LaplacianQuadraticTest, EqualsPairwiseForm) {
  // Tr(YᵀLY) must equal ½ Σ_ij S_ij ‖y_i − y_j‖² for symmetric S.
  Rng rng(18);
  la::Matrix y = RandomMatrix(4, 3, &rng);
  std::vector<la::Triplet> sim{{0, 1, 0.7}, {1, 0, 0.7}, {2, 3, 0.2}, {3, 2, 0.2}};
  la::CsrMatrix s = la::CsrMatrix::FromTriplets(4, 4, sim);
  std::vector<la::Triplet> lap;
  for (int i = 0; i < 4; ++i) {
    double degree = 0.0;
    for (int j = 0; j < 4; ++j) {
      const double v = s.At(i, j);
      if (v != 0.0) {
        lap.push_back({i, j, -v});
        degree += v;
      }
    }
    lap.push_back({i, i, degree});
  }
  auto laplacian =
      std::make_shared<la::CsrMatrix>(la::CsrMatrix::FromTriplets(4, 4, lap));
  Tape tape;
  Var quad = LaplacianQuadratic(laplacian, tape.Constant(y));
  double pairwise = 0.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const double sij = s.At(i, j);
      if (sij == 0.0) continue;
      double dist_sq = 0.0;
      for (int c = 0; c < 3; ++c) dist_sq += (y(i, c) - y(j, c)) * (y(i, c) - y(j, c));
      pairwise += 0.5 * sij * dist_sq;
    }
  }
  EXPECT_NEAR(quad.scalar(), pairwise, 1e-10);
}

// ---- GatAttention ----

// Destination-grouped edges from per-destination source lists.
std::shared_ptr<EdgeSet> EdgesFromLists(const std::vector<std::vector<int>>& nbrs) {
  auto edges = std::make_shared<EdgeSet>();
  edges->num_nodes = static_cast<int>(nbrs.size());
  edges->row_ptr.assign(1, 0);
  for (const std::vector<int>& list : nbrs) {
    edges->col_idx.insert(edges->col_idx.end(), list.begin(), list.end());
    edges->row_ptr.push_back(edges->num_edges());
  }
  return edges;
}

// A block hop's shape: 5 destinations (the leading source rows) over 9
// sources, destination 3 without edges, sources 5..8 only ever read.
std::shared_ptr<EdgeSet> BlockEdges() {
  return EdgesFromLists({{0, 5, 7}, {1, 0, 6, 8}, {2, 8}, {}, {4, 1, 5, 6, 7, 2}});
}

// GatAttention's value and the gradients of its three inputs.
struct GatResult {
  la::Matrix out, dh, dleft, dright;
  int negative_scores = 0;  // edges x groups with z <= 0 (reference only)
};

// The op written out per (destination, group) with plain loops, and its
// backward for an output gradient `seed`, derived by hand:
//   dalpha_j = seed_i·h_j,  de_j = alpha_j (dalpha_j − Σ_k alpha_k dalpha_k),
//   dz_j = de_j · (z_j > 0 ? 1 : slope), which reaches s_l(i) and s_r(j);
//   a score s = h_row·a passes ds·h_row to a and ds·a to h_row.
GatResult ReferenceGat(const la::Matrix& h, const la::Matrix& left,
                       const la::Matrix& right, const EdgeSet& edges, double slope,
                       const la::Matrix& seed) {
  const int groups = left.cols();
  const int dim = left.rows();
  GatResult ref{la::Matrix(edges.num_nodes, h.cols()), la::Matrix(h.rows(), h.cols()),
                la::Matrix(dim, groups), la::Matrix(dim, groups)};
  auto score = [&](const la::Matrix& a, int row, int g) {
    double s = 0.0;
    for (int c = 0; c < dim; ++c) s += h(row, g * dim + c) * a(c, g);
    return s;
  };
  for (int i = 0; i < edges.num_nodes; ++i) {
    const std::vector<int> nbrs(edges.col_idx.begin() + edges.row_ptr[i],
                                edges.col_idx.begin() + edges.row_ptr[i + 1]);
    for (int g = 0; g < groups && !nbrs.empty(); ++g) {
      const int c0 = g * dim;
      std::vector<double> z, alpha, dalpha;
      double mx = -INFINITY;
      for (int j : nbrs) {
        z.push_back(score(left, i, g) + score(right, j, g));
        ref.negative_scores += z.back() <= 0.0;
        alpha.push_back(z.back() > 0.0 ? z.back() : slope * z.back());
        mx = std::max(mx, alpha.back());
      }
      double denom = 0.0;
      for (double& a : alpha) {
        a = std::exp(a - mx);
        denom += a;
      }
      double weighted = 0.0;
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const int j = nbrs[k];
        alpha[k] /= denom;
        double dot = 0.0;
        for (int c = c0; c < c0 + dim; ++c) {
          ref.out(i, c) += alpha[k] * h(j, c);
          dot += seed(i, c) * h(j, c);
          ref.dh(j, c) += alpha[k] * seed(i, c);
        }
        dalpha.push_back(dot);
        weighted += alpha[k] * dot;
      }
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const int j = nbrs[k];
        const double dz = alpha[k] * (dalpha[k] - weighted) * (z[k] > 0.0 ? 1.0 : slope);
        for (int c = 0; c < dim; ++c) {
          ref.dleft(c, g) += dz * h(i, c0 + c);
          ref.dh(i, c0 + c) += dz * left(c, g);
          ref.dright(c, g) += dz * h(j, c0 + c);
          ref.dh(j, c0 + c) += dz * right(c, g);
        }
      }
    }
  }
  return ref;
}

// GatAttention over leaves at slope 0.2, back-propagating `seed`: as a whole
// matrix (unknown row support: the full backward) or, when `sparse`, as its
// nonzero entries (known row support: the row-support backward).
GatResult RunGat(Parameter* h, Parameter* left, Parameter* right,
                 const std::shared_ptr<const EdgeSet>& edges, const la::Matrix& seed,
                 bool sparse) {
  for (Parameter* p : {h, left, right}) p->ZeroGrad();
  Tape tape;
  Var out = GatAttention(tape.Leaf(h), tape.Leaf(left), tape.Leaf(right), edges,
                         left->value.cols(), 0.2);
  if (sparse) {
    std::vector<int> rows, cols;
    std::vector<double> values;
    for (int r = 0; r < seed.rows(); ++r) {
      for (int c = 0; c < seed.cols(); ++c) {
        if (seed(r, c) == 0.0) continue;
        rows.push_back(r);
        cols.push_back(c);
        values.push_back(seed(r, c));
      }
    }
    tape.BackwardWithSparseSeed(out, rows, cols, values);
  } else {
    tape.BackwardWithSeed(out, seed);
  }
  return {out.value(), h->grad, left->grad, right->grad};
}

double RelErr(const la::Matrix& want, const la::Matrix& got) {
  EXPECT_TRUE(want.SameShape(got));
  return la::Sub(got, want).FrobeniusNorm() / std::max(want.FrobeniusNorm(), 1e-300);
}

void ExpectBitwiseEq(const la::Matrix& want, const la::Matrix& got, const char* what) {
  ASSERT_TRUE(want.SameShape(got)) << what;
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.data()[i], got.data()[i]) << what << " entry " << i;
  }
}

// The op runs its own loops on every backend; these pin that each one agrees.
constexpr la::BackendKind kBackends[] = {la::BackendKind::kReference,
                                         la::BackendKind::kParallel};

la::Matrix Columns(const la::Matrix& m, int col0, int width) {
  la::Matrix out(m.rows(), width);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < width; ++c) out(r, c) = m(r, col0 + c);
  }
  return out;
}

TEST(GatAttentionTest, MatchesPlainLoopReference) {
  Rng rng(19);
  const int groups = 3, dim = 4;
  const auto edges = BlockEdges();
  Parameter h = MakeParam("h", 9, groups * dim, &rng);
  Parameter left = MakeParam("left", dim, groups, &rng);
  Parameter right = MakeParam("right", dim, groups, &rng);
  const la::Matrix dense_seed = RandomMatrix(5, groups * dim, &rng);
  la::Matrix sparse_seed(5, groups * dim);
  sparse_seed(0, 1) = 0.7;
  sparse_seed(3, 5) = -1.2;  // the edge-less destination
  sparse_seed(4, 0) = 1.5;
  sparse_seed(4, 11) = -0.4;
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse seed" : "dense seed");
    const la::Matrix& seed = sparse ? sparse_seed : dense_seed;
    const GatResult want =
        ReferenceGat(h.value, left.value, right.value, *edges, 0.2, seed);
    EXPECT_GT(want.negative_scores, 0);
    EXPECT_LT(want.negative_scores, static_cast<int>(edges->num_edges()) * groups);
    for (const la::BackendKind backend : kBackends) {
      SCOPED_TRACE(la::BackendKindName(backend));
      la::ScopedBackend scoped(backend, 4);
      const GatResult got = RunGat(&h, &left, &right, edges, seed, sparse);
      EXPECT_LT(RelErr(want.out, got.out), 1e-12);
      EXPECT_LT(RelErr(want.dh, got.dh), 1e-12);
      EXPECT_LT(RelErr(want.dleft, got.dleft), 1e-12);
      EXPECT_LT(RelErr(want.dright, got.dright), 1e-12);
      for (int c = 0; c < groups * dim; ++c) EXPECT_EQ(got.out(3, c), 0.0);
    }
  }
}

// GatAttention's documented rounding sequence (ops.h), written out with
// plain loops per (group, destination): serial MulAdd score and head dots,
// la::Exp, one division per alpha, sums in edge order, and each dh element's
// terms in the stated order (the aggregate terms in edge order, then the
// s_l term, then the s_r term). The op must match it bit for bit.
GatResult SequenceReferenceGat(const la::Matrix& h, const la::Matrix& left,
                               const la::Matrix& right, const EdgeSet& edges, double slope,
                               const la::Matrix& seed) {
  const int groups = left.cols();
  const int dim = left.rows();
  const int n = edges.num_nodes;
  GatResult ref{la::Matrix(n, h.cols()), la::Matrix(h.rows(), h.cols()),
                la::Matrix(dim, groups), la::Matrix(dim, groups)};
  auto score = [&](const la::Matrix& a, int row, int g) {
    double s = 0.0;
    for (int c = 0; c < dim; ++c) s = la::MulAdd(h(row, g * dim + c), a(c, g), s);
    return s;
  };
  std::vector<double> alpha(static_cast<size_t>(edges.num_edges()));
  for (int g = 0; g < groups; ++g) {
    const int c0 = g * dim;
    std::vector<double> dsl(static_cast<size_t>(n)), dsr(static_cast<size_t>(h.rows()));
    for (int i = 0; i < n; ++i) {
      const int64_t begin = edges.row_ptr[i], end = edges.row_ptr[i + 1];
      if (begin == end) continue;
      std::vector<double> z, e;
      double mx = -INFINITY;
      for (int64_t k = begin; k < end; ++k) {
        z.push_back(score(left, i, g) + score(right, edges.col_idx[k], g));
        e.push_back(std::max(z.back(), slope * z.back()));
        mx = std::max(mx, e.back());
      }
      double denom = 0.0;
      for (double& w : e) {
        w = la::Exp(w - mx);
        denom += w;
      }
      double sum = 0.0;
      std::vector<double> dalpha;
      for (int64_t k = begin; k < end; ++k) {
        const int j = edges.col_idx[k];
        alpha[k] = e[k - begin] / denom;
        double dot = 0.0;
        for (int c = c0; c < c0 + dim; ++c) {
          ref.out(i, c) = la::MulAdd(alpha[k], h(j, c), ref.out(i, c));
          dot = la::MulAdd(seed(i, c), h(j, c), dot);
        }
        dalpha.push_back(dot);
        sum = la::MulAdd(alpha[k], dot, sum);
      }
      for (int64_t k = begin; k < end; ++k) {
        const int j = edges.col_idx[k];
        const double de = alpha[k] * (dalpha[k - begin] - sum);
        const double select = z[k - begin] > 0.0 ? 1.0 : slope;
        dsl[i] = la::MulAdd(de, select, dsl[i]);
        dsr[j] = la::MulAdd(de, select, dsr[j]);
      }
    }
    for (int c = 0; c < dim; ++c) {
      for (int i = 0; i < n; ++i) {
        ref.dleft(c, g) = la::MulAdd(dsl[i], h(i, c0 + c), ref.dleft(c, g));
      }
      for (int j = 0; j < h.rows(); ++j) {
        ref.dright(c, g) = la::MulAdd(dsr[j], h(j, c0 + c), ref.dright(c, g));
      }
    }
    for (int i = 0; i < n; ++i) {
      for (int64_t k = edges.row_ptr[i]; k < edges.row_ptr[i + 1]; ++k) {
        const int j = edges.col_idx[k];
        for (int c = c0; c < c0 + dim; ++c) {
          ref.dh(j, c) = la::MulAdd(alpha[k], seed(i, c), ref.dh(j, c));
        }
      }
    }
    for (int j = 0; j < h.rows(); ++j) {
      for (int c = 0; c < dim; ++c) {
        if (j < n) ref.dh(j, c0 + c) = la::MulAdd(dsl[j], left(c, g), ref.dh(j, c0 + c));
        ref.dh(j, c0 + c) = la::MulAdd(dsr[j], right(c, g), ref.dh(j, c0 + c));
      }
    }
  }
  return ref;
}

// An EdgeRand-perturbed SBM with self-loops: about 50 sources per
// destination, GAT's DP training graphs' density, and enough edges that the
// forward runs over several destination chunks at every width below.
std::shared_ptr<EdgeSet> EdgeRandDenseEdges() {
  const data::NodeClassificationData data = ppfr::testing::SmallSbm(5, 300);
  const graph::Graph noisy = privacy::EdgeRand(data.graph, 2.4, 11);
  std::vector<std::vector<int>> nbrs(static_cast<size_t>(noisy.num_nodes()));
  for (int v = 0; v < noisy.num_nodes(); ++v) {
    nbrs[static_cast<size_t>(v)].push_back(v);
    for (int u : noisy.Neighbors(v)) nbrs[static_cast<size_t>(v)].push_back(u);
  }
  return EdgesFromLists(nbrs);
}

// Heads x width: GAT's first layer, its CoraLike output layer and a shape
// with no compile-time kernel; on the block hop and on the dense graph; the
// full and the row-support backward; every backend, at 1 and 4 threads.
TEST(GatAttentionTest, FollowsTheDocumentedSequenceBitwise) {
  const std::shared_ptr<EdgeSet> graphs[] = {BlockEdges(), EdgeRandDenseEdges()};
  ASSERT_GE(graphs[1]->num_edges(), 40 * graphs[1]->num_nodes);
  Rng rng(28);
  for (const auto& [groups, dim] : {std::pair{4, 8}, std::pair{1, 7}, std::pair{3, 4}}) {
    for (const std::shared_ptr<EdgeSet>& edges : graphs) {
      int rows = edges->num_nodes;
      for (int j : edges->col_idx) rows = std::max(rows, j + 1);
      SCOPED_TRACE(std::to_string(groups) + "x" + std::to_string(dim) + " heads on " +
                   std::to_string(edges->num_edges()) + " edges");
      Parameter h = MakeParam("h", rows, groups * dim, &rng);
      Parameter left = MakeParam("left", dim, groups, &rng);
      Parameter right = MakeParam("right", dim, groups, &rng);
      const la::Matrix dense_seed = RandomMatrix(edges->num_nodes, groups * dim, &rng);
      la::Matrix sparse_seed(edges->num_nodes, groups * dim);
      for (int r : {0, 2, edges->num_nodes - 1}) {
        sparse_seed(r, (r * 5) % (groups * dim)) = rng.Normal();
      }
      for (const bool sparse : {false, true}) {
        const la::Matrix& seed = sparse ? sparse_seed : dense_seed;
        const GatResult want =
            SequenceReferenceGat(h.value, left.value, right.value, *edges, 0.2, seed);
        for (const la::BackendKind backend : kBackends) {
          for (const int threads : {1, 4}) {
            SCOPED_TRACE(std::string(sparse ? "sparse seed on " : "dense seed on ") +
                         la::BackendKindName(backend) + " x" + std::to_string(threads));
            la::ScopedBackend scoped(backend, threads);
            const GatResult got = RunGat(&h, &left, &right, edges, seed, sparse);
            ExpectBitwiseEq(want.out, got.out, "out");
            ExpectBitwiseEq(want.dh, got.dh, "dh");
            ExpectBitwiseEq(want.dleft, got.dleft, "dleft");
            ExpectBitwiseEq(want.dright, got.dright, "dright");
          }
        }
      }
    }
  }
}

TEST(GradCheckTest, GatAttention) {
  Rng rng(24);
  const int groups = 2, dim = 3;
  const auto edges = BlockEdges();
  Parameter h = MakeParam("h", 9, groups * dim, &rng);
  Parameter left = MakeParam("left", dim, groups, &rng);
  Parameter right = MakeParam("right", dim, groups, &rng);
  auto build = [&](Tape& t) {
    return MeanAll(Square(
        GatAttention(t.Leaf(&h), t.Leaf(&left), t.Leaf(&right), edges, groups, 0.2)));
  };
  const GradCheckResult r = GradCheck(build, {&h, &left, &right}, &rng, 20);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GatAttentionTest, UniformAttentionAverages) {
  // With zero attention vectors every score is zero and every neighbour gets
  // weight 1/deg, so the op reduces to a plain neighbourhood mean.
  Tape tape;
  la::Matrix h(3, 2);
  h(0, 0) = 1;
  h(1, 0) = 3;
  h(2, 0) = 5;
  const auto edges = EdgesFromLists({{0, 1, 2}, {1}, {2}});
  Var out = GatAttention(tape.Constant(h), tape.Constant(la::Matrix(2, 1)),
                         tape.Constant(la::Matrix(2, 1)), edges, 1, 0.2);
  EXPECT_NEAR(out.value()(0, 0), 3.0, 1e-12);  // (1+3+5)/3
  EXPECT_NEAR(out.value()(1, 0), 3.0, 1e-12);
  EXPECT_NEAR(out.value()(2, 0), 5.0, 1e-12);
}

// Attention groups never mix: a call over `blocks` consecutive blocks of
// `heads` groups each (block b's head h is group b·heads + h) must give every
// block exactly what a separate call on that block's columns gives.
class GatAttentionGroups : public ::testing::TestWithParam<int> {};

TEST_P(GatAttentionGroups, EqualsSeparateCallsBitwisePerBlock) {
  const int blocks = GetParam();
  const int heads = 2, dim = 3, width = heads * dim;
  Rng rng(25);
  const auto edges = BlockEdges();
  Parameter h = MakeParam("h", 9, width * blocks, &rng);
  Parameter left = MakeParam("left", dim, heads * blocks, &rng);
  Parameter right = MakeParam("right", dim, heads * blocks, &rng);
  const la::Matrix dense_seed = RandomMatrix(5, width * blocks, &rng);
  la::Matrix sparse_seed(5, width * blocks);
  for (int b = 0; b < blocks; ++b) {
    sparse_seed(0, b * width + 1) = rng.Normal();
    sparse_seed(3, b * width + 4) = rng.Normal();
    sparse_seed(4, b * width) = rng.Normal();
    sparse_seed(4, b * width + 5) = rng.Normal();
  }
  for (const la::BackendKind backend : kBackends) {
    la::ScopedBackend scoped(backend, 4);
    for (const bool sparse : {false, true}) {
      SCOPED_TRACE(std::string(sparse ? "sparse seed on " : "dense seed on ") +
                   la::BackendKindName(backend));
      const la::Matrix& seed = sparse ? sparse_seed : dense_seed;
      const GatResult all = RunGat(&h, &left, &right, edges, seed, sparse);
      for (int b = 0; b < blocks; ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        Parameter hb("h", Columns(h.value, b * width, width));
        Parameter lb("left", Columns(left.value, b * heads, heads));
        Parameter rb("right", Columns(right.value, b * heads, heads));
        const GatResult one =
            RunGat(&hb, &lb, &rb, edges, Columns(seed, b * width, width), sparse);
        ExpectBitwiseEq(one.out, Columns(all.out, b * width, width), "out");
        ExpectBitwiseEq(one.dh, Columns(all.dh, b * width, width), "dh");
        ExpectBitwiseEq(one.dleft, Columns(all.dleft, b * heads, heads), "dleft");
        ExpectBitwiseEq(one.dright, Columns(all.dright, b * heads, heads), "dright");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, GatAttentionGroups, ::testing::Values(1, 2, 8));

// Scores that hit z > 0, z < 0 and z = 0 exactly, the three cases of the
// branch-free LeakyReLU and its backward select. With attn_left picking
// column 2g and attn_right column 2g+1 of h, s_l(i,g) = h(i,2g) and
// s_r(j,g) = h(j,2g+1) exactly, and quarter-integer values make many sums
// cancel to +0. (z = -0 cannot arise: both scores are sums that start at
// +0, so neither is ever -0.) The 600-node graph spreads the forward over
// several destination chunks.
TEST(GatAttentionTest, ExactZeroScoresMatchReferenceAndThreads) {
  const data::NodeClassificationData data = ppfr::testing::SmallSbm(3, 600);
  std::vector<std::vector<int>> nbrs(static_cast<size_t>(data.graph.num_nodes()));
  for (int v = 0; v < data.graph.num_nodes(); ++v) {
    nbrs[static_cast<size_t>(v)].push_back(v);
    for (int u : data.graph.Neighbors(v)) nbrs[static_cast<size_t>(v)].push_back(u);
  }
  const auto edges = EdgesFromLists(nbrs);
  const int groups = 2, dim = 2;
  Rng rng(27);
  la::Matrix hv(edges->num_nodes, groups * dim);
  for (int64_t i = 0; i < hv.size(); ++i) {
    hv.data()[i] = 0.25 * static_cast<double>(static_cast<int>(rng.UniformInt(9)) - 4);
  }
  Parameter h("h", hv);
  Parameter left("left", la::Matrix::FromRows({{1.0, 1.0}, {0.0, 0.0}}));
  Parameter right("right", la::Matrix::FromRows({{0.0, 0.0}, {1.0, 1.0}}));
  int positive = 0, negative = 0, zero = 0;
  for (int i = 0; i < edges->num_nodes; ++i) {
    for (int64_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
      for (int g = 0; g < groups; ++g) {
        const double z = hv(i, 2 * g) + hv(edges->col_idx[k], 2 * g + 1);
        positive += z > 0.0;
        negative += z < 0.0;
        zero += z == 0.0;
      }
    }
  }
  EXPECT_GT(positive, 0);
  EXPECT_GT(negative, 0);
  EXPECT_GT(zero, 0);
  const la::Matrix seed = RandomMatrix(edges->num_nodes, groups * dim, &rng);
  const GatResult want =
      ReferenceGat(h.value, left.value, right.value, *edges, 0.2, seed);
  for (const la::BackendKind backend : kBackends) {
    SCOPED_TRACE(la::BackendKindName(backend));
    GatResult single_thread;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      la::ScopedBackend scoped(backend, threads);
      const GatResult got = RunGat(&h, &left, &right, edges, seed, /*sparse=*/false);
      EXPECT_LT(RelErr(want.out, got.out), 1e-12);
      EXPECT_LT(RelErr(want.dh, got.dh), 1e-12);
      EXPECT_LT(RelErr(want.dleft, got.dleft), 1e-12);
      EXPECT_LT(RelErr(want.dright, got.dright), 1e-12);
      if (threads == 1) {
        single_thread = got;
        continue;
      }
      ExpectBitwiseEq(single_thread.out, got.out, "out");
      ExpectBitwiseEq(single_thread.dh, got.dh, "dh");
      ExpectBitwiseEq(single_thread.dleft, got.dleft, "dleft");
      ExpectBitwiseEq(single_thread.dright, got.dright, "dright");
    }
  }
}

// max(z, slope·z) is LeakyReLU only for slopes in [+0, 1].
TEST(GatAttentionDeathTest, SlopeOutsideUnitIntervalDies) {
  const auto edges = EdgesFromLists({{0, 1}, {1}});
  for (const double slope : {1.5, -0.2, -0.0}) {
    EXPECT_DEATH(
        {
          Tape tape;
          GatAttention(tape.Constant(la::Matrix(2, 1)), tape.Constant(la::Matrix(1, 1)),
                       tape.Constant(la::Matrix(1, 1)), edges, 1, slope);
        },
        "leaky_slope must lie in \\[0, 1\\]");
  }
}

// GAT's first-layer shape (4 heads x 8 dims) over a 600-node graph with
// self-loops: more than twice the op's 1024-edge grain at that width, so the
// forward fans out over several destination chunks.
class GatAttentionThreads : public ::testing::TestWithParam<la::BackendKind> {};

TEST_P(GatAttentionThreads, MultiChunkPassIsBitwiseThreadInvariant) {
  const data::NodeClassificationData data = ppfr::testing::SmallSbm(3, 600);
  std::vector<std::vector<int>> nbrs(static_cast<size_t>(data.graph.num_nodes()));
  for (int v = 0; v < data.graph.num_nodes(); ++v) {
    nbrs[static_cast<size_t>(v)].push_back(v);
    for (int u : data.graph.Neighbors(v)) nbrs[static_cast<size_t>(v)].push_back(u);
  }
  const auto edges = EdgesFromLists(nbrs);
  const int groups = 4, dim = 8;
  ASSERT_GE(edges->num_edges(), 2 * 1024);
  Rng rng(26);
  Parameter h = MakeParam("h", edges->num_nodes, groups * dim, &rng);
  Parameter left = MakeParam("left", dim, groups, &rng);
  Parameter right = MakeParam("right", dim, groups, &rng);
  const la::Matrix dense_seed = RandomMatrix(edges->num_nodes, groups * dim, &rng);
  la::Matrix sparse_seed(edges->num_nodes, groups * dim);
  for (int r : {5, 120, 121, 599}) sparse_seed(r, r % (groups * dim)) = rng.Normal();
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse seed" : "dense seed");
    const la::Matrix& seed = sparse ? sparse_seed : dense_seed;
    GatResult want;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      la::ScopedBackend scoped(GetParam(), threads);
      const GatResult got = RunGat(&h, &left, &right, edges, seed, sparse);
      if (threads == 1) {
        want = got;
        continue;
      }
      ExpectBitwiseEq(want.out, got.out, "out");
      ExpectBitwiseEq(want.dh, got.dh, "dh");
      ExpectBitwiseEq(want.dleft, got.dleft, "dleft");
      ExpectBitwiseEq(want.dright, got.dright, "dright");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, GatAttentionThreads, ::testing::ValuesIn(kBackends),
                         [](const auto& info) { return la::BackendKindName(info.param); });

// A seed on every output row saturates the row support: each operand column
// is listed by many supported rows, so the backwards' support unions meet
// every column many times over. The row-support backwards must still give
// the dense backward's bits.
TEST(RowSupportTest, SaturatedSupportMatchesDenseBackwardBitwise) {
  Rng rng(29);
  const int n = 40, groups = 2, dim = 3;
  std::vector<la::Triplet> triplets;
  std::vector<std::vector<int>> lists(n);
  for (int r = 0; r < n; ++r) {
    lists[static_cast<size_t>(r)].push_back(r);
    for (int c = 0; c < n; ++c) {
      if (rng.Uniform() < 0.3) triplets.push_back({r, c, rng.Normal()});
      if (c != r && rng.Uniform() < 0.3) lists[static_cast<size_t>(r)].push_back(c);
    }
  }
  const auto sp = MakeSparseOperand(la::CsrMatrix::FromTriplets(n, n, triplets),
                                    /*symmetric=*/false);
  const auto edges = EdgesFromLists(lists);
  Parameter x = MakeParam("x", n, 5, &rng);
  Parameter h = MakeParam("h", n, groups * dim, &rng);
  Parameter left = MakeParam("left", dim, groups, &rng);
  Parameter right = MakeParam("right", dim, groups, &rng);
  const la::Matrix spmm_seed = RandomMatrix(n, 5, &rng);
  const la::Matrix gat_seed = RandomMatrix(n, groups * dim, &rng);

  const auto spmm_grad = [&](bool sparse) {
    x.ZeroGrad();
    Tape tape;
    Var out = SpMM(sp, tape.Leaf(&x));
    if (sparse) {
      std::vector<int> rows, cols;
      std::vector<double> values;
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < spmm_seed.cols(); ++c) {
          rows.push_back(r);
          cols.push_back(c);
          values.push_back(spmm_seed(r, c));
        }
      }
      tape.BackwardWithSparseSeed(out, rows, cols, values);
    } else {
      tape.BackwardWithSeed(out, spmm_seed);
    }
    return x.grad;
  };
  for (const la::BackendKind backend : kBackends) {
    SCOPED_TRACE(la::BackendKindName(backend));
    la::ScopedBackend scoped(backend, 4);
    ExpectBitwiseEq(spmm_grad(false), spmm_grad(true), "SpMM dx");
    const GatResult want = RunGat(&h, &left, &right, edges, gat_seed, /*sparse=*/false);
    const GatResult got = RunGat(&h, &left, &right, edges, gat_seed, /*sparse=*/true);
    ExpectBitwiseEq(want.dh, got.dh, "GAT dh");
    ExpectBitwiseEq(want.dleft, got.dleft, "GAT dleft");
    ExpectBitwiseEq(want.dright, got.dright, "GAT dright");
  }
}

// f(x) = (x + 1) − x: the tape's derivative is exactly 1 − 1 = 0, but the
// two perturbed losses round apart. One ulp between them is rounding, so the
// entry must pass; before GradCheck allowed for it, it read as an error of
// ulp/2ε over max(ulp/2ε, 1e-8), about 1e-3.
TEST(GradCheckTest, FlatDirectionOneUlpApartPasses) {
  Parameter p("p", la::Matrix(1, 1));
  const auto build = [&p](Tape& t) {
    const Var x = t.Leaf(&p);
    return Sub(AddScalar(x, 1.0), x);
  };
  const auto loss_at = [&](double v) {
    p.value(0, 0) = v;
    Tape t;
    return build(t).scalar();
  };
  const double eps = 1e-5;
  bool found = false;
  for (int k = 1; k <= 1000 && !found; ++k) {
    const double theta = 1e-3 * k;
    const double f_plus = loss_at(theta + eps);
    const double f_minus = loss_at(theta - eps);
    // Adjacent doubles: the two losses are one ulp apart.
    if (f_plus == f_minus || std::nextafter(f_minus, f_plus) != f_plus) continue;
    found = true;
    p.value(0, 0) = theta;
    Rng rng(1);
    const GradCheckResult r = GradCheck(build, {&p}, &rng, 1, eps);
    EXPECT_EQ(r.entries_checked, 1);
    EXPECT_EQ(r.max_abs_error, 0.0);
    EXPECT_EQ(r.max_rel_error, 0.0);
  }
  EXPECT_TRUE(found) << "no probe point rounds its two losses one ulp apart";
}

// The allowance must not hide a real error: an analytic gradient 1.001 times
// the true one still reports a relative error of 0.001/1.001.
TEST(GradCheckTest, ScaledAnalyticGradientReportsItsError) {
  Rng rng(43);
  Parameter p = MakeParam("p", 3, 2, &rng);
  int calls = 0;
  // GradCheck differentiates the tape of its first call; only that one is
  // scaled.
  const auto build = [&](Tape& t) {
    const Var loss = SumAll(Square(t.Leaf(&p)));
    return calls++ == 0 ? Scale(loss, 1.001) : loss;
  };
  const GradCheckResult r = GradCheck(build, {&p}, &rng, 6);
  EXPECT_NEAR(r.max_rel_error, 0.001 / 1.001, 1e-6);
}

TEST(GradCheckTest, RiskSurrogateShapedExpression) {
  // Composite expression mirroring the risk surrogate: means, variances,
  // Abs and Div of 1x1 nodes.
  Rng rng(20);
  Parameter logits = MakeParam("logits", 8, 3, &rng);
  const std::vector<int> us{0, 1, 2, 3};
  const std::vector<int> vs{4, 5, 6, 7};
  auto build = [&](Tape& t) {
    Var p = SoftmaxRows(t.Leaf(&logits));
    Var d = RowSums(Square(Sub(GatherRows(p, us), GatherRows(p, vs))));
    Var mean = MeanAll(d);
    Var var = MeanAll(Square(Sub(d, ExpandScalar(mean, d.rows(), 1))));
    return Div(Abs(mean), AddScalar(var, 1e-3));
  };
  const GradCheckResult r = GradCheck(build, {&logits}, &rng, 20, 1e-6);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

// ELU evaluates its exp term on every element and selects, so that its
// loops vectorise. Forward and backward must equal a plain loop that takes
// the exp on the non-positive arm only, bit for bit, on every backend and
// on both backward paths (flat, and the seeded row support). The inputs
// cover ±0, tiny, small and large negatives, both sides of la::Exp's clamps
// at −746 and 710, and positives; the seed has exact zeros. The size spans
// two Apply chunks and leaves a scalar tail.
TEST(OpsTest, EluEqualsPlainLoopReferenceBitwise) {
  constexpr double kAlpha = 0.7;
  const int rows = 523, cols = 129;
  Rng rng(47);
  la::Matrix x = RandomMatrix(rows, cols, &rng);
  const double specials[] = {0.0,    -0.0,   4.9e-324, -4.9e-324, -1e-300, -1e-8,  -0.5,
                             -1.0,   -20.0,  -700.0,   -745.9,    -746.0,  -746.1, -1e4,
                             1e-300, 0.5,    3.0,      709.9,     710.0,   710.1,  1e4};
  for (size_t i = 0; i < std::size(specials); ++i) x.data()[i] = specials[i];
  for (int64_t i = static_cast<int64_t>(std::size(specials)); i < x.size(); i += 3) {
    x.data()[i] *= 50.0;
  }
  la::Matrix seed = RandomMatrix(rows, cols, &rng);
  for (int64_t i = 0; i < seed.size(); i += 5) seed.data()[i] = 0.0;
  std::vector<int> seed_rows, seed_cols;
  std::vector<double> seed_values;
  for (int r = 0; r < rows; r += 2) {
    for (int c = 0; c < cols; ++c) {
      seed_rows.push_back(r);
      seed_cols.push_back(c);
      seed_values.push_back(seed(r, c));
    }
  }

  const auto same_bits = [](const la::Matrix& want, const la::Matrix& got, const char* what) {
    ASSERT_TRUE(want.SameShape(got)) << what;
    for (int64_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(want.data()[i]), std::bit_cast<uint64_t>(got.data()[i]))
          << what << " entry " << i << ": " << want.data()[i] << " vs " << got.data()[i];
    }
  };
  // The reference backward reads the seeded output gradient back from the
  // tape and adds g·f'(x) to a zero gradient where g is nonzero.
  const auto reference_grad = [&](const la::Matrix& g) {
    la::Matrix dx(rows, cols);
    for (int64_t i = 0; i < x.size(); ++i) {
      const double v = x.data()[i];
      double slope;
      if (v > 0.0) {
        slope = 1.0;
      } else {
        slope = kAlpha * la::Exp(v);
      }
      if (g.data()[i] != 0.0) dx.data()[i] = la::MulAdd(g.data()[i], slope, 0.0);
    }
    return dx;
  };

  la::Matrix want_out(rows, cols);
  for (int64_t i = 0; i < x.size(); ++i) {
    const double v = x.data()[i];
    if (v > 0.0) {
      want_out.data()[i] = v;
    } else {
      want_out.data()[i] = kAlpha * (la::Exp(v) - 1.0);
    }
  }

  for (const la::BackendKind backend : kBackends) {
    SCOPED_TRACE(la::BackendKindName(backend));
    la::ScopedBackend scoped(backend, 4);
    for (const bool sparse : {false, true}) {
      SCOPED_TRACE(sparse ? "row-support backward" : "flat backward");
      Parameter p("x", x);
      Tape tape;
      tape.set_accumulate_param_grads(false);
      const Var leaf = tape.Leaf(&p);
      const Var out = Elu(leaf, kAlpha);
      same_bits(want_out, out.value(), "forward");
      if (sparse) {
        tape.BackwardWithSparseSeed(out, seed_rows, seed_cols, seed_values);
      } else {
        tape.BackwardWithSeed(out, seed);
      }
      same_bits(reference_grad(tape.GradView(out)), tape.GradView(leaf), "backward");
    }
  }
}

TEST(OpsTest, NegAndSubConsistency) {
  Rng rng(21);
  Parameter a = MakeParam("a", 2, 2, &rng);
  Tape tape;
  Var x = tape.Leaf(&a);
  Var lhs = Neg(x);
  Var rhs = Sub(tape.Constant(la::Matrix(2, 2, 0.0)), x);
  EXPECT_LT(la::Sub(lhs.value(), rhs.value()).MaxAbs(), 1e-15);
}

}  // namespace
}  // namespace ppfr::ag
