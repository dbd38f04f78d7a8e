#include "la/backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"
#include "test_util.h"

namespace ppfr::la {
namespace {

using ::ppfr::testing::ExpectSameMatrixBytes;
using ::ppfr::testing::RandomMatrix;
using ::ppfr::testing::ScopedEnvVar;

// How far the parallel backend may sit from the reference oracle where its
// blocked GEMM or its dot product sums in another order.
constexpr double kTol = 1e-12;

Matrix WithBackend(BackendKind kind, int threads,
                   const std::function<Matrix()>& compute) {
  ScopedBackend scoped(kind, threads);
  return compute();
}

void ExpectBitwiseEqual(const Matrix& want, const Matrix& got) {
  ASSERT_TRUE(got.SameShape(want));
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.data()[i], got.data()[i]) << "flat index " << i;
  }
}

// Checks that the parallel backend reproduces the reference backend for one
// dense computation, across thread counts 1/2/3/4 (1 exercises the inline
// path, 3 an uneven partition, 2 and 4 the acceptance configuration) — and
// that it is bitwise deterministic across those thread counts.
void ExpectBackendParity(const std::function<Matrix()>& compute) {
  const Matrix want = WithBackend(BackendKind::kReference, 1, compute);
  Matrix single_thread;
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Matrix got = WithBackend(BackendKind::kParallel, threads, compute);
    ASSERT_TRUE(got.SameShape(want));
    EXPECT_LT(Sub(got, want).MaxAbs(), kTol);
    if (threads == 1) {
      single_thread = got;
    } else {
      ExpectBitwiseEqual(single_thread, got);
    }
  }
}

TEST(BackendRegistryTest, KindNamesAndScopedSwap) {
  EXPECT_EQ(BackendKindName(BackendKind::kReference), "reference");
  EXPECT_EQ(BackendKindName(BackendKind::kParallel), "parallel");
  const BackendKind before = ActiveBackendKind();
  {
    ScopedBackend scoped(BackendKind::kReference, 1);
    EXPECT_EQ(ActiveBackendKind(), BackendKind::kReference);
    EXPECT_EQ(ActiveBackend().name(), "reference");
  }
  EXPECT_EQ(ActiveBackendKind(), before);
}

// The active backend samples PPFR_LA_THREADS once, on first use, so each
// case runs in a freshly exec'd child ("threadsafe" death tests re-run the
// test body from the start) that has no backend yet.
TEST(BackendRegistryTest, ThreadsEnvParsesStrictly) {
  const std::string saved_style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Pinned: the reference backend reports one thread whatever was asked.
  ScopedEnvVar kind("PPFR_LA_BACKEND", "parallel");
  {
    ScopedEnvVar threads("PPFR_LA_THREADS", "4x");
    EXPECT_DEATH(ActiveBackend(), "PPFR_LA_THREADS must be an integer, got '4x'");
  }
  {
    ScopedEnvVar threads("PPFR_LA_THREADS", "3");
    EXPECT_EXIT(std::exit(ActiveBackend().num_threads() == 3 ? 0 : 1),
                ::testing::ExitedWithCode(0), "");
  }
  {
    // Empty counts as unset: one thread per core.
    ScopedEnvVar threads("PPFR_LA_THREADS", "");
    EXPECT_EXIT(std::exit(ActiveBackend().num_threads() ==
                                  MakeBackend(BackendKind::kParallel, 0)->num_threads()
                              ? 0
                              : 1),
                ::testing::ExitedWithCode(0), "");
  }
  ::testing::FLAGS_gtest_death_test_style = saved_style;
}

// PPFR_LA_BACKEND is sampled on first use too, so each case runs in a fresh
// child as above. A name outside the two backends dies naming the valid ones.
TEST(BackendRegistryTest, BackendEnvParsesStrictly) {
  const std::string saved_style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    ScopedEnvVar kind("PPFR_LA_BACKEND", "simd");
    EXPECT_DEATH(ActiveBackend(),
                 "PPFR_LA_BACKEND must be 'reference' or 'parallel', got 'simd'");
  }
  {
    ScopedEnvVar kind("PPFR_LA_BACKEND", "reference");
    EXPECT_EXIT(std::exit(ActiveBackendKind() == BackendKind::kReference ? 0 : 1),
                ::testing::ExitedWithCode(0), "");
  }
  {
    // Empty counts as unset: the parallel backend.
    ScopedEnvVar kind("PPFR_LA_BACKEND", "");
    EXPECT_EXIT(std::exit(ActiveBackendKind() == BackendKind::kParallel ? 0 : 1),
                ::testing::ExitedWithCode(0), "");
  }
  ::testing::FLAGS_gtest_death_test_style = saved_style;
}

TEST(BackendRegistryTest, BackendFlagParsesStrictly) {
  const std::string saved_style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--la_backend=simd"};
  const Flags flags(2, const_cast<char**>(argv));
  EXPECT_DEATH(ConfigureBackendFromFlags(flags),
               "--la_backend must be 'reference' or 'parallel', got 'simd'");
  ::testing::FLAGS_gtest_death_test_style = saved_style;
}

TEST(BackendRegistryTest, MakeBackendStandaloneInstances) {
  const auto ref = MakeBackend(BackendKind::kReference, 1);
  const auto par = MakeBackend(BackendKind::kParallel, 2);
  EXPECT_EQ(ref->name(), "reference");
  EXPECT_EQ(par->name(), "parallel");
  EXPECT_EQ(par->num_threads(), 2);
}

// Exhaustive shape sweep over all GEMM variants, including empty dimensions.
// Sizes cross the register-tile (4x8), cache-block (64/256) and serial-cutoff
// boundaries of the parallel backend.
TEST(BackendParityTest, GemmShapeSweep) {
  const std::vector<int> sizes = {0, 1, 2, 3, 5, 8, 17, 33, 65};
  Rng rng(7);
  for (int m : sizes) {
    for (int k : sizes) {
      for (int n : sizes) {
        const Matrix a = RandomMatrix(m, k, &rng);
        const Matrix b = RandomMatrix(k, n, &rng);
        ExpectBackendParity([&] { return MatMul(a, b); });
        const Matrix at = RandomMatrix(k, m, &rng);
        ExpectBackendParity([&] { return MatMulTransA(at, b); });
        const Matrix bt = RandomMatrix(n, k, &rng);
        ExpectBackendParity([&] { return MatMulTransB(a, bt); });
      }
    }
  }
}

TEST(BackendParityTest, SkinnyMGemmPartitionsColumnPanels) {
  Rng rng(12);
  // m=16 -> a single 64-row block, so the parallel backend partitions the B
  // column panels across threads instead (weight-gradient-shaped GEMM).
  const Matrix a = RandomMatrix(16, 300, &rng);
  const Matrix b = RandomMatrix(300, 2000, &rng);
  ExpectBackendParity([&] { return MatMul(a, b); });
  const Matrix at = RandomMatrix(300, 16, &rng);
  ExpectBackendParity([&] { return MatMulTransA(at, b); });
}

TEST(BackendParityTest, LargeGemmCrossesAllBlockBoundaries) {
  Rng rng(8);
  // 193 rows -> 4 row-blocks of 64 with a ragged tail; 300 k -> 2 KC panels;
  // 263 cols -> ragged NR tail.
  const Matrix a = RandomMatrix(193, 300, &rng);
  const Matrix b = RandomMatrix(300, 263, &rng);
  ExpectBackendParity([&] { return MatMul(a, b); });
  const Matrix at = RandomMatrix(300, 193, &rng);
  ExpectBackendParity([&] { return MatMulTransA(at, b); });
  const Matrix bt = RandomMatrix(263, 300, &rng);
  ExpectBackendParity([&] { return MatMulTransB(a, bt); });
}

TEST(BackendParityTest, TransposeAndElementwise) {
  Rng rng(9);
  const Matrix a = RandomMatrix(211, 307, &rng);  // > elementwise cutoff
  const Matrix b = RandomMatrix(211, 307, &rng);
  ExpectBackendParity([&] { return Transpose(a); });
  ExpectBackendParity([&] { return Hadamard(a, b); });
  ExpectBackendParity([&] {
    Matrix c = a;
    c.Axpy(-1.75, b);
    c.Scale(0.5);
    return c;
  });

  const double want = [&] {
    ScopedBackend scoped(BackendKind::kReference, 1);
    return Dot(a, b);
  }();
  std::optional<double> single_thread;
  for (int threads : {1, 2, 3, 4}) {
    ScopedBackend scoped(BackendKind::kParallel, threads);
    const double got = Dot(a, b);
    EXPECT_NEAR(got, want, kTol * std::fabs(want));
    if (!single_thread.has_value()) {
      single_thread = got;
    } else {
      EXPECT_EQ(got, *single_thread) << "threads=" << threads;
    }
  }
}

TEST(BackendParityTest, SpmmRandomAndEmpty) {
  Rng rng(10);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 30000; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(1200)),
                        static_cast<int>(rng.UniformInt(900)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(1200, 900, triplets);
  const Matrix x = RandomMatrix(900, 24, &rng);
  ExpectBackendParity([&] { return sparse.Multiply(x); });
  ExpectBackendParity([&] {
    Matrix out(1200, 24, 1.0);
    sparse.MultiplyAccum(x, -0.5, &out);
    return out;
  });

  // Degenerate shapes: no rows, no columns in x, and an all-empty operator.
  const CsrMatrix no_rows = CsrMatrix::FromTriplets(0, 5, {});
  const Matrix x5 = RandomMatrix(5, 3, &rng);
  ExpectBackendParity([&] { return no_rows.Multiply(x5); });
  const Matrix x0 = RandomMatrix(900, 0, &rng);
  ExpectBackendParity([&] { return sparse.Multiply(x0); });
  const CsrMatrix empty = CsrMatrix::FromTriplets(4, 4, {});
  const Matrix x4 = RandomMatrix(4, 2, &rng);
  ExpectBackendParity([&] { return empty.Multiply(x4); });
}

// About half exact zeros, like a ReLU output: the naive loops skip zero
// multipliers and the register tiles do not.
Matrix HalfZeroMatrix(int rows, int cols, Rng* rng) {
  Matrix m = RandomMatrix(rows, cols, rng);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (rng->Uniform() < 0.5) m.data()[i] = 0.0;
  }
  return m;
}

// Runs `compute` on the parallel backend at 1, 2 and 4 threads and checks
// each result equals the reference backend's bit for bit.
void ExpectBitwiseReferenceAndThreadInvariant(const std::function<Matrix()>& compute) {
  const Matrix want = WithBackend(BackendKind::kReference, 1, compute);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectBitwiseEqual(want, WithBackend(BackendKind::kParallel, threads, compute));
  }
}

// The paper's products: n nodes x inner (16 or 32 hidden) against a narrow
// side of 3, 6 or 7 classes, plus the square outputs of 16 and 32. Row
// counts hit the 4-row tile tails and the products above the work cutoff
// (1,320 and 3,000).
// Two shapes leave the narrow path for the blocked GEMM and so only match
// within the parity tolerance: a weight gradient at least 8 wide over more
// than one 256-row cache panel (the panels' partial sums are added), and a
// 16- or 32-wide inner side of GemmTransB (fma chains where the naive dot
// product sums vector products in order).
TEST(BackendParityTest, NarrowProductsEqualReferenceBitwise) {
  Rng rng(31);
  for (int rows : {1, 3, 5, 1320, 3000}) {
    for (int inner : {16, 32}) {
      for (int side : {3, 6, 7, 16, 32}) {
        SCOPED_TRACE("rows=" + std::to_string(rows) + " inner=" + std::to_string(inner) +
                     " side=" + std::to_string(side));
        const Matrix h = HalfZeroMatrix(rows, inner, &rng);
        const Matrix w = RandomMatrix(inner, side, &rng);
        const Matrix g = RandomMatrix(rows, side, &rng);
        const Matrix wt = RandomMatrix(inner, side, &rng);
        ExpectBitwiseReferenceAndThreadInvariant([&] { return MatMul(h, w); });
        if (side >= 8 && rows > 256) {
          ExpectBackendParity([&] { return MatMulTransA(h, g); });
        } else {
          ExpectBitwiseReferenceAndThreadInvariant([&] { return MatMulTransA(h, g); });
        }
        if (side >= 8) {
          ExpectBackendParity([&] { return MatMulTransB(g, wt); });
        } else {
          ExpectBitwiseReferenceAndThreadInvariant([&] { return MatMulTransB(g, wt); });
        }
        // The seeded backward's weight gradient: every other row, added in.
        std::vector<int> support;
        for (int r = 0; r < rows; r += 2) support.push_back(r);
        ExpectBitwiseReferenceAndThreadInvariant([&] {
          Matrix out(inner, side, 0.5);
          ActiveBackend().GemmTransAAccumRows(h, g, &out, support);
          return out;
        });
      }
    }
  }
}

// ---- la::Exp ----

constexpr double kInf = std::numeric_limits<double>::infinity();

// A call the compiler can neither inline nor vectorise: the scalar side of
// the lane-invariance contract.
[[gnu::noinline]] double ScalarExp(double x) { return Exp(x); }

// Distance in ulps between two doubles of the same sign: adjacent doubles
// have adjacent bit patterns.
int64_t UlpDistance(double a, double b) {
  return std::abs(std::bit_cast<int64_t>(a) - std::bit_cast<int64_t>(b));
}

// Uniform samples over the whole finite range, and denser ones where GAT's
// and softmax's arguments fall (at most 0), around the reduction interval
// and at both ends, where the two scaling steps leave the normal range.
std::vector<double> ExpArguments(int per_range, Rng* rng) {
  const std::pair<double, double> ranges[] = {{-745.13, 709.78}, {-40.0, 0.0},
                                              {-1.0, 1.0},       {-0.35, 0.35},
                                              {-745.13, -700.0}, {700.0, 709.78}};
  std::vector<double> x;
  for (const auto& [lo, hi] : ranges) {
    for (int i = 0; i < per_range; ++i) x.push_back(lo + (hi - lo) * rng->Uniform());
  }
  return x;
}

TEST(ExpTest, WithinOneUlpOfStdExp) {
  Rng rng(41);
  const std::vector<double> x = ExpArguments(200000, &rng);
  std::vector<double> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = Exp(x[i]);
  int64_t worst = 0;
  double worst_x = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const int64_t d = UlpDistance(y[i], std::exp(x[i]));
    if (d > worst) {
      worst = d;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 1) << "at x = " << worst_x;
}

TEST(ExpTest, EdgesOfTheRange) {
  EXPECT_EQ(ScalarExp(0.0), 1.0);
  EXPECT_EQ(ScalarExp(-0.0), 1.0);
  EXPECT_EQ(ScalarExp(5e-324), 1.0);
  EXPECT_EQ(ScalarExp(-5e-324), 1.0);
  EXPECT_TRUE(std::isnan(ScalarExp(std::nan(""))));
  for (const double x : {709.79, 710.0, 1e10, 1e308, kInf}) EXPECT_EQ(ScalarExp(x), kInf) << x;
  for (const double x : {-745.14, -746.0, -1e10, -1e308, -kInf}) {
    EXPECT_EQ(ScalarExp(x), 0.0) << x;
    EXPECT_FALSE(std::signbit(ScalarExp(x))) << x;
  }
  // The largest finite result, the smallest normal one and the smallest
  // subnormal one, against libm.
  for (const double x : {709.782712893384, -708.3964185322641, -745.1332191019411}) {
    EXPECT_EQ(ScalarExp(x), std::exp(x)) << x;
  }
}

// Whatever lands in a vector lane at one array offset lands in a scalar
// epilogue at another; the backend's Apply then cuts the array into
// thread-count-dependent chunks. Every element must equal a scalar call.
TEST(ExpTest, VectorLanesAndChunksEqualScalarCallsBitwise) {
  Rng rng(42);
  std::vector<double> x = ExpArguments(700, &rng);
  for (const double special : {0.0, -0.0, kInf, -kInf, 709.79, -745.2, 1e-300}) {
    x.push_back(special);
  }
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<double> want(x.size());
  for (int64_t i = 0; i < n; ++i) want[i] = ScalarExp(x[i]);
  const auto expect_bitwise = [&](const std::vector<double>& got, int64_t from) {
    for (int64_t i = from; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
          << "x=" << x[i];
    }
  };
  for (const int64_t offset : {0, 1, 2, 3, 5, 7}) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    std::vector<double> got(x.size());
    for (int64_t i = offset; i < n; ++i) got[i] = Exp(x[i]);
    expect_bitwise(got, offset);
  }
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto backend = MakeBackend(BackendKind::kParallel, threads);
    std::vector<double> got(x.size());
    backend->Apply(n, 37, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) got[i] = Exp(x[i]);
    });
    expect_bitwise(got, 0);
  }
}

// Widths 1 to 33 cover one to four 8-column blocks per pass, every tail
// width, and a second pass past 32 columns; rows 0 mod 7 are empty.
TEST(BackendParityTest, SpmmEveryWidthEqualsReferenceBitwise) {
  Rng rng(32);
  const int n = 700;
  std::vector<Triplet> triplets;
  for (int i = 0; i < n; ++i) {
    if (i % 7 == 0) continue;
    for (int d = 0; d < 1 + i % 11; ++d) {
      triplets.push_back({i, static_cast<int>(rng.UniformInt(n)), rng.Normal()});
    }
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(n, n, triplets);
  for (int width = 1; width <= 33; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const Matrix x = HalfZeroMatrix(n, width, &rng);
    ExpectBitwiseReferenceAndThreadInvariant([&] {
      Matrix out(n, width, 0.5);
      sparse.MultiplyAccum(x, -1.5, &out);
      return out;
    });
  }
}

TEST(BackendParityTest, SpmmPowerLawDegreeGraph) {
  // Heavily skewed degrees: a few hub rows own most of the nnz, so the
  // nnz-balanced partition places chunk boundaries inside the hub region
  // while a row-count partition would serialise on one chunk. Results must
  // match the reference for every thread count.
  Rng rng(13);
  const int n = 2000;
  std::vector<Triplet> triplets;
  for (int hub = 0; hub < 4; ++hub) {
    for (int j = 0; j < n; j += 1 + hub) {
      triplets.push_back({hub, j, rng.Normal()});
    }
  }
  for (int i = 4; i < n; ++i) {
    for (int d = 0; d < 2; ++d) {
      triplets.push_back({i, static_cast<int>(rng.UniformInt(n)), rng.Normal()});
    }
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(n, n, triplets);
  const Matrix x = RandomMatrix(n, 16, &rng);
  ExpectBackendParity([&] { return sparse.Multiply(x); });
  ExpectBackendParity([&] {
    Matrix out(n, 16, 0.25);
    sparse.MultiplyAccum(x, 2.0, &out);
    return out;
  });
}

// x of `rows` x `width` with about a fifth of its entries set, from
// U(-2, 2), and rows 0 mod 9 empty. A few entries are NaN (the hardware's
// default NaN, which inf - inf also gives, so every NaN in either product
// has the same bits), +inf or -inf.
CsrMatrix SparseRhs(int rows, int width, Rng* rng) {
  volatile double inf = std::numeric_limits<double>::infinity();
  const double nan = inf - inf;
  std::vector<int64_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
  std::vector<int> col_idx;
  std::vector<double> values;
  for (int r = 0; r < rows; ++r) {
    if (r % 9 != 0) {
      for (int c = 0; c < width; ++c) {
        if (rng->Uniform() >= 0.2) continue;
        col_idx.push_back(c);
        values.push_back(r % 997 == 1 ? nan
                         : r % 997 == 2 ? inf
                         : r % 997 == 3 ? -inf
                                        : rng->Uniform(-2.0, 2.0));
      }
    }
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return CsrMatrix::FromSortedRows(rows, width, std::move(row_ptr), std::move(col_idx),
                                   std::move(values));
}

// The sparse-RHS product is Multiply(x.ToDense()) bit for bit, on both
// backends and at 1 and 4 threads, for finite weights of both signs: an
// operator with empty rows and a 5,000-nonzero hub row, against an x with
// empty rows, NaN and ±inf entries, at widths across the dense SpMM's 8-
// and 32-column blocking, and on empty shapes.
TEST(CsrMatrixTest, SparseRhsMultiplyEqualsDenseProductBitwise) {
  Rng rng(26);
  const int n = 6000;
  std::vector<Triplet> triplets;
  for (int j = 0; j < n; ++j) {
    if (j % 6 != 0) triplets.push_back({3, j, rng.Normal()});  // the hub: 5,000 columns
  }
  for (int i = 0; i < 400; ++i) {
    if (i == 3 || i % 5 == 0) continue;
    for (int d = 0; d < 1 + i % 13; ++d) {
      triplets.push_back({i, static_cast<int>(rng.UniformInt(n)), rng.Normal()});
    }
  }
  const CsrMatrix a = CsrMatrix::FromTriplets(400, n, triplets);
  ASSERT_EQ(a.row_ptr()[4] - a.row_ptr()[3], 5000);
  for (const auto& [kind, threads] : {std::pair{BackendKind::kReference, 1},
                                      std::pair{BackendKind::kParallel, 1},
                                      std::pair{BackendKind::kParallel, 4}}) {
    SCOPED_TRACE(BackendKindName(kind) + " threads=" + std::to_string(threads));
    ScopedBackend scoped(kind, threads);
    for (const int width : {1, 7, 8, 24, 32, 33, 96, 128}) {
      SCOPED_TRACE("width=" + std::to_string(width));
      const CsrMatrix x = SparseRhs(n, width, &rng);
      ExpectSameMatrixBytes(a.Multiply(x), a.Multiply(x.ToDense()));
    }
    const CsrMatrix x = SparseRhs(n, 8, &rng);
    ExpectSameMatrixBytes(CsrMatrix(0, n).Multiply(x), CsrMatrix(0, n).Multiply(x.ToDense()));
    const CsrMatrix no_cols = SparseRhs(n, 0, &rng);
    ExpectSameMatrixBytes(a.Multiply(no_cols), a.Multiply(no_cols.ToDense()));
    const CsrMatrix no_rows(0, 8);
    const CsrMatrix no_inner(5, 0);
    ExpectSameMatrixBytes(no_inner.Multiply(no_rows), no_inner.Multiply(no_rows.ToDense()));
    EXPECT_EQ(no_inner.Multiply(no_rows).MaxAbs(), 0.0);
  }
}

TEST(CsrMatrixTest, MultiplyAccumRowsMatchesFullProductOnSubset) {
  Rng rng(14);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 400; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(60)),
                        static_cast<int>(rng.UniformInt(60)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(60, 60, triplets);
  // x is zero outside rows {3, 17, 40}; the masked row-subset accumulate
  // must reproduce the full product bit for bit on the requested rows.
  Matrix x(60, 5);
  const std::vector<int> nonzero_rows{3, 17, 40};
  std::vector<uint8_t> mask(60, 0);
  for (int r : nonzero_rows) {
    mask[static_cast<size_t>(r)] = 1;
    for (int c = 0; c < 5; ++c) x(r, c) = rng.Normal();
  }
  const Matrix full = sparse.Multiply(x);

  const std::vector<int> subset{0, 5, 17, 33, 59};
  Matrix masked(60, 5);
  sparse.MultiplyAccumRows(x, 1.0, &masked, subset, mask);
  Matrix unmasked(60, 5);
  sparse.MultiplyAccumRows(x, 1.0, &unmasked, subset);
  for (int r : subset) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_EQ(masked(r, c), full(r, c)) << "masked (" << r << "," << c << ")";
      EXPECT_EQ(unmasked(r, c), full(r, c)) << "unmasked (" << r << "," << c << ")";
    }
  }
}

// The support-guided kernels (seeded-backward row supports) dispatch through
// the backend: the parallel route must stay BITWISE on the serial loops (same
// per-element order) at every thread count. Supports cover the large case
// (above the threading thresholds), the empty support, a single row, and
// 1-column shapes.
TEST(BackendParityTest, SupportKernelRoutesMatchSerialReference) {
  Rng rng(31);
  const int m = 160, k = 96, n = 80;
  const Matrix g = RandomMatrix(m, n, &rng);
  const Matrix bmat = RandomMatrix(k, n, &rng);
  const Matrix a = RandomMatrix(m, k, &rng);
  std::vector<int> big_support;
  for (int r = 0; r < m; r += 2) big_support.push_back(r);
  const auto ref = MakeBackend(BackendKind::kReference, 1);

  for (const std::vector<int>& rows :
       {big_support, std::vector<int>{}, std::vector<int>{7}}) {
    SCOPED_TRACE("support size " + std::to_string(rows.size()));
    Matrix want_tb(m, k, 0.5);
    ref->GemmTransBAccumRows(g, bmat, &want_tb, rows);
    Matrix want_ta(k, n, -0.25);
    ref->GemmTransAAccumRows(a, g, &want_ta, rows);

    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto backend = MakeBackend(BackendKind::kParallel, threads);
      Matrix got_tb(m, k, 0.5);
      backend->GemmTransBAccumRows(g, bmat, &got_tb, rows);
      ExpectBitwiseEqual(want_tb, got_tb);
      Matrix got_ta(k, n, -0.25);
      backend->GemmTransAAccumRows(a, g, &got_ta, rows);
      ExpectBitwiseEqual(want_ta, got_ta);
    }
  }

  // 1-column edge shapes: dot over a single element, axpy of length 1.
  const Matrix g1 = RandomMatrix(m, 1, &rng);
  const Matrix b1 = RandomMatrix(1, 1, &rng);
  Matrix want1(m, 1);
  ref->GemmTransBAccumRows(g1, b1, &want1, big_support);
  Matrix got1(m, 1);
  MakeBackend(BackendKind::kParallel, 3)->GemmTransBAccumRows(g1, b1, &got1, big_support);
  ExpectBitwiseEqual(want1, got1);
}

TEST(BackendParityTest, SpmmAccumRowsRouteMatchesSerialReference) {
  Rng rng(33);
  const int nnodes = 400, ncols = 16;
  std::vector<Triplet> triplets;
  for (int i = 0; i < 12000; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(nnodes)),
                        static_cast<int>(rng.UniformInt(nnodes)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(nnodes, nnodes, triplets);
  const Matrix x = RandomMatrix(nnodes, ncols, &rng);
  std::vector<int> support;
  for (int r = 0; r < nnodes; r += 2) support.push_back(r);
  std::vector<uint8_t> mask(nnodes, 0);
  for (int r = 0; r < nnodes; r += 3) mask[static_cast<size_t>(r)] = 1;
  const auto ref = MakeBackend(BackendKind::kReference, 1);

  for (const std::vector<uint8_t>& m : {std::vector<uint8_t>{}, mask}) {
    SCOPED_TRACE(m.empty() ? "unmasked" : "masked");
    for (const std::vector<int>& rows : {support, std::vector<int>{}}) {
      SCOPED_TRACE("support size " + std::to_string(rows.size()));
      Matrix want(nnodes, ncols, 1.0);
      ref->SpmmAccumRows(sparse, x, -0.5, &want, rows, m);
      for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Matrix got(nnodes, ncols, 1.0);
        MakeBackend(BackendKind::kParallel, threads)
            ->SpmmAccumRows(sparse, x, -0.5, &got, rows, m);
        ExpectBitwiseEqual(want, got);
      }
    }
  }
}

TEST(BackendApplyTest, CoversRangeOnceUnderBothBackends) {
  for (const BackendKind kind : {BackendKind::kReference, BackendKind::kParallel}) {
    const auto backend = MakeBackend(kind, 3);
    std::vector<std::atomic<int>> hits(50000);
    backend->Apply(50000, 1024, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(BackendParityTest, VectorOpsMatchAcrossThreadCounts) {
  Rng rng(11);
  const int64_t n = 100001;  // > reduce-block and elementwise cutoffs, ragged
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();

  const auto ref = MakeBackend(BackendKind::kReference, 1);
  const double want_dot = ref->VDot(a.data(), b.data(), n);
  std::vector<double> want_axpy = b;
  ref->VAxpy(0.25, a.data(), want_axpy.data(), n);

  std::optional<double> dot1;
  std::vector<double> axpy1;
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto backend = MakeBackend(BackendKind::kParallel, threads);
    const double got_dot = backend->VDot(a.data(), b.data(), n);
    EXPECT_NEAR(got_dot, want_dot, kTol * std::fabs(want_dot));
    std::vector<double> got_axpy = b;
    backend->VAxpy(0.25, a.data(), got_axpy.data(), n);
    double max_diff = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      max_diff = std::max(max_diff, std::fabs(got_axpy[i] - want_axpy[i]));
    }
    EXPECT_LT(max_diff, kTol);
    // Bitwise determinism across thread counts, including the fma'd tails.
    if (!dot1.has_value()) {
      dot1 = got_dot;
      axpy1 = got_axpy;
    } else {
      EXPECT_EQ(got_dot, *dot1);
      ASSERT_EQ(got_axpy.size(), axpy1.size());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got_axpy[i], axpy1[i]) << "index " << i;
      }
    }
  }
}

// Fused CG kernels (VAxpyDot / VDotAxpy). Contracts from backend.h:
//   * VAxpyDot updates y exactly like VAxpy and returns the bits a follow-up
//     VDot(y, y) would produce — on every backend, for every thread count.
//   * VDotAxpy computes y = x + beta*y elementwise; a follow-up VDot(y, y)
//     reproduces the returned bits; and the result is thread-count invariant.
// Sizes straddle the parallel elementwise cutoff and the reduce block, with
// ragged tails.
TEST(BackendParityTest, FusedCgKernelsHonourTheirContracts) {
  Rng rng(23);
  for (const int64_t n : {int64_t{7}, int64_t{1013}, int64_t{40003}, int64_t{100001}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> x(n), y0(n);
    for (auto& v : x) v = rng.Normal();
    for (auto& v : y0) v = rng.Normal();

    for (BackendKind kind : {BackendKind::kReference, BackendKind::kParallel}) {
      SCOPED_TRACE(BackendKindName(kind));
      std::optional<double> axpy_dot1;
      std::vector<double> axpy_y1;
      std::optional<double> xpay_dot1;
      std::vector<double> xpay_y1;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const auto backend = MakeBackend(kind, threads);

        // VAxpyDot == VAxpy then VDot(y, y), bitwise.
        std::vector<double> y_fused = y0;
        const double fused = backend->VAxpyDot(0.37, x.data(), y_fused.data(), n);
        std::vector<double> y_unfused = y0;
        backend->VAxpy(0.37, x.data(), y_unfused.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(y_fused[i], y_unfused[i]) << "VAxpyDot update differs at " << i;
        }
        EXPECT_EQ(fused, backend->VDot(y_fused.data(), y_fused.data(), n));

        // VDotAxpy: y = x + beta*y; follow-up VDot reproduces the bits.
        std::vector<double> y_dir = y0;
        const double dir_norm = backend->VDotAxpy(-0.58, x.data(), y_dir.data(), n);
        EXPECT_EQ(dir_norm, backend->VDot(y_dir.data(), y_dir.data(), n));
        for (int64_t i = 0; i < n; ++i) {
          const double want = x[i] + (-0.58) * y0[i];
          ASSERT_NEAR(y_dir[i], want, 1e-12 * std::max(1.0, std::fabs(want)))
              << "VDotAxpy update wrong at " << i;
        }

        // Thread-count invariance of both fused kernels, bitwise.
        if (!axpy_dot1.has_value()) {
          axpy_dot1 = fused;
          axpy_y1 = y_fused;
          xpay_dot1 = dir_norm;
          xpay_y1 = y_dir;
        } else {
          EXPECT_EQ(fused, *axpy_dot1);
          EXPECT_EQ(dir_norm, *xpay_dot1);
          for (int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(y_fused[i], axpy_y1[i]) << "VAxpyDot thread variance at " << i;
            ASSERT_EQ(y_dir[i], xpay_y1[i]) << "VDotAxpy thread variance at " << i;
          }
        }
      }
    }
  }
}

// The autograd layer must stay numerically correct under either backend:
// grad-check ag::MatMul and ag::SpMM with each one active.
class AutogradUnderBackend : public ::testing::TestWithParam<BackendKind> {};

TEST_P(AutogradUnderBackend, MatMulGradCheck) {
  ScopedBackend scoped(GetParam(), 3);
  Rng rng(21);
  ag::Parameter a("a", RandomMatrix(6, 9, &rng));
  ag::Parameter b("b", RandomMatrix(9, 4, &rng));
  auto build = [&](ag::Tape& t) {
    return ag::MeanAll(ag::Square(ag::MatMul(t.Leaf(&a), t.Leaf(&b))));
  };
  const ag::GradCheckResult r = ag::GradCheck(build, {&a, &b}, &rng);
  EXPECT_LT(r.max_rel_error, 1e-5);
}

TEST_P(AutogradUnderBackend, SpMMGradCheck) {
  ScopedBackend scoped(GetParam(), 3);
  Rng rng(22);
  ag::Parameter x("x", RandomMatrix(8, 5, &rng));
  std::vector<Triplet> triplets;
  for (int i = 0; i < 24; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(8)),
                        static_cast<int>(rng.UniformInt(8)), rng.Normal()});
  }
  auto sp = ag::MakeSparseOperand(CsrMatrix::FromTriplets(8, 8, triplets),
                                  /*symmetric=*/false);
  auto build = [&](ag::Tape& t) {
    return ag::MeanAll(ag::Square(ag::SpMM(sp, t.Leaf(&x))));
  };
  const ag::GradCheckResult r = ag::GradCheck(build, {&x}, &rng);
  EXPECT_LT(r.max_rel_error, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Backends, AutogradUnderBackend,
                         ::testing::Values(BackendKind::kReference,
                                           BackendKind::kParallel),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return BackendKindName(info.param);
                         });

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeAndLargeGrain) {
  ThreadPool pool(3);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Grain larger than the range -> single inline chunk on the caller.
  pool.ParallelFor(0, 10, 100, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyInvocations) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 257, 8, [&](int64_t lo, int64_t hi) {
      int64_t local = 0;
      for (int64_t i = lo; i < hi; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(MatrixCheckTest, FromRowsRejectsRaggedInput) {
  EXPECT_DEATH(Matrix::FromRows({{1.0, 2.0}, {3.0}}), "ragged");
}

#ifndef NDEBUG
TEST(MatrixCheckTest, DebugBoundsCheckOnAccess) {
  Matrix m(2, 3);
  EXPECT_DEATH((void)m(2, 0), "out of range");
  EXPECT_DEATH((void)m(0, 3), "out of range");
  EXPECT_DEATH((void)m(-1, 0), "out of range");
  EXPECT_DEATH((void)m.row(5), "out of range");
}
#endif

}  // namespace
}  // namespace ppfr::la
