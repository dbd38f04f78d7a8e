#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "la/backend.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"
#include "la/stats.h"
#include "test_util.h"

namespace ppfr::la {
namespace {

using ::ppfr::testing::ExpectSameCsrBits;
using ::ppfr::testing::RandomMatrix;

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
}

// The uninitialised-shape constructor must count one allocation and register
// its bytes exactly as the zeroing constructor does (the scale benchmark's
// la.matrix_allocs and la.arena_peak_mb read these), and builds without
// NDEBUG hand out NaN so that a writer which misses an element shows it. The
// zeroing constructor must still zero a buffer an uninitialised one used.
TEST(MatrixTest, UninitializedShapeCountsAndRegistersLikeZeroing) {
  for (const auto& [rows, cols] : {std::pair{37, 11}, std::pair{0, 5}, std::pair{6, 0}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    const auto measure = [](auto make) {
      const int64_t allocs = MatrixAllocCount();
      const int64_t bytes = ArenaBytesInUse();
      ResetArenaPeakBytes();
      const Matrix m = make();
      return std::tuple{MatrixAllocCount() - allocs, ArenaBytesInUse() - bytes,
                        ArenaPeakBytes() - bytes};
    };
    const auto zeroing = measure([&] { return Matrix(rows, cols); });
    const auto uninitialized = measure([&] { return Matrix(rows, cols, kUninitialized); });
    EXPECT_EQ(uninitialized, zeroing);
    EXPECT_EQ(std::get<0>(zeroing), rows * cols > 0 ? 1 : 0);
    EXPECT_EQ(std::get<1>(zeroing), int64_t{rows} * cols * int64_t{sizeof(double)});

    Matrix fresh(rows, cols, kUninitialized);
    EXPECT_EQ(fresh.rows(), rows);
    EXPECT_EQ(fresh.cols(), cols);
#ifndef NDEBUG
    for (int64_t i = 0; i < fresh.size(); ++i) {
      EXPECT_TRUE(std::isnan(fresh.data()[i])) << "entry " << i;
    }
#endif
    fresh.Fill(7.0);
    fresh = Matrix();
    const Matrix zeroed(rows, cols);
    for (int64_t i = 0; i < zeroed.size(); ++i) EXPECT_EQ(zeroed.data()[i], 0.0);
  }
}

TEST(MatrixTest, MatMulKnownValues) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposedMatMulVariantsAgree) {
  Rng rng(3);
  const Matrix a = RandomMatrix(4, 6, &rng);
  const Matrix b = RandomMatrix(4, 5, &rng);
  // aᵀ b via MatMulTransA vs explicit transpose.
  const Matrix direct = MatMulTransA(a, b);
  const Matrix reference = MatMul(Transpose(a), b);
  EXPECT_LT(Sub(direct, reference).MaxAbs(), 1e-12);

  const Matrix c = RandomMatrix(5, 6, &rng);
  const Matrix direct2 = MatMulTransB(a, c);  // (4,6) x (5,6)ᵀ -> 4x5
  const Matrix reference2 = MatMul(a, Transpose(c));
  EXPECT_LT(Sub(direct2, reference2).MaxAbs(), 1e-12);
}

TEST(MatrixTest, AxpyScaleSumNorm) {
  Matrix m = Matrix::FromRows({{1, -2}, {3, 0}});
  const Matrix other = Matrix::FromRows({{1, 1}, {1, 1}});
  m.Axpy(2.0, other);
  EXPECT_DOUBLE_EQ(m(0, 0), 3);
  EXPECT_DOUBLE_EQ(m(0, 1), 0);
  m.Scale(0.5);
  EXPECT_DOUBLE_EQ(m(1, 0), 2.5);
  EXPECT_DOUBLE_EQ(Matrix::FromRows({{3, 4}}).FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(Matrix::FromRows({{-7, 4}}).MaxAbs(), 7.0);
  EXPECT_DOUBLE_EQ(Matrix::FromRows({{1, 2}, {3, 4}}).SumAll(), 10.0);
}

TEST(MatrixTest, HadamardAndDot) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{2, 0}, {1, -1}});
  const Matrix h = Hadamard(a, b);
  EXPECT_DOUBLE_EQ(h(0, 0), 2);
  EXPECT_DOUBLE_EQ(h(1, 1), -4);
  EXPECT_DOUBLE_EQ(Dot(a, b), 2 + 0 + 3 - 4);
}

TEST(MatrixTest, SoftmaxRowsIsNormalizedAndShiftInvariant) {
  const Matrix logits = Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}});
  const Matrix p = SoftmaxRows(logits);
  for (int r = 0; r < 2; ++r) {
    double sum = 0;
    for (int c = 0; c < 3; ++c) {
      EXPECT_GT(p(r, c), 0.0);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Shift invariance.
  Matrix shifted = logits;
  for (int c = 0; c < 3; ++c) shifted(0, c) += 100.0;
  const Matrix p2 = SoftmaxRows(shifted);
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(p(0, c), p2(0, c), 1e-12);
}

TEST(MatrixTest, ArgmaxRowsBreaksTiesLow) {
  const Matrix m = Matrix::FromRows({{1, 3, 2}, {5, 5, 1}, {0, 0, 0}});
  const std::vector<int> amax = ArgmaxRows(m);
  EXPECT_EQ(amax[0], 1);
  EXPECT_EQ(amax[1], 0);
  EXPECT_EQ(amax[2], 0);
}

TEST(CsrMatrixTest, FromTripletsDeduplicatesAndSorts) {
  const CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{0, 2, 1.0}, {0, 1, 2.0}, {0, 2, 3.0}, {2, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 4.0);  // summed duplicates
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  Rng rng(5);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 40; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(8)),
                        static_cast<int>(rng.UniformInt(6)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(8, 6, triplets);
  const Matrix x = RandomMatrix(6, 4, &rng);
  const Matrix got = sparse.Multiply(x);
  const Matrix want = MatMul(sparse.ToDense(), x);
  EXPECT_LT(Sub(got, want).MaxAbs(), 1e-12);
}

TEST(CsrMatrixTest, TransposedIsCorrect) {
  const CsrMatrix m = CsrMatrix::FromTriplets(2, 3, {{0, 1, 5.0}, {1, 2, -2.0}});
  const CsrMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.At(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.At(2, 1), -2.0);
}

// The counting-sort transpose equals the triplet-built one bit for bit:
// rectangular shapes both ways, empty rows and columns, and no entries.
TEST(CsrMatrixTest, TransposedEqualsTripletTranspose) {
  Rng rng(6);
  for (const auto& [rows, cols, nnz] :
       {std::tuple{7, 19, 40}, std::tuple{23, 5, 60}, std::tuple{9, 9, 0},
        std::tuple{0, 4, 0}, std::tuple{4, 0, 0}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    std::vector<Triplet> triplets;
    for (int i = 0; i < nnz; ++i) {
      // Rows 0 mod 3 and columns 0 mod 4 stay empty.
      const int r = static_cast<int>(rng.UniformInt(rows));
      const int c = static_cast<int>(rng.UniformInt(cols));
      if (r % 3 == 0 || c % 4 == 0) continue;
      triplets.push_back({r, c, rng.Normal()});
    }
    const CsrMatrix m = CsrMatrix::FromTriplets(rows, cols, triplets);
    std::vector<Triplet> flipped;
    for (int r = 0; r < m.rows(); ++r) {
      for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
        flipped.push_back({m.col_idx()[k], r, m.values()[k]});
      }
    }
    ExpectSameCsrBits(m.Transposed(), CsrMatrix::FromTriplets(cols, rows, flipped));
  }
}

// FromDense as first written, the oracle for the two-pass parallel build:
// one row-major pass appending every entry that is not == 0.0.
CsrMatrix SerialFromDense(const Matrix& dense) {
  std::vector<int64_t> row_ptr(static_cast<size_t>(dense.rows()) + 1, 0);
  std::vector<int> col_idx;
  std::vector<double> values;
  for (int r = 0; r < dense.rows(); ++r) {
    for (int c = 0; c < dense.cols(); ++c) {
      if (dense(r, c) == 0.0) continue;
      col_idx.push_back(c);
      values.push_back(dense(r, c));
    }
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return CsrMatrix::FromSortedRows(dense.rows(), dense.cols(), std::move(row_ptr),
                                   std::move(col_idx), std::move(values));
}

// At 1 and 4 backend threads: a small matrix of edge cases (an empty row,
// -0.0, which == 0.0 drops, NaN, which it keeps, and infinities) and a 10^4 x
// 32 random 0/1 matrix with the same cases planted at its ends and inside,
// several row chunks at 4 threads.
TEST(CsrMatrixTest, FromDenseEqualsSerialBuildAtAnyThreadCount) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix small = Matrix::FromRows(
      {{0.0, 0.0, 0.0}, {-0.0, 1.5, nan}, {inf, -0.0, -2.0}, {0.0, 0.0, 0.0}});
  Rng rng(8);
  Matrix large(10000, 32);
  for (int64_t i = 0; i < large.size(); ++i) large.data()[i] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  for (const int r : {0, 2500, 9999}) {
    for (int c = 0; c < large.cols(); ++c) large(r, c) = 0.0;  // empty rows
  }
  large(1, 0) = -0.0;
  large(1, 31) = nan;
  large(5000, 7) = -0.0;
  large(5000, 8) = nan;
  large(9998, 31) = -inf;
  const Matrix empty_rows(0, 5);
  const Matrix empty_cols(6, 0);
  const std::vector<const Matrix*> cases{&small, &large, &empty_rows, &empty_cols};
  for (const int threads : {1, 4}) {
    ScopedBackend scoped(BackendKind::kParallel, threads);
    for (const Matrix* dense : cases) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " " +
                   std::to_string(dense->rows()) + "x" + std::to_string(dense->cols()));
      ExpectSameCsrBits(CsrMatrix::FromDense(*dense), SerialFromDense(*dense));
    }
  }
  const CsrMatrix m = CsrMatrix::FromDense(small);
  EXPECT_EQ(m.row_ptr(), (std::vector<int64_t>{0, 0, 2, 4, 4}));
  EXPECT_EQ(m.col_idx(), (std::vector<int>{1, 2, 0, 2}));
}

TEST(CsrMatrixTest, MultiplyAccumAddsScaled) {
  const CsrMatrix m = CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  const Matrix x = Matrix::FromRows({{1, 1}, {1, 1}});
  Matrix out(2, 2, 10.0);
  m.MultiplyAccum(x, 0.5, &out);
  EXPECT_DOUBLE_EQ(out(0, 0), 10.5);
  EXPECT_DOUBLE_EQ(out(1, 0), 11.0);
}

TEST(StatsTest, MeanVarianceKnown) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Variance({1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({0, 2}), 1.0);  // population variance
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PearsonPerfectAndAnti) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);  // constant side
}

TEST(StatsTest, AucPerfectSeparation) {
  EXPECT_DOUBLE_EQ(AucFromScores({5, 6, 7}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(AucFromScores({1, 2, 3}, {5, 6, 7}), 0.0);
}

TEST(StatsTest, AucWithTiesIsHalf) {
  EXPECT_DOUBLE_EQ(AucFromScores({1, 1, 1}, {1, 1}), 0.5);
}

TEST(StatsTest, AucOverlappingKnownValue) {
  // pos {2, 4}, neg {1, 3}: pairs (2>1), (2<3), (4>1), (4>3) -> 3/4.
  EXPECT_DOUBLE_EQ(AucFromScores({2, 4}, {1, 3}), 0.75);
}

TEST(StatsTest, AucOnRandomScoresIsNearHalf) {
  Rng rng(9);
  std::vector<double> pos(2000), neg(2000);
  for (auto& v : pos) v = rng.Normal();
  for (auto& v : neg) v = rng.Normal();
  EXPECT_NEAR(AucFromScores(pos, neg), 0.5, 0.03);
}

// Property sweep: SpMM distributes over addition for random sparse matrices.
class CsrPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrPropertySweep, MultiplyIsLinear) {
  Rng rng(GetParam());
  std::vector<Triplet> triplets;
  for (int i = 0; i < 60; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(10)),
                        static_cast<int>(rng.UniformInt(10)), rng.Normal()});
  }
  const CsrMatrix m = CsrMatrix::FromTriplets(10, 10, triplets);
  const Matrix x = RandomMatrix(10, 3, &rng);
  const Matrix y = RandomMatrix(10, 3, &rng);
  const Matrix lhs = m.Multiply(Add(x, y));
  const Matrix rhs = Add(m.Multiply(x), m.Multiply(y));
  EXPECT_LT(Sub(lhs, rhs).MaxAbs(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrPropertySweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace ppfr::la
