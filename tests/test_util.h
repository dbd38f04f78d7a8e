#ifndef PPFR_TESTS_TEST_UTIL_H_
#define PPFR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/sbm.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"

namespace ppfr::testing {

// setenv/restore guard for environment variables the library samples
// (PPFR_LA_BACKEND, PPFR_LA_THREADS, PPFR_RUN_CACHE_DIR).
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnvVar() {
    if (previous_.has_value()) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnvVar(const ScopedEnvVar&) = delete;
  ScopedEnvVar& operator=(const ScopedEnvVar&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

// The same CSR arrays, values compared bit for bit.
inline void ExpectSameCsrBits(const la::CsrMatrix& got, const la::CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (size_t k = 0; k < want.values().size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.values()[k]), std::bit_cast<uint64_t>(want.values()[k]))
        << "entry " << k;
  }
}

// The same shape and the same bytes (NaN payloads and signed zeros
// included).
inline void ExpectSameMatrixBytes(const la::Matrix& got, const la::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  if (want.size() == 0) return;  // memcmp may not see a null buffer
  ASSERT_EQ(std::memcmp(got.data(), want.data(), static_cast<size_t>(want.size()) * sizeof(double)),
            0);
}

// A small deterministic SBM instance for fast tests.
inline data::NodeClassificationData SmallSbm(uint64_t seed = 42, int num_nodes = 120,
                                             int num_classes = 3) {
  data::SbmConfig cfg;
  cfg.name = "test-sbm";
  cfg.num_nodes = num_nodes;
  cfg.num_classes = num_classes;
  cfg.feature_dim = 24;
  cfg.homophily = 0.85;
  cfg.average_degree = 6.0;
  cfg.signature_size = 6;
  cfg.feature_on_prob = 0.5;
  cfg.feature_noise_prob = 0.03;
  return data::GenerateSbm(cfg, seed);
}

// Gives `data` the two feature rows a sparse feature operand must get right
// next to the bag-of-words rows: row 0 all zero (an empty CSR row) and row 1
// fully dense with non-binary values.
inline void AddFeatureEdgeRows(data::NodeClassificationData* data) {
  Rng rng(5);
  for (int c = 0; c < data->features.cols(); ++c) {
    data->features(0, c) = 0.0;
    data->features(1, c) = rng.Uniform(0.5, 1.5);
  }
}

// Random dense matrix with entries ~ N(0, 1).
inline la::Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  la::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

// A fixed small graph:   0-1, 1-2, 2-3, 3-0, 0-2  (square with one diagonal)
// plus a pendant 4-0 and an isolated node 5.
inline graph::Graph SmallGraph() {
  return graph::Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 0}});
}

}  // namespace ppfr::testing

#endif  // PPFR_TESTS_TEST_UTIL_H_
