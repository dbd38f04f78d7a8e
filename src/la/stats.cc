#include "la/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ppfr::la {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double PearsonCorrelation(const std::vector<double>& xs, const std::vector<double>& ys) {
  PPFR_CHECK_EQ(xs.size(), ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double AucFromScores(const std::vector<double>& scores_pos,
                     const std::vector<double>& scores_neg) {
  PPFR_CHECK(!scores_pos.empty());
  PPFR_CHECK(!scores_neg.empty());
  // Rank-sum formulation: sort the union, sum the (tie-averaged) ranks of the
  // positives, then U = R_pos - n_pos (n_pos + 1) / 2 and AUC = U / (n_pos n_neg).
  struct Entry {
    double score;
    bool positive;
  };
  std::vector<Entry> all;
  all.reserve(scores_pos.size() + scores_neg.size());
  for (double s : scores_pos) all.push_back({s, true});
  for (double s : scores_neg) all.push_back({s, false});
  std::sort(all.begin(), all.end(),
            [](const Entry& a, const Entry& b) { return a.score < b.score; });

  double rank_sum_pos = 0.0;
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    while (j < all.size() && all[j].score == all[i].score) ++j;
    // Average rank of the tie group, 1-based.
    const double avg_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t k = i; k < j; ++k) {
      if (all[k].positive) rank_sum_pos += avg_rank;
    }
    i = j;
  }
  const double n_pos = static_cast<double>(scores_pos.size());
  const double n_neg = static_cast<double>(scores_neg.size());
  const double u = rank_sum_pos - n_pos * (n_pos + 1.0) / 2.0;
  return u / (n_pos * n_neg);
}

}  // namespace ppfr::la
