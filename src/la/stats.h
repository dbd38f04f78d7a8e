#ifndef PPFR_LA_STATS_H_
#define PPFR_LA_STATS_H_

#include <vector>

namespace ppfr::la {

// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

// Population variance (divides by n); 0 for fewer than two samples.
double Variance(const std::vector<double>& xs);

// Pearson correlation coefficient in [-1, 1]; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& xs, const std::vector<double>& ys);

// Area under the ROC curve for a binary classification where `scores_pos`
// should rank ABOVE `scores_neg`. Computed with the Mann-Whitney U statistic
// with tie correction: AUC = P(pos > neg) + 0.5 P(pos == neg).
double AucFromScores(const std::vector<double>& scores_pos,
                     const std::vector<double>& scores_neg);

}  // namespace ppfr::la

#endif  // PPFR_LA_STATS_H_
