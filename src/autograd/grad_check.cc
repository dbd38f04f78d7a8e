#include "autograd/grad_check.h"

#include <algorithm>
#include <cmath>

namespace ppfr::ag {
namespace {

// The finite-difference rounding allowance, in ulps of the larger loss.
constexpr double kRoundingUlps = 4.0;

}  // namespace

GradCheckResult GradCheck(const std::function<Var(Tape&)>& build,
                          const std::vector<Parameter*>& params, Rng* rng,
                          int samples_per_param, double epsilon) {
  // Analytic gradients.
  for (Parameter* p : params) p->ZeroGrad();
  std::vector<la::Matrix> analytic;
  {
    Tape tape;
    Var loss = build(tape);
    tape.Backward(loss);
  }
  analytic.reserve(params.size());
  for (Parameter* p : params) analytic.push_back(p->grad);

  auto eval = [&]() {
    Tape tape;
    return build(tape).scalar();
  };

  GradCheckResult result;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    const int64_t total = p->size();
    const int samples = static_cast<int>(std::min<int64_t>(samples_per_param, total));
    for (int s = 0; s < samples; ++s) {
      const int64_t idx = rng->UniformInt(total);
      double* cell = p->value.data() + idx;
      const double saved = *cell;
      *cell = saved + epsilon;
      const double f_plus = eval();
      *cell = saved - epsilon;
      const double f_minus = eval();
      *cell = saved;
      const double numeric = (f_plus - f_minus) / (2.0 * epsilon);
      const double exact = analytic[pi].data()[idx];
      // Both losses are rounded, so a few ulps between them are rounding,
      // not slope: an error within that noise counts as none.
      const double loss = std::max(std::fabs(f_plus), std::fabs(f_minus));
      const double noise =
          kRoundingUlps * (std::nextafter(loss, INFINITY) - loss) / (2.0 * epsilon);
      double abs_err = std::fabs(numeric - exact);
      if (abs_err <= noise) abs_err = 0.0;
      const double denom = std::max({std::fabs(numeric), std::fabs(exact), 1e-8});
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
      ++result.entries_checked;
    }
  }
  return result;
}

}  // namespace ppfr::ag
