#ifndef PPFR_AUTOGRAD_GRAD_CHECK_H_
#define PPFR_AUTOGRAD_GRAD_CHECK_H_

#include <functional>
#include <vector>

#include "autograd/tape.h"
#include "common/rng.h"

namespace ppfr::ag {

// Result of a numerical gradient verification.
struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  int entries_checked = 0;
};

// Verifies analytic gradients of a scalar expression against central finite
// differences. `build` must construct the loss expression on the given tape
// from the *current* values of `params` (it is re-invoked after each
// perturbation). `samples_per_param` entries of every parameter are probed.
// An entry's error counts as 0 when |numeric − analytic| is within
// 4·ulp(max(|f+|, |f−|))/(2ε): there the two perturbed losses may differ by
// rounding alone. (Without it, an entry whose true derivative is 0
// fails as soon as f+ and f− round one ulp apart, reading ulp/2ε as error.)
GradCheckResult GradCheck(const std::function<Var(Tape&)>& build,
                          const std::vector<Parameter*>& params, Rng* rng,
                          int samples_per_param = 12, double epsilon = 1e-5);

}  // namespace ppfr::ag

#endif  // PPFR_AUTOGRAD_GRAD_CHECK_H_
