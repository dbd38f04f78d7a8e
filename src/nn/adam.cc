#include "nn/adam.h"

#include <cmath>

#include "common/check.h"

namespace ppfr::nn {

Adam::Adam(std::vector<ag::Parameter*> params, const Options& options)
    : params_(std::move(params)), options_(options) {
  PPFR_CHECK(!params_.empty());
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (ag::Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++step_;
  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Parameter* p = params_[i];
    double* value = p->value.data();
    const double* grad = p->grad.data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    for (int64_t k = 0; k < p->size(); ++k) {
      const double g = grad[k] + options_.weight_decay * value[k];
      m[k] = options_.beta1 * m[k] + (1.0 - options_.beta1) * g;
      v[k] = options_.beta2 * v[k] + (1.0 - options_.beta2) * g * g;
      const double m_hat = m[k] / bc1;
      const double v_hat = v[k] / bc2;
      value[k] -= options_.lr * m_hat / (std::sqrt(v_hat) + options_.epsilon);
    }
  }
}

}  // namespace ppfr::nn
