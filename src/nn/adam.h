#ifndef PPFR_NN_ADAM_H_
#define PPFR_NN_ADAM_H_

#include <vector>

#include "autograd/tape.h"

namespace ppfr::nn {

// Adam optimiser (Kingma & Ba) with classic L2 weight decay folded into the
// gradient. Operates in-place on the registered parameters.
class Adam {
 public:
  struct Options {
    double lr = 0.01;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<ag::Parameter*> params, const Options& options);

  // Applies one update from the gradients currently stored in the params,
  // then leaves gradients untouched (caller zeroes them).
  void Step();

  const Options& options() const { return options_; }
  void set_lr(double lr) { options_.lr = lr; }

 private:
  std::vector<ag::Parameter*> params_;
  Options options_;
  std::vector<la::Matrix> m_;
  std::vector<la::Matrix> v_;
  int64_t step_ = 0;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_ADAM_H_
