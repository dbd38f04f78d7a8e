#ifndef PPFR_COMMON_RECOVERABLE_H_
#define PPFR_COMMON_RECOVERABLE_H_

#include <exception>
#include <string>
#include <utility>

namespace ppfr {

// The single sanctioned exception type in an otherwise exception-free
// codebase: a DATA-DEPENDENT runtime failure — a training run diverging into
// a non-finite loss, or the block-CG solver collapsing even after its
// single-RHS fallback. Stage code throws it instead of PPFR_CHECK-aborting on
// such conditions; the scenario runner catches it at the cell boundary and
// marks that one cell failed while the rest of the grid completes. Every
// such failure is deterministic (the same inputs fail the same way), so
// nothing retries it. Programming errors and environmental misconfiguration
// still abort via PPFR_CHECK — nothing else in this library throws, and
// nothing else catches.
class RecoverableError : public std::exception {
 public:
  explicit RecoverableError(std::string message) : message_(std::move(message)) {}

  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

}  // namespace ppfr

#endif  // PPFR_COMMON_RECOVERABLE_H_
