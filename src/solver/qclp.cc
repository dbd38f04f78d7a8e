#include "solver/qclp.h"

#include <cmath>

#include "common/check.h"

namespace ppfr::solver {
namespace {

double Objective(const std::vector<double>& c, const std::vector<double>& w) {
  double s = 0.0;
  for (size_t i = 0; i < c.size(); ++i) s += c[i] * w[i];
  return s;
}

// The convex sets whose intersection is the feasible region, in the order
// Dykstra visits them.
std::vector<ProjectionFn> FeasibleSets(const QclpProblem& p) {
  std::vector<ProjectionFn> sets;
  sets.push_back(
      [&p](std::vector<double>* v) { ProjectBox(p.box_lo, p.box_hi, v); });
  sets.push_back(
      [&p](std::vector<double>* v) { ProjectBall(p.ball_radius_sq, v); });
  if (!p.halfspace_u.empty()) {
    sets.push_back([&p](std::vector<double>* v) {
      ProjectHalfspace(p.halfspace_u, p.halfspace_offset, v);
    });
  }
  if (p.zero_sum) {
    sets.push_back([ones = std::vector<double>(p.objective.size(), 1.0)](
                       std::vector<double>* v) { ProjectHyperplane(ones, 0.0, v); });
  }
  return sets;
}

}  // namespace

QclpResult SolveQclp(const QclpProblem& problem, const QclpOptions& options) {
  const size_t n = problem.objective.size();
  PPFR_CHECK_GT(n, 0u);
  if (!problem.halfspace_u.empty()) {
    PPFR_CHECK_EQ(problem.halfspace_u.size(), n);
  }

  double c_norm = 0.0;
  for (double c : problem.objective) c_norm += c * c;
  c_norm = std::sqrt(c_norm);

  const std::vector<ProjectionFn> sets = FeasibleSets(problem);
  QclpResult result;
  result.w.assign(n, 0.0);
  DykstraProject(sets, options.dykstra, &result.w);  // feasible start
  double best_value = Objective(problem.objective, result.w);
  std::vector<double> best_w = result.w;

  if (c_norm == 0.0) {
    result.objective_value = best_value;
    return result;
  }

  const double step0 = options.initial_step > 0.0
                           ? options.initial_step
                           : std::sqrt(problem.ball_radius_sq) / c_norm;
  std::vector<double> w = result.w;
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double step = step0 / std::sqrt(static_cast<double>(it));
    for (size_t i = 0; i < n; ++i) w[i] -= step * problem.objective[i];
    DykstraProject(sets, options.dykstra, &w);
    const double value = Objective(problem.objective, w);
    if (value < best_value) {
      best_value = value;
      best_w = w;
    }
    result.iterations = it;
  }
  result.w = std::move(best_w);
  result.objective_value = best_value;
  return result;
}

QclpResult SolveLiLiuLp(const std::vector<double>& objective,
                        const QclpOptions& options) {
  QclpProblem problem;
  problem.objective = objective;
  // Only box + sum preservation: emulate "no ball" with a radius covering the
  // whole box (‖w‖² <= n when w ∈ [-1,1]^n).
  problem.ball_radius_sq = static_cast<double>(objective.size());
  problem.zero_sum = true;
  return SolveQclp(problem, options);
}

bool IsFeasible(const QclpProblem& problem, const std::vector<double>& w,
                double slack) {
  double norm_sq = 0.0;
  for (double x : w) {
    if (x < problem.box_lo - slack || x > problem.box_hi + slack) return false;
    norm_sq += x * x;
  }
  if (norm_sq > problem.ball_radius_sq + slack) return false;
  if (!problem.halfspace_u.empty()) {
    double dot = 0.0;
    for (size_t i = 0; i < w.size(); ++i) dot += problem.halfspace_u[i] * w[i];
    if (dot > problem.halfspace_offset + slack) return false;
  }
  if (problem.zero_sum) {
    double sum = 0.0;
    for (double x : w) sum += x;
    if (std::fabs(sum) > slack * static_cast<double>(w.size())) return false;
  }
  return true;
}

}  // namespace ppfr::solver
