#include "solver/projections.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ppfr::solver {

void ProjectBox(double lo, double hi, std::vector<double>* w) {
  PPFR_CHECK_LE(lo, hi);
  for (double& x : *w) x = std::clamp(x, lo, hi);
}

void ProjectBall(double radius_sq, std::vector<double>* w) {
  PPFR_CHECK_GE(radius_sq, 0.0);
  double norm_sq = 0.0;
  for (double x : *w) norm_sq += x * x;
  if (norm_sq <= radius_sq || norm_sq == 0.0) return;
  const double scale = std::sqrt(radius_sq / norm_sq);
  for (double& x : *w) x *= scale;
}

void ProjectHalfspace(const std::vector<double>& u, double offset,
                      std::vector<double>* w) {
  PPFR_CHECK_EQ(u.size(), w->size());
  double dot = 0.0, norm_sq = 0.0;
  for (size_t i = 0; i < u.size(); ++i) {
    dot += u[i] * (*w)[i];
    norm_sq += u[i] * u[i];
  }
  if (dot <= offset || norm_sq == 0.0) return;
  const double step = (dot - offset) / norm_sq;
  for (size_t i = 0; i < u.size(); ++i) (*w)[i] -= step * u[i];
}

void ProjectHyperplane(const std::vector<double>& u, double offset,
                       std::vector<double>* w) {
  PPFR_CHECK_EQ(u.size(), w->size());
  double dot = 0.0, norm_sq = 0.0;
  for (size_t i = 0; i < u.size(); ++i) {
    dot += u[i] * (*w)[i];
    norm_sq += u[i] * u[i];
  }
  if (norm_sq == 0.0) return;
  const double step = (dot - offset) / norm_sq;
  for (size_t i = 0; i < u.size(); ++i) (*w)[i] -= step * u[i];
}

void DykstraProject(const std::vector<ProjectionFn>& sets,
                    const DykstraOptions& options, std::vector<double>* w) {
  PPFR_CHECK(!sets.empty());
  const size_t n = w->size();
  std::vector<std::vector<double>> corrections(sets.size(), std::vector<double>(n, 0.0));
  std::vector<double> y(n);
  std::vector<double> projected(n);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    double change_sq = 0.0;
    for (size_t set_idx = 0; set_idx < sets.size(); ++set_idx) {
      std::vector<double>& correction = corrections[set_idx];
      for (size_t i = 0; i < n; ++i) y[i] = (*w)[i] + correction[i];
      projected = y;  // same size: no allocation
      sets[set_idx](&projected);
      for (size_t i = 0; i < n; ++i) {
        correction[i] = y[i] - projected[i];
        change_sq += (projected[i] - (*w)[i]) * (projected[i] - (*w)[i]);
        (*w)[i] = projected[i];
      }
    }
    if (change_sq < options.tolerance) break;
  }

  // Feasibility polish: Dykstra's change-based stopping can leave tiny
  // (~1e-5) constraint violations. Plain cyclic projections (POCS) converge
  // to a feasible point and barely move an almost-feasible one.
  for (int sweep = 0; sweep < options.polish_sweeps; ++sweep) {
    for (const ProjectionFn& project : sets) project(w);
  }
}

void ProjectIntersection(double box_lo, double box_hi, double ball_radius_sq,
                         const std::vector<double>& halfspace_u,
                         double halfspace_offset, const DykstraOptions& options,
                         std::vector<double>* w) {
  std::vector<ProjectionFn> sets;
  sets.push_back([box_lo, box_hi](std::vector<double>* v) {
    ProjectBox(box_lo, box_hi, v);
  });
  sets.push_back([ball_radius_sq](std::vector<double>* v) {
    ProjectBall(ball_radius_sq, v);
  });
  sets.push_back([&halfspace_u, halfspace_offset](std::vector<double>* v) {
    ProjectHalfspace(halfspace_u, halfspace_offset, v);
  });
  DykstraProject(sets, options, w);
}

}  // namespace ppfr::solver
