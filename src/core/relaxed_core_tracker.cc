#include "core/relaxed_core_tracker.h"

#include <algorithm>

#include "geom/box.h"
#include "geom/simd_kernels.h"

namespace ddc {

RelaxedCoreTracker::RelaxedCoreTracker(const Grid* grid,
                                       const DbscanParams& params)
    : grid_(grid),
      params_(params),
      filter_sq_(params.eps_outer() * params.eps_outer()) {
  params_.Validate();
}

bool RelaxedCoreTracker::QueryCore(PointId pid) const {
  const Point& q = grid_->point(pid);
  const int dim = params_.dim;
  const int cap = params_.min_pts;
  const double eps_sq = params_.eps * params_.eps;
  const double side = grid_->side();
  // Same-cell points are within ε of q by the grid geometry (side ε/√d), so
  // the whole own cell counts without a distance test. Alive points always
  // have a materialized cell.
  const CellId home = grid_->cell_of(pid);
  int count = std::min(grid_->cell_size(home), cap);
  for (const CellId c : grid_->cell(home).neighbors) {
    if (count >= cap) break;
    const int n = grid_->cell_size(c);
    if (n == 0) continue;
    // Whole-cell prefilter: when even the nearest point of the cell's box
    // is beyond ε, no resident can qualify (kBoxPrefilterSlack guards the
    // boundary). Key and size come from the grid's packed mirrors; the
    // cell struct itself is only pulled in for a real scan.
    const CellKey& key = grid_->cell_key(c);
    double box_sq = 0;
    for (int i = 0; i < dim; ++i) {
      const double lo = key[i] * side;
      double d = 0;
      if (q[i] < lo) {
        d = lo - q[i];
      } else if (q[i] > lo + side) {
        d = q[i] - (lo + side);
      }
      box_sq += d * d;
    }
    if (box_sq > eps_sq * (1 + kBoxPrefilterSlack)) continue;
    // Batched capped count over the cell's packed coordinates; identical to
    // the scalar count-with-early-exit (both clamp at cap).
    count += CountWithinPacked(q, grid_->cell(c).coords.data(), n, dim, eps_sq,
                               cap - count);
  }
  return count >= cap;
}

}  // namespace ddc
