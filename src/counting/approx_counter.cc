#include "counting/approx_counter.h"

#include <algorithm>

#include "geom/simd_kernels.h"

namespace ddc {

ApproxRangeCounter::ApproxRangeCounter(const Grid* grid,
                                       const DbscanParams& params)
    : grid_(grid), dim_(params.dim), eps_sq_(params.eps * params.eps) {}

int ApproxRangeCounter::CountNear(const Point& q, CellId home,
                                  int cap) const {
  int count = 0;
  const int dim = dim_;
  const auto visit = [&](CellId c, bool own) {
    if (count >= cap) return;
    const int n = grid_->cell_size(c);
    if (own) {
      // Same-cell points are within ε of q by the grid geometry (side
      // ε/√d) — the invariant the core trackers already build on — so the
      // whole cell counts without a distance test.
      count = std::min(count + n, cap);
      return;
    }
    if (n == 0) return;
    // Whole-cell prefilter: when even the nearest point of the cell's box
    // is beyond ε, no resident can qualify (kBoxPrefilterSlack guards the
    // boundary). Key and size come from the grid's packed mirrors; the
    // cell struct itself is only pulled in for a real scan.
    const double side = grid_->side();
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
    if (box_sq > eps_sq_ * (1 + kBoxPrefilterSlack)) return;
    // Batched capped count over the cell's packed coordinates; identical to
    // the scalar count-with-early-exit (both clamp at cap).
    count += CountWithinPacked(q, grid_->cell(c).coords.data(), n, dim,
                               eps_sq_, cap - count);
  };
  if (home != kInvalidCell) {
    grid_->ForEachNearbyCellOfTagged(home, visit);
  } else {
    grid_->ForEachNearbyCellTagged(q, visit);
  }
  return count;
}

}  // namespace ddc
