#ifndef DDC_COUNTING_APPROX_COUNTER_H_
#define DDC_COUNTING_APPROX_COUNTER_H_

#include "core/params.h"
#include "geom/point.h"
#include "grid/grid.h"

namespace ddc {

/// Dynamic approximate range counting (Section 7.3): returns an integer k
/// with |B(q, ε)| <= k <= |B(q, (1+ρ)ε)|, the primitive deciding the relaxed
/// (ρ-double-approximate) core predicate. Under that predicate only the
/// comparison k >= MinPts matters, so queries take a cap and may stop early.
///
/// The count is exact, |B(q, ε)| truncated at the cap. An exact count
/// trivially lies in the band, so it is conforming at every ρ; the paper's
/// Mount–Park structure [16] would only buy a better worst case. It reads
/// the grid directly, so it keeps no state of its own to update.
class ApproxRangeCounter {
 public:
  /// `grid` must outlive the counter.
  ApproxRangeCounter(const Grid* grid, const DbscanParams& params);

  /// A conforming count, truncated at `cap`: when the true answer is >= cap
  /// the query may return exactly `cap`.
  int Count(const Point& q, int cap) const {
    return CountNear(q, kInvalidCell, cap);
  }

  /// Count for a query point whose (materialized) cell is already known —
  /// the core trackers always have it — saving the key/hash/index work.
  int CountFromCell(const Point& q, CellId home, int cap) const {
    return CountNear(q, home, cap);
  }

 private:
  /// Shared body: `home` is the query's cell when known, kInvalidCell to
  /// locate it from the coordinates.
  int CountNear(const Point& q, CellId home, int cap) const;

  const Grid* grid_;
  int dim_;
  double eps_sq_;
};

}  // namespace ddc

#endif  // DDC_COUNTING_APPROX_COUNTER_H_
