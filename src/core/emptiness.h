#ifndef DDC_CORE_EMPTINESS_H_
#define DDC_CORE_EMPTINESS_H_

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "geom/box.h"
#include "geom/point.h"
#include "grid/grid.h"

namespace ddc {

/// Structure over the *core points* of one grid cell, answering the
/// ρ-approximate ε-emptiness query of Section 4.2:
///
///   empty(q, c) must return a proof point when some core point of c lies
///   within ε of q, must return "none" when no core point lies within
///   (1+ρ)ε, and may answer either way in between. A returned proof point is
///   always within (1+ρ)ε of q.
///
/// The paper plugs in Arya et al.'s approximate nearest neighbor structure
/// (Chan's structure for exact 2D). The don't-care band makes a flat scan
/// conforming: a query returns the newest member within (1+ρ)ε, and any
/// such member is a legal proof. A cell holds few core points next to the
/// grid's cost of finding it, and a query first tests the cell's box: when
/// even the box's nearest point is beyond (1+ρ)ε — the all-miss witness
/// probes that would otherwise scan the entire member set — it answers in
/// O(d).
///
/// Members are mirrored as packed coordinates (`dim` doubles per member, in
/// member order), so a query streams memory sequentially. Each member's
/// position lives in a per-point slot array shared by every structure of
/// one clusterer (a point is a core member of at most one cell at a time),
/// so membership bookkeeping is two array writes.
class CellEmptiness {
 public:
  /// `grid` provides point coordinates; `cell_box` bounds every member; the
  /// `slot_registry` is shared by the clusterer's structures. `grid` and
  /// `slot_registry` must outlive the structure; stale registry entries for
  /// non-members are never trusted.
  CellEmptiness(const Grid* grid, const DbscanParams& params,
                const Box& cell_box, std::vector<int32_t>* slot_registry);

  /// Adds a core point (must not be present).
  void Insert(PointId p);

  /// Removes a core point (must be present).
  void Remove(PointId p);

  /// Number of core points in the structure.
  int size() const { return static_cast<int>(members_.size()); }

  /// The members, in insertion order up to swap-with-last removals.
  const std::vector<PointId>& members() const { return members_; }

  /// True when `p` is currently a member (the aBCP log de-listing test).
  /// A registry slot is validated against the member list, so a stale
  /// entry can never pass.
  bool Contains(PointId p) const {
    if (static_cast<size_t>(p) >= slots_->size()) return false;
    const int32_t i = (*slots_)[p];
    return static_cast<size_t>(i) < members_.size() && members_[i] == p;
  }

  /// The emptiness query: a core point within (1+ρ)ε of `q`, or
  /// kInvalidPoint. Guaranteed non-invalid when some member is within ε.
  PointId Query(const Point& q) const;

 private:
  const Grid* grid_;
  int dim_;
  double outer_sq_;
  Box box_;
  std::vector<int32_t>* slots_;
  std::vector<PointId> members_;
  std::vector<double> coords_;
};

}  // namespace ddc

#endif  // DDC_CORE_EMPTINESS_H_
