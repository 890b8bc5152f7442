#include "core/abcp.h"

#include "common/check.h"
#include "telemetry/metrics.h"

namespace ddc {

bool AbcpInstance::Initialize(const Grid& grid, CellCoreState& s1,
                              CellCoreState& s2) {
  DDC_CHECK(!has_witness());
  CellCoreState* small = &s1;
  CellCoreState* big = &s2;
  bool small_is_c1 = true;
  if (small->core_set->size() > big->core_set->size()) {
    std::swap(small, big);
    small_is_c1 = false;
  }
  PointId found_small = kInvalidPoint, found_big = kInvalidPoint;
  for (const PointId p : small->core_set->members()) {
    const PointId proof = big->core_set->Query(grid.point(p));
    if (proof != kInvalidPoint) {
      found_small = p;
      found_big = proof;
      break;
    }
  }
  if (found_small != kInvalidPoint) {
    w1_ = small_is_c1 ? found_small : found_big;
    w2_ = small_is_c1 ? found_big : found_small;
  }
  cur1_ = s1.log.size();
  cur2_ = s2.log.size();
  return has_witness();
}

void AbcpInstance::Refill(const Grid& grid, CellCoreState& s1,
                          CellCoreState& s2) {
  DDC_COUNTER_INC("abcp.witness_refills");
  while (!has_witness()) {
    if (cur1_ < s1.log.size()) {
      const PointId p = s1.log[cur1_++];
      if (!s1.core_set->Contains(p)) continue;  // De-listed lazily.
      const PointId proof = s2.core_set->Query(grid.point(p));
      if (proof != kInvalidPoint) {
        w1_ = p;
        w2_ = proof;
      }
    } else if (cur2_ < s2.log.size()) {
      const PointId p = s2.log[cur2_++];
      if (!s2.core_set->Contains(p)) continue;
      const PointId proof = s1.core_set->Query(grid.point(p));
      if (proof != kInvalidPoint) {
        w2_ = p;
        w1_ = proof;
      }
    } else {
      return;  // Both logs drained: witness legitimately empty.
    }
  }
}

bool AbcpInstance::OnCoreInsert(const Grid& grid, CellCoreState& s1,
                                CellCoreState& s2) {
  // With a witness in hand the newcomer just stays in L (its log suffix).
  if (!has_witness()) Refill(grid, s1, s2);
  return has_witness();
}

bool AbcpInstance::OnCoreRemove(const Grid& grid, CellCoreState& s1,
                                CellCoreState& s2, CellId cell, PointId p) {
  if (!has_witness()) return false;  // L is empty; nothing to do.
  const bool was_w1 = (cell == c1_ && p == w1_);
  const bool was_w2 = (cell == c2_ && p == w2_);
  if (!was_w1 && !was_w2) return true;  // Witness unaffected.

  // Step 1 (appendix, deletion case): ask the surviving endpoint against the
  // departed side — one emptiness query often repairs the pair in place.
  CellCoreState& gone_side = was_w1 ? s1 : s2;
  const PointId survivor = was_w1 ? w2_ : w1_;
  w1_ = w2_ = kInvalidPoint;
  const PointId proof = gone_side.core_set->Query(grid.point(survivor));
  if (proof != kInvalidPoint) {
    // One emptiness query repaired the pair without touching the de-list
    // logs — the cheap path the appendix's amortization counts on.
    DDC_COUNTER_INC("abcp.witness_repairs");
    w1_ = was_w1 ? proof : survivor;
    w2_ = was_w1 ? survivor : proof;
    return true;
  }
  // Step 2: de-list until a witness appears or L drains.
  Refill(grid, s1, s2);
  return has_witness();
}

}  // namespace ddc
