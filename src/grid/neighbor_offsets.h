#ifndef DDC_GRID_NEIGHBOR_OFFSETS_H_
#define DDC_GRID_NEIGHBOR_OFFSETS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "geom/point.h"

namespace ddc {

/// Precomputed table of the integer offsets of all ε-close cells, over the
/// first `dim` dimensions of the grid.
///
/// Two cells are ε-close when the minimum distance between their boundaries
/// is at most ε (Section 4.1). On a uniform grid this is a
/// translation-invariant property of the coordinate offset, so the
/// candidate offsets are enumerated once per (dim, side, ε) and reused for
/// every cell. The grid builds the table over its column dimensions,
/// min(d, 3) of them, so it lists the column shifts a cell's ε-close cells
/// can lie in: at most 7^3 = 343 offsets at any d <= kMaxDim, where a full
/// d-dimensional table would hold (√d)^d-order many (257,674 at d = 7).
class NeighborOffsets {
 public:
  /// Builds the table for dimension `dim` and cell side `side`, with
  /// closeness threshold `eps`. Requires side > 0 and eps > 0.
  NeighborOffsets(int dim, double side, double eps);

  /// All offsets z, the zero vector included, with
  /// minBoxDist(c, c + z) <= eps over the table's `dim` dimensions.
  const std::vector<std::array<int32_t, kMaxDim>>& offsets() const {
    return offsets_;
  }

  int dim() const { return dim_; }

  /// Every offset component lies in [-radius(), radius()].
  int radius() const { return radius_; }

 private:
  int dim_;
  int radius_;
  std::vector<std::array<int32_t, kMaxDim>> offsets_;
};

}  // namespace ddc

#endif  // DDC_GRID_NEIGHBOR_OFFSETS_H_
