#ifndef DDC_GRID_GRID_H_
#define DDC_GRID_GRID_H_

#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/simd_kernels.h"
#include "grid/cell_key.h"
#include "grid/neighbor_offsets.h"

namespace ddc {

/// Index of a cell inside a Grid. Cells are created on first use and are
/// never destroyed (a cell that loses all its points keeps its identity and
/// its neighbor links), so indices are stable for the grid's lifetime.
using CellId = int32_t;
inline constexpr CellId kInvalidCell = -1;

/// One grid cell: its key, the alive points it covers, and the ε-close cells
/// that have ever been materialized. Neighbor links are symmetric and are
/// filtered for emptiness by the caller where it matters.
///
/// Coordinates of the cell's alive points are mirrored in `coords`, packed
/// as `dim` doubles per point in `points` order (swap-with-last on delete,
/// like the id vector) — an ε-range scan streams this array sequentially
/// instead of chasing each id through the grid's point records.
///
/// `neighbors` is kept sorted by box-to-box gap to this cell (ascending,
/// mirrored in `neighbor_gaps`): capped scans that visit nearest cells
/// first reach their early-exit threshold sooner. Truncated counts are
/// order-independent, so results don't change — only cycles.
struct Cell {
  CellKey key;
  std::vector<PointId> points;
  std::vector<double> coords;
  std::vector<CellId> neighbors;
  std::vector<double> neighbor_gaps;

  bool empty() const { return points.empty(); }
  int size() const { return static_cast<int>(points.size()); }
};

/// The uniform grid of Section 4.1: cells of side ε/√d over R^d, holding a
/// dynamic point set. The grid provides
///   * point storage with stable ids across insertions and deletions,
///   * cell lookup and lazy cell materialization,
///   * cached ε-close neighbor links, found once per new cell through the
///     column index, which at d <= 3 is the key index itself (see
///     ForEachEpsCloseCell), and
///   * ε-range enumeration, the primitive that both our clusterers and the
///     IncDBSCAN baseline build on.
///
/// Hot-path layout: the key → cell index is a flat open-addressing table,
/// each operation computes its CellKey and hash exactly once and threads the
/// hash through every probe, and range scans read the per-cell packed
/// coordinate arrays (see Cell).
class Grid {
 public:
  /// A grid for dimension `dim` with closeness threshold `eps`; the cell
  /// side is eps/√dim as the paper prescribes.
  Grid(int dim, double eps);

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Outcome of an insertion.
  struct InsertResult {
    PointId id;
    CellId cell;
    bool cell_created;
  };

  /// Adds `p`, materializing its cell (and neighbor links) if needed.
  InsertResult Insert(const Point& p);

  /// Removes point `id`; returns the cell it occupied. The id must be alive.
  CellId Delete(PointId id);

  int dim() const { return dim_; }
  double eps() const { return eps_; }
  double side() const { return side_; }

  /// Number of alive points.
  int64_t size() const { return alive_; }

  /// Total points ever inserted (== upper bound on PointId).
  int64_t total_inserted() const { return static_cast<int64_t>(records_.size()); }

  /// Coordinates of point `id` (valid also for recently deleted points).
  const Point& point(PointId id) const { return records_[id].point; }

  /// True when the point has been inserted and not deleted.
  bool alive(PointId id) const {
    return id >= 0 && id < static_cast<PointId>(records_.size()) &&
           records_[id].cell != kInvalidCell;
  }

  /// Cell currently holding point `id`; kInvalidCell when deleted.
  CellId cell_of(PointId id) const { return records_[id].cell; }

  const Cell& cell(CellId c) const { return cells_[c]; }

  /// Alive-point count of cell `c`, served from a compact side array: scan
  /// loops that filter cells by occupancy touch 16 counts per cache line
  /// instead of one Cell struct each.
  int cell_size(CellId c) const { return sizes_[c]; }

  /// Key of cell `c` from the packed key mirror (box prefilters read these
  /// without pulling in the full Cell).
  const CellKey& cell_key(CellId c) const { return keys_[c]; }

  /// Number of cells ever materialized.
  int num_cells() const { return static_cast<int>(cells_.size()); }

  /// Geometric bounds of cell `c`.
  Box cell_box(CellId c) const;

  /// Cell covering `p` if it has been materialized, else kInvalidCell.
  CellId FindCell(const Point& p) const;

  /// Invokes `fn(PointId)` for every alive point within distance `r` of `q`.
  /// Requires r <= eps (the cached neighbor links only cover ε-closeness).
  template <typename Fn>
  void ForEachPointInRange(const Point& q, double r, Fn&& fn) const;

  /// Invokes `fn(CellId)` for `q`'s cell (if materialized) and every
  /// materialized ε-close cell of it. Cells may be empty.
  template <typename Fn>
  void ForEachNearbyCell(const Point& q, Fn&& fn) const;

 private:
  struct PointRecord {
    Point point;
    CellId cell = kInvalidCell;
    int32_t index_in_cell = -1;
  };

  /// A cell's column is its first min(dim, kColumnDims) key coordinates.
  static constexpr int kColumnDims = 3;

  /// Upper bound on NeighborOffsets::radius() for side = eps/√dim,
  /// dim <= kMaxDim (floor(√8) + 1): sizes the stack-allocated delta table
  /// in ForEachEpsCloseCell.
  static constexpr int kMaxOffsetRadius = 3;

  CellId GetOrCreateCell(const CellKey& key, uint64_t key_hash, bool* created);

  /// CellKey::Hash with the constant contribution of the unused dimensions
  /// (coordinates pinned to 0) precomputed — `dim` mixes instead of kMaxDim.
  uint64_t HashKey(const CellKey& key) const {
    uint64_t h = zero_tail_hash_;
    for (int i = 0; i < dim_; ++i) h += CellKey::DimTerm(i, key[i]);
    return h;
  }

  /// `key`'s column as a CellKey (coordinates past the column zeroed) and
  /// its hash in `*hash`.
  CellKey ColumnOf(const CellKey& key, uint64_t* hash) const;

  /// Invokes `fn(CellId)` for every materialized cell ε-close to `key`,
  /// including the cell at `key` itself if it is indexed. Walks the column
  /// of every ε-close column shift (the zero shift included; see
  /// NeighborOffsets) and keeps the listed cells whose full keys pass
  /// KeysAreEpsClose. A column's projected gap never exceeds the full gap,
  /// so no ε-close cell is missed. At dim <= kColumnDims a column is the
  /// full key, so the shifts are exactly the ε-close keys and `cell_index_`
  /// answers for the column index. Each shifted column's hash is derived
  /// from the base column hash through per-dimension delta tables (one add
  /// per column dimension) instead of a full re-mix.
  template <typename Fn>
  void ForEachEpsCloseCell(const CellKey& key, Fn&& fn) const;

  /// True when cells with these keys are ε-close: their box gap is at most
  /// ε, with the same gap formula and fp tolerance as NeighborOffsets.
  bool KeysAreEpsClose(const CellKey& a, const CellKey& b) const;

  /// Squared minimum distance between the boxes of cells with these keys.
  double KeyGapSq(const CellKey& a, const CellKey& b) const;

  /// Records the symmetric ε-close link a <-> b, keeping both neighbor
  /// lists sorted by gap.
  void LinkNeighbors(CellId a, CellId b);

  int dim_;
  double eps_;
  double side_;
  uint64_t zero_tail_hash_ = 0;    // Σ_{i >= dim} DimTerm(i, 0).
  uint64_t column_tail_hash_ = 0;  // Σ_{i >= column dims} DimTerm(i, 0).
  NeighborOffsets offsets_;        // Column shifts, over the column dims.
  std::vector<PointRecord> records_;
  std::vector<Cell> cells_;
  std::vector<int32_t> sizes_;  // Mirror of cells_[c].points.size().
  std::vector<CellKey> keys_;   // Mirror of cells_[c].key.
  FlatHashMap<CellKey, CellId, CellKeyHash> cell_index_;
  /// Column index, kept only at dim > kColumnDims (below, a column is one
  /// cell and `cell_index_` serves): each column's newest cell, and per
  /// cell the next older cell of its column (kInvalidCell ends the list).
  FlatHashMap<CellKey, CellId, CellKeyHash> column_heads_;
  std::vector<CellId> next_in_column_;
  int64_t alive_ = 0;
};

template <typename Fn>
void Grid::ForEachEpsCloseCell(const CellKey& key, Fn&& fn) const {
  // delta[i][off + R]: hash delta of translating column dimension i by off.
  // The table costs k * (2R+1) mixes once; each column shift then
  // reconstructs its column hash with k wrapping adds.
  const int k = offsets_.dim();
  const int radius = offsets_.radius();
  DDC_DCHECK(radius <= kMaxOffsetRadius);
  uint64_t column_hash = 0;
  const CellKey column = ColumnOf(key, &column_hash);
  uint64_t delta[kColumnDims][2 * kMaxOffsetRadius + 1];
  for (int i = 0; i < k; ++i) {
    const uint64_t base = CellKey::DimTerm(i, key[i]);
    for (int off = -radius; off <= radius; ++off) {
      delta[i][off + radius] = CellKey::DimTerm(i, key[i] + off) - base;
    }
  }
  for (const auto& off : offsets_.offsets()) {
    CellKey shifted = column;
    uint64_t h = column_hash;
    for (int i = 0; i < k; ++i) {
      shifted[i] += off[i];
      h += delta[i][off[i] + radius];
    }
    if (k == dim_) {  // The column is the full key: at most one cell.
      const CellId* c = cell_index_.FindHashed(h, shifted);
      if (c != nullptr) fn(*c);
      continue;
    }
    const CellId* head = column_heads_.FindHashed(h, shifted);
    if (head == nullptr) continue;
    for (CellId c = *head; c != kInvalidCell; c = next_in_column_[c]) {
      if (KeysAreEpsClose(key, keys_[c])) fn(c);
    }
  }
}

template <typename Fn>
void Grid::ForEachNearbyCell(const Point& q, Fn&& fn) const {
  const CellKey key = CellKey::Of(q, dim_, side_);
  const CellId* own = cell_index_.FindHashed(HashKey(key), key);
  if (own != nullptr) {
    fn(*own);
    for (const CellId nb : cells_[*own].neighbors) fn(nb);
    return;
  }
  // The query point's own cell was never materialized: walk the columns.
  ForEachEpsCloseCell(key, fn);
}

template <typename Fn>
void Grid::ForEachPointInRange(const Point& q, double r, Fn&& fn) const {
  DDC_DCHECK(r <= eps_ * (1 + 1e-9));
  const double r_sq = r * r;
  const int dim = dim_;
  ForEachNearbyCell(q, [&](CellId c) {
    const Cell& cell = cells_[c];
    // Batched predicate over the cell's packed coordinates (SIMD where the
    // host supports it); verdicts are bit-identical to the scalar kernel.
    ForEachWithinPacked(q, cell.coords.data(), cell.points.size(), dim, r_sq,
                        [&](size_t i) { fn(cell.points[i]); });
  });
}

}  // namespace ddc

#endif  // DDC_GRID_GRID_H_
