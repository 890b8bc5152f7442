#include "grid/grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace ddc {

Grid::Grid(int dim, double eps)
    : dim_(dim),
      eps_(eps),
      side_(eps / std::sqrt(static_cast<double>(dim))),
      offsets_(std::min(dim, kColumnDims), side_, eps) {
  DDC_CHECK(dim >= 1 && dim <= kMaxDim);
  DDC_CHECK(eps > 0);
  DDC_CHECK(offsets_.radius() <= kMaxOffsetRadius);
  for (int i = dim_; i < kMaxDim; ++i) {
    zero_tail_hash_ += CellKey::DimTerm(i, 0);
  }
  for (int i = offsets_.dim(); i < kMaxDim; ++i) {
    column_tail_hash_ += CellKey::DimTerm(i, 0);
  }
}

double Grid::KeyGapSq(const CellKey& a, const CellKey& b) const {
  double gap_sq = 0;
  for (int i = 0; i < dim_; ++i) {
    const int g = std::abs(a[i] - b[i]) - 1;
    if (g > 0) gap_sq += static_cast<double>(g) * g * side_ * side_;
  }
  return gap_sq;
}

bool Grid::KeysAreEpsClose(const CellKey& a, const CellKey& b) const {
  // Same gap formula (and fp tolerance) as NeighborOffsets: summed over the
  // column dimensions first, so a column shift the table drops as too far
  // never holds a cell that would pass here.
  return KeyGapSq(a, b) <= eps_ * eps_ * (1 + 1e-12);
}

CellKey Grid::ColumnOf(const CellKey& key, uint64_t* hash) const {
  CellKey column;
  uint64_t h = column_tail_hash_;
  for (int i = 0; i < offsets_.dim(); ++i) {
    column[i] = key[i];
    h += CellKey::DimTerm(i, key[i]);
  }
  *hash = h;
  return column;
}

void Grid::LinkNeighbors(CellId a, CellId b) {
  const double gap = KeyGapSq(cells_[a].key, cells_[b].key);
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    Cell& cell = cells_[from];
    const auto it = std::upper_bound(cell.neighbor_gaps.begin(),
                                     cell.neighbor_gaps.end(), gap);
    const size_t pos = static_cast<size_t>(it - cell.neighbor_gaps.begin());
    cell.neighbor_gaps.insert(it, gap);
    cell.neighbors.insert(cell.neighbors.begin() + pos, to);
  }
}

Grid::InsertResult Grid::Insert(const Point& p) {
  // Unused coordinates must be zero (the Point padding invariant): poisoned
  // padding would corrupt cell keys, packed mirrors, and equality tests.
  DDC_DCHECK(PaddingIsZero(p, dim_));
  const PointId id = static_cast<PointId>(records_.size());
  const CellKey key = CellKey::Of(p, dim_, side_);
  bool created = false;
  const CellId c = GetOrCreateCell(key, HashKey(key), &created);
  Cell& cell = cells_[c];
  records_.push_back(
      PointRecord{p, c, static_cast<int32_t>(cell.points.size())});
  cell.points.push_back(id);
  cell.coords.insert(cell.coords.end(), p.data(), p.data() + dim_);
  ++sizes_[c];
  ++alive_;
  return InsertResult{id, c, created};
}

CellId Grid::Delete(PointId id) {
  DDC_CHECK(alive(id));
  PointRecord& rec = records_[id];
  const CellId c = rec.cell;
  Cell& cell = cells_[c];
  // Swap-remove from the cell's point list and the mirrored coords.
  const int32_t pos = rec.index_in_cell;
  const PointId last = cell.points.back();
  cell.points[pos] = last;
  records_[last].index_in_cell = pos;
  cell.points.pop_back();
  double* coords = cell.coords.data();
  const size_t last_start = cell.coords.size() - dim_;
  for (int i = 0; i < dim_; ++i) {
    coords[pos * dim_ + i] = coords[last_start + i];
  }
  cell.coords.resize(last_start);
  rec.cell = kInvalidCell;
  rec.index_in_cell = -1;
  --sizes_[c];
  --alive_;
  return c;
}

Box Grid::cell_box(CellId c) const {
  const CellKey& key = cells_[c].key;
  Point lo, hi;
  for (int i = 0; i < dim_; ++i) {
    lo[i] = key[i] * side_;
    hi[i] = (key[i] + 1) * side_;
  }
  return Box(lo, hi);
}

CellId Grid::FindCell(const Point& p) const {
  const CellKey key = CellKey::Of(p, dim_, side_);
  const CellId* c = cell_index_.FindHashed(HashKey(key), key);
  return c == nullptr ? kInvalidCell : *c;
}

CellId Grid::GetOrCreateCell(const CellKey& key, uint64_t key_hash,
                             bool* created) {
  if (const CellId* found = cell_index_.FindHashed(key_hash, key)) {
    *created = false;
    return *found;
  }
  const CellId c = static_cast<CellId>(cells_.size());
  cells_.push_back(Cell{key, {}, {}, {}, {}});
  sizes_.push_back(0);
  keys_.push_back(key);
  DDC_COUNTER_INC("grid.cells_created");
  // Link with every ε-close cell made before this one, then index this one
  // (and, at dim > kColumnDims, list it at the head of its column): the
  // walk must not meet the new cell itself. Links are symmetric and
  // permanent (cells are never destroyed).
  ForEachEpsCloseCell(key, [&](CellId nb) { LinkNeighbors(c, nb); });
  // The flat-hash index rehashes by reallocating its slot array; a capacity
  // change across the insert is exactly one rehash (counted here so the hash
  // table itself stays telemetry-free).
  const size_t index_capacity = cell_index_.capacity();
  cell_index_.EmplaceHashed(key_hash, key, c);
  if (cell_index_.capacity() != index_capacity) {
    DDC_COUNTER_INC("grid.index_rehashes");
  }
  if (offsets_.dim() < dim_) {
    uint64_t column_hash = 0;
    const CellKey column = ColumnOf(key, &column_hash);
    CellId* head =
        column_heads_.EmplaceHashed(column_hash, column, kInvalidCell).first;
    next_in_column_.push_back(*head);
    *head = c;
  }
  *created = true;
  return c;
}

}  // namespace ddc
