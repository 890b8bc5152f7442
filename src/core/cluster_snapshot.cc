#include "core/cluster_snapshot.h"

#include <utility>

namespace ddc {

// The legacy single-threaded entry point: every query is answered from a
// snapshot, so the concurrent readers and the owning thread run the exact
// same code over the exact same frozen state.
CGroupByResult Clusterer::Query(const std::vector<PointId>& q) {
  return Snapshot()->Query(q);
}

GridSnapshot::Freezer::Freezer(const Grid& grid, double eps_outer,
                               uint64_t epoch, const GridSnapshot* prev,
                               const SnapshotDirtySet& dirty)
    : grid_(grid), snap_(new GridSnapshot(epoch)) {
  GridSnapshot& s = *snap_;
  s.dim_ = grid.dim();
  s.eps_outer_sq_ = eps_outer * eps_outer;
  s.alive_ = grid.size();
  s.num_points_ = grid.total_inserted();
  const int64_t num_pages = (s.num_points_ + kPageSize - 1) >> kPageBits;
  const int num_cells = grid.num_cells();

  // Share the previous epoch's tables; ids and cells only ever grow, so
  // the tail of each is new and starts out empty.
  if (prev != nullptr) {
    DDC_DCHECK(prev->dim_ == s.dim_);
    s.pages_ = prev->pages_;
    s.cells_ = prev->cells_;
  }
  s.pages_.resize(static_cast<size_t>(num_pages));
  s.cells_.resize(static_cast<size_t>(num_cells));
  s.labels_.assign(static_cast<size_t>(num_cells), 0);
  fresh_.assign(static_cast<size_t>(num_cells), nullptr);

  for (int64_t pg = 0; pg < num_pages; ++pg) {
    if (s.pages_[pg] == nullptr || dirty.page(pg)) pages_.push_back(pg);
  }
  for (CellId c = 0; c < num_cells; ++c) {
    if (s.cells_[c] == nullptr || dirty.cell(c)) cells_.push_back(c);
  }
}

GridSnapshot::PointPage& GridSnapshot::Freezer::NewPage(int64_t page) {
  auto fresh = std::make_shared<PointPage>(snap_->dim_);
  PointPage& out = *fresh;
  snap_->pages_[page] = std::move(fresh);
  return out;
}

GridSnapshot::CellBlock& GridSnapshot::Freezer::NewCell(CellId cell,
                                                        int32_t num_members) {
  const std::shared_ptr<const CellBlock>& old = snap_->cells_[cell];
  const bool was_core = old != nullptr && old->num_members > 0;
  if (was_core != (num_members > 0)) flipped_.push_back(cell);

  auto fresh = std::make_shared<CellBlock>();
  fresh->box = grid_.cell_box(cell);
  fresh->num_members = num_members;
  fresh->members.reserve(static_cast<size_t>(num_members) * snap_->dim_);
  CellBlock& out = *fresh;
  fresh_[cell] = &out;
  snap_->cells_[cell] = std::move(fresh);
  return out;
}

void GridSnapshot::Freezer::Relink() {
  std::vector<std::shared_ptr<const CellBlock>>& cells = snap_->cells_;
  // A cell that joined or left the grid graph changes the ε-close core-cell
  // list of every neighbor: clean neighbors get a fresh copy to re-list.
  for (const CellId c : flipped_) {
    for (const CellId nb : grid_.cell(c).neighbors) {
      if (fresh_[nb] != nullptr) continue;
      auto copy = std::make_shared<CellBlock>(*cells[nb]);
      fresh_[nb] = copy.get();
      cells[nb] = std::move(copy);
    }
  }
  // Non-core neighbors can never contribute a membership, so they are
  // dropped here instead of per query. Every cell holds its block by now,
  // and the core-cell status of every cell is final.
  for (size_t c = 0; c < fresh_.size(); ++c) {
    CellBlock* b = fresh_[c];
    if (b == nullptr) continue;
    const std::vector<CellId>& nbrs =
        grid_.cell(static_cast<CellId>(c)).neighbors;
    size_t n = 0;
    for (const CellId nb : nbrs) n += cells[nb]->num_members > 0 ? 1 : 0;
    b->core_neighbors.clear();
    b->core_neighbors.reserve(n);
    for (const CellId nb : nbrs) {
      if (cells[nb]->num_members > 0) b->core_neighbors.push_back(nb);
    }
  }
}

std::shared_ptr<const GridSnapshot> GridSnapshot::Freezer::Finish(
    SnapshotDirtySet* dirty) {
  int64_t cells_rebuilt = 0;
  for (const CellBlock* b : fresh_) cells_rebuilt += b != nullptr ? 1 : 0;
  const int64_t pages_rebuilt = static_cast<int64_t>(pages_.size());
  DDC_COUNTER_ADD("core.snapshot_pages_rebuilt", pages_rebuilt);
  DDC_COUNTER_ADD("core.snapshot_pages_reused",
                  static_cast<int64_t>(snap_->pages_.size()) - pages_rebuilt);
  DDC_COUNTER_ADD("core.snapshot_cells_rebuilt", cells_rebuilt);
  DDC_COUNTER_ADD("core.snapshot_cells_reused",
                  static_cast<int64_t>(fresh_.size()) - cells_rebuilt);
  dirty->Clear();
  return std::move(snap_);
}

CGroupByResult GridSnapshot::Query(const std::vector<PointId>& q) const {
  CGroupByResult result;
  FlatHashMap<uint64_t, int32_t> bucket_of;
  for (const PointId pid : q) {
    if (!alive(pid)) continue;
    bool any = false;
    ForEachMembershipLabel(pid, [&](uint64_t cc) {
      any = true;
      auto [idx, inserted] = bucket_of.Emplace(
          cc, static_cast<int32_t>(result.groups.size()));
      if (inserted) result.groups.emplace_back();
      result.groups[*idx].push_back(pid);
    });
    if (!any) result.noise.push_back(pid);
  }
  return result;
}

}  // namespace ddc
