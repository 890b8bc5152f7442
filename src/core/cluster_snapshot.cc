#include "core/cluster_snapshot.h"

#include <algorithm>
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
    : grid_(grid), prev_(prev), snap_(new GridSnapshot(epoch)) {
  GridSnapshot& s = *snap_;
  s.dim_ = grid.dim();
  s.eps_outer_sq_ = eps_outer * eps_outer;
  s.alive_ = grid.size();
  s.num_points_ = grid.total_inserted();
  const int64_t num_pages = (s.num_points_ + kPageSize - 1) >> kPageBits;
  const int num_cells = grid.num_cells();

  // Share the previous epoch's tables; ids and cells only ever grow, so
  // the tail of each is new since `prev`.
  int64_t prev_pages = 0;
  if (prev != nullptr) {
    DDC_DCHECK(prev->dim_ == s.dim_);
    s.pages_ = prev->pages_;
    s.cells_ = prev->cells_;
    prev_pages = static_cast<int64_t>(prev->pages_.size());
    prev_cells_ = static_cast<CellId>(prev->cells_.size());
  }
  s.pages_.resize(static_cast<size_t>(num_pages));
  s.cells_.resize(static_cast<size_t>(num_cells));
  s.labels_.assign(static_cast<size_t>(num_cells), 0);
  fresh_.assign(static_cast<size_t>(num_cells), nullptr);
  state_.assign(static_cast<size_t>(num_cells), 0);

  // A page `prev` holds is patched where its mask says (an id is marked
  // when it is inserted, so its tail page's new ids are too); a page it
  // lacks is written whole.
  for (int64_t pg = 0; pg < prev_pages; ++pg) {
    const uint64_t slots = dirty.page_mask(pg);
    if (slots != 0) pages_.push_back({pg, slots});
  }
  for (int64_t pg = prev_pages; pg < num_pages; ++pg) {
    const int64_t ids = std::min<int64_t>(kPageSize,
                                          s.num_points_ - (pg << kPageBits));
    pages_.push_back({pg, ids == kPageSize ? ~uint64_t{0}
                                           : (uint64_t{1} << ids) - 1});
  }
  for (CellId c = 0; c < num_cells; ++c) {
    if (c < prev_cells_ && !dirty.cell(c)) continue;
    cells_.push_back(c);
    state_[c] = kMembers;
  }
}

GridSnapshot::PointPage& GridSnapshot::Freezer::NewPage(
    const PagePatch& patch) {
  std::shared_ptr<const PointPage>& slot = snap_->pages_[patch.page];
  auto fresh = slot != nullptr ? std::make_shared<PointPage>(*slot)
                               : std::make_shared<PointPage>(snap_->dim_);
  PointPage& out = *fresh;
  slot = std::move(fresh);
  return out;
}

GridSnapshot::CellBlock* GridSnapshot::Freezer::NewCell(CellId cell,
                                                        int32_t num_members) {
  const CellBlock* old = Previous(cell);
  const bool was_core = old != nullptr && old->num_members > 0;
  if (was_core != (num_members > 0)) flipped_.push_back(cell);
  if (num_members == 0) {
    snap_->cells_[cell] = nullptr;
    return nullptr;
  }
  CellBlock& out = Own(cell, nullptr);
  out.box = grid_.cell_box(cell);
  out.num_members = num_members;
  out.members.reserve(static_cast<size_t>(num_members) * snap_->dim_);
  return &out;
}

void GridSnapshot::Freezer::Relink() {
  std::vector<std::shared_ptr<const CellBlock>>& cells = snap_->cells_;
  // A cell that joined or left the grid graph changes the ε-close core-cell
  // list of every neighbor, whose entries the freeze writes too; a new cell
  // has no list yet. Every other list is unchanged: its cell's neighbors
  // kept their core-cell status.
  for (const CellId c : flipped_) {
    for (const CellId nb : grid_.cell(c).neighbors) {
      if (state_[nb] == 0) cells_.push_back(nb);
      state_[nb] |= kRelist;
    }
  }
  for (CellId c = prev_cells_; c < static_cast<CellId>(state_.size()); ++c) {
    state_[c] |= kRelist;
  }

  // Non-core neighbors can never contribute a membership, so they are
  // dropped here instead of per query. The core-cell status of every cell
  // is final by now: a cell is core exactly when it holds a block with
  // members.
  auto is_core_cell = [&](CellId nb) {
    return cells[nb] != nullptr && cells[nb]->num_members > 0;
  };
  for (const CellId c : cells_) {
    const CellBlock* old = Previous(c);
    CellBlock* b = fresh_[c];
    if ((state_[c] & kRelist) == 0) {
      // A dirty cell none of whose neighbors flipped: its previous list.
      if (b == nullptr && (old == nullptr || old->core_neighbors.empty())) {
        continue;  // Non-core, no ε-close core cell: stays null.
      }
      if (b == nullptr) b = &Own(c, nullptr);
      if (old != nullptr) b->core_neighbors = old->core_neighbors;
      continue;
    }
    const std::vector<CellId>& nbrs = grid_.cell(c).neighbors;
    const size_t n = static_cast<size_t>(
        std::count_if(nbrs.begin(), nbrs.end(), is_core_cell));
    if (b == nullptr) {
      // A clean core cell next to a flip keeps its members. Every other
      // cell here is non-core and needs a block only for its ε-close core
      // cells.
      const bool clean = (state_[c] & kMembers) == 0;
      const CellBlock* members =
          clean && old != nullptr && old->num_members > 0 ? old : nullptr;
      if (members == nullptr && n == 0) {
        cells[c] = nullptr;  // Lost its last ε-close core cell, or had none.
        continue;
      }
      b = &Own(c, members);
    }
    b->core_neighbors.clear();
    b->core_neighbors.reserve(n);
    for (const CellId nb : nbrs) {
      if (is_core_cell(nb)) b->core_neighbors.push_back(nb);
    }
  }
}

GridSnapshot::CellBlock& GridSnapshot::Freezer::Own(CellId cell,
                                                    const CellBlock* copy) {
  auto fresh = copy != nullptr ? std::make_shared<CellBlock>(*copy)
                               : std::make_shared<CellBlock>();
  CellBlock& out = *fresh;
  fresh_[cell] = &out;
  snap_->cells_[cell] = std::move(fresh);
  return out;
}

std::shared_ptr<const GridSnapshot> GridSnapshot::Freezer::Finish(
    SnapshotDirtySet* dirty) {
  // A written cell entry counts as rebuilt whether it ended up a block or
  // null; every other entry is shared with the previous snapshot.
  const int64_t pages_rebuilt = static_cast<int64_t>(pages_.size());
  DDC_COUNTER_ADD("core.snapshot_pages_rebuilt", pages_rebuilt);
  DDC_COUNTER_ADD("core.snapshot_pages_reused",
                  static_cast<int64_t>(snap_->pages_.size()) - pages_rebuilt);
  const int64_t cells_rebuilt = static_cast<int64_t>(cells_.size());
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
