#include "core/semi_dynamic_clusterer.h"

#include "common/check.h"
#include "telemetry/metrics.h"

namespace ddc {

SemiDynamicClusterer::SemiDynamicClusterer(const DbscanParams& params)
    : params_(params),
      grid_(params.dim, params.eps),
      tracker_(&grid_, params) {
  params_.Validate();
}

uint64_t SemiDynamicClusterer::EdgeKey(CellId a, CellId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

CellEmptiness* SemiDynamicClusterer::CoreSet(CellId c) {
  if (static_cast<size_t>(c) >= cell_core_.size()) {
    cell_core_.resize(grid_.num_cells());
  }
  if (cell_core_[c] == nullptr) {
    cell_core_[c] = std::make_unique<CellEmptiness>(&grid_, params_,
                                                    grid_.cell_box(c),
                                                    &core_slots_);
  }
  return cell_core_[c].get();
}

PointId SemiDynamicClusterer::Insert(const Point& p) {
  const Grid::InsertResult ins = grid_.Insert(p);
  uf_.EnsureSize(grid_.num_cells());
  snapshot_cache_.MarkPoint(ins.id);
  tracker_.OnInsert(ins.id, ins.cell,
                    [this](PointId q, CellId c) { OnNewCore(q, c); });
  snapshot_cache_.BumpVersion();
  return ins.id;
}

void SemiDynamicClusterer::Delete(PointId /*id*/) {
  DDC_CHECK(false && "SemiDynamicClusterer supports insertions only");
}

void SemiDynamicClusterer::OnNewCore(PointId p, CellId cell) {
  DDC_COUNTER_INC("core.promotions");
  snapshot_cache_.MarkCoreChange(p, cell);
  CoreSet(cell)->Insert(p);
  const Point& pt = grid_.point(p);
  // GUM: try to materialize an edge to every ε-close core cell that has no
  // edge to `cell` yet. One emptiness query per missing edge (Section 5).
  for (const CellId nb : grid_.cell(cell).neighbors) {
    if (static_cast<size_t>(nb) >= cell_core_.size() ||
        cell_core_[nb] == nullptr || cell_core_[nb]->size() == 0) {
      continue;  // Not a core cell.
    }
    const uint64_t key = EdgeKey(cell, nb);
    if (edges_.Contains(key)) continue;
    DDC_COUNTER_INC("semi.gum_probes");
    if (cell_core_[nb]->Query(pt) != kInvalidPoint) {
      DDC_COUNTER_INC("semi.gum_edges");
      edges_.Insert(key);
      uf_.Union(cell, nb);
    }
  }
}

std::shared_ptr<const ClusterSnapshot> SemiDynamicClusterer::Snapshot() {
  return snapshot_cache_.GetOrBuild(
      grid_, [this](PointId p) { return tracker_.is_core(p); },
      [this](CellId c, PointId) {
        return static_cast<uint64_t>(uf_.FindReadOnly(c));
      },
      params_);
}

std::vector<PointId> SemiDynamicClusterer::AlivePoints() const {
  std::vector<PointId> ids(grid_.total_inserted());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);
  return ids;
}

}  // namespace ddc
