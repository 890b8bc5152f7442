#ifndef DDC_CORE_SEMI_DYNAMIC_CLUSTERER_H_
#define DDC_CORE_SEMI_DYNAMIC_CLUSTERER_H_

#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/emptiness.h"
#include "core/params.h"
#include "core/vicinity_tracker.h"
#include "grid/grid.h"
#include "unionfind/union_find.h"

namespace ddc {

/// The paper's semi-dynamic (insertion-only) algorithm, Theorem 1:
/// ρ-approximate DBSCAN with O~(1) amortized insertion and O~(|Q|)
/// C-group-by queries for any fixed dimension; with rho == 0 it maintains
/// exact DBSCAN (the paper's "2d-Semi-Exact" is the rho == 0, d = 2 case —
/// the implementation works in any dimension, with exactness guaranteed by
/// construction and the O~(1) bound guaranteed only for d = 2).
///
/// Composition, following the framework of Section 4 (Figure 5): point
/// insertions feed the core-status structure (VicinityTracker); new core
/// points feed GUM, which materializes grid-graph edges via per-cell
/// emptiness queries; edges feed the CC structure (union-find, since edges
/// are never removed under insertions).
class SemiDynamicClusterer : public Clusterer {
 public:
  explicit SemiDynamicClusterer(const DbscanParams& params);

  PointId Insert(const Point& p) override;

  /// Always aborts: the semi-dynamic scheme supports insertions only
  /// (Theorem 2 shows why deletions change the game).
  void Delete(PointId id) override;

  std::shared_ptr<const ClusterSnapshot> Snapshot() override;
  std::shared_ptr<const ClusterSnapshot> CurrentSnapshot() const override {
    return snapshot_cache_.Peek();
  }

  std::vector<PointId> AlivePoints() const override;
  const DbscanParams& params() const override { return params_; }
  int64_t size() const override { return grid_.size(); }

  /// Introspection (tests, benches).
  bool is_core(PointId p) const { return tracker_.is_core(p); }
  int64_t num_graph_edges() const { return static_cast<int64_t>(edges_.size()); }
  const Grid& grid() const { return grid_; }

 private:
  /// GUM (Section 5): a point just became core in `cell`.
  void OnNewCore(PointId p, CellId cell);

  /// Core points of cell `c` (creates the structure on first use).
  CellEmptiness* CoreSet(CellId c);

  static uint64_t EdgeKey(CellId a, CellId b);

  DbscanParams params_;
  Grid grid_;
  VicinityTracker tracker_;
  UnionFind uf_;
  std::vector<std::unique_ptr<CellEmptiness>> cell_core_;
  /// Shared per-point slot registry for the cells' emptiness structures.
  std::vector<int32_t> core_slots_;
  FlatHashSet<uint64_t> edges_;
  SnapshotCache snapshot_cache_;
};

}  // namespace ddc

#endif  // DDC_CORE_SEMI_DYNAMIC_CLUSTERER_H_
