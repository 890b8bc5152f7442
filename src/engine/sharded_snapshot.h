#ifndef DDC_ENGINE_SHARDED_SNAPSHOT_H_
#define DDC_ENGINE_SHARDED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster_snapshot.h"
#include "engine/stitch.h"

namespace ddc {

/// The sharded engine's frozen epoch: S per-shard GridSnapshots (in each
/// shard's local id space), the stitch label table of the same epoch, and
/// the routing record of every global id, which names the point's owner,
/// its holders and its local id in each holder. Composed by
/// ShardedClusterer::Flush once the workers are quiescent and published by
/// an atomic shared_ptr swap — readers resolve every query against this
/// object alone, so they never synchronize with ingest, workers, or later
/// stitch rebuilds.
///
/// The routing records live in a RouteTable of pages of kPageSize global
/// ids that consecutive epochs share, like GridSnapshot's point pages.
/// Building an epoch's table copies the previous epoch's page table and
/// rebuilds, into fresh pages, only the pages with a delete since then (the
/// `dirty` set) and the tail pages holding ids inserted since; it never
/// writes a page a published snapshot holds. So it copies O(pages)
/// pointers and O(dirty pages) records, not a record per id ever inserted,
/// and the engine builds it while the workers still apply and freeze.
class ShardedSnapshot final : public ClusterSnapshot {
 public:
  static constexpr int kPageBits = SnapshotDirtySet::kPageBits;
  static constexpr int kPageSize = SnapshotDirtySet::kPageSize;

  /// Routing record of one global id: its owner shard and its holders, the
  /// shard range [first, last] — the owner plus at most one neighbor (see
  /// ShardMap) — with the point's local id in each holder. The ingest
  /// thread fills it when it routes the insert and clears `alive` on
  /// delete; the holders' grids hand out exactly these local ids.
  struct Route {
    PointId local[2] = {kInvalidPoint, kInvalidPoint};  // In first + i.
    uint8_t owner = 0;
    uint8_t first = 0;
    uint8_t last = 0;
    bool alive = false;

    /// The point's local id in holder shard `shard`.
    PointId local_in(int shard) const { return local[shard - first]; }
  };

  /// The routing records of one epoch, in pages of kPageSize global ids
  /// that consecutive epochs share. Built from the ingest thread's live
  /// record table, indexed by global id, over the previous epoch's table
  /// (null for the first), whose pages are shared unless `dirty` marks them
  /// or they hold ids inserted since.
  class RouteTable {
   public:
    RouteTable(const std::vector<Route>& routes, const RouteTable* prev,
               const SnapshotDirtySet& dirty);

    /// Global ids ever inserted at this epoch.
    int64_t size() const { return num_ids_; }
    const Route& operator[](PointId id) const {
      return pages_[id >> kPageBits]->routes[id & (kPageSize - 1)];
    }

   private:
    struct RoutePage {
      Route routes[kPageSize];
    };

    int64_t num_ids_ = 0;
    std::vector<std::shared_ptr<const RoutePage>> pages_;
  };

  /// Composes the epoch from its routing records, the shards' snapshots and
  /// the stitch label table of the same epoch.
  ShardedSnapshot(uint64_t epoch, std::shared_ptr<const RouteTable> routes,
                  int64_t alive,
                  std::vector<std::shared_ptr<const GridSnapshot>> shards,
                  std::shared_ptr<const LabelTable> stitch);

  CGroupByResult Query(const std::vector<PointId>& q) const override;

  bool alive(PointId id) const override {
    return id >= 0 && id < routes_->size() && (*routes_)[id].alive;
  }
  int64_t size() const override { return alive_; }

  /// Distinct stitched labels of the clusters containing alive `id`
  /// (sorted; empty for noise): an owner-core point's own component,
  /// canonicalized through the stitch; for an owner-non-core point the
  /// union of the memberships every holding shard computes. Thread-safe.
  void Labels(PointId id, std::vector<ClusterLabel>* out) const;

 private:
  std::shared_ptr<const RouteTable> routes_;
  int64_t alive_ = 0;
  std::vector<std::shared_ptr<const GridSnapshot>> shards_;
  std::shared_ptr<const LabelTable> stitch_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_SHARDED_SNAPSHOT_H_
