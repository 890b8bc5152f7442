#ifndef DDC_ENGINE_SHARDED_SNAPSHOT_H_
#define DDC_ENGINE_SHARDED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "core/cluster_snapshot.h"
#include "engine/stitch.h"

namespace ddc {

/// The sharded engine's frozen epoch: S per-shard GridSnapshots (in each
/// shard's local id space), the stitch label table of the same epoch, and
/// the routing records translating global ids to owners/holders/local ids.
/// Composed by ShardedClusterer::Flush while the workers are quiescent and
/// published by an atomic shared_ptr swap — readers resolve every query
/// against this object alone, so they never synchronize with ingest,
/// workers, or later stitch rebuilds.
class ShardedSnapshot final : public ClusterSnapshot {
 public:
  /// Frozen routing record of one global id.
  struct GidRec {
    uint8_t owner = 0;
    uint8_t first_holder = 0;
    uint8_t last_holder = 0;
    bool alive = false;
  };

  ShardedSnapshot(
      uint64_t epoch, std::vector<GidRec> points, int64_t alive,
      std::vector<std::shared_ptr<const GridSnapshot>> shards,
      std::vector<FlatHashMap<PointId, PointId>> local_of,
      std::shared_ptr<const BoundaryStitcher::LabelTable> stitch);

  CGroupByResult Query(const std::vector<PointId>& q) const override;

  bool alive(PointId id) const override {
    return id >= 0 && id < static_cast<PointId>(points_.size()) &&
           points_[id].alive;
  }
  int64_t size() const override { return alive_; }

  /// Distinct stitched labels of the clusters containing alive `id`
  /// (sorted; empty for noise): an owner-core point's own component,
  /// canonicalized through the stitch; for an owner-non-core point the
  /// union of the memberships every holding shard computes. Thread-safe.
  void Labels(PointId id, std::vector<ClusterLabel>* out) const;

  /// Least label of the clusters containing `id`; kNoCluster for noise or
  /// ids dead at this epoch.
  ClusterLabel LabelOf(PointId id) const;

  /// True when some cluster contains both points at this epoch.
  bool SameCluster(PointId a, PointId b) const;

 private:
  std::vector<GidRec> points_;
  int64_t alive_ = 0;
  std::vector<std::shared_ptr<const GridSnapshot>> shards_;
  std::vector<FlatHashMap<PointId, PointId>> local_of_;  // Per shard.
  std::shared_ptr<const BoundaryStitcher::LabelTable> stitch_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_SHARDED_SNAPSHOT_H_
