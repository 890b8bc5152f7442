#ifndef DDC_ENGINE_STITCH_H_
#define DDC_ENGINE_STITCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "geom/point.h"
#include "grid/cell_key.h"
#include "unionfind/union_find.h"

namespace ddc {

/// Identity of a cluster in the sharded engine. Shard-local component
/// labels that participate in cross-shard stitching are canonicalized to a
/// stitched root (shard == kStitchedShard); labels untouched by the stitch
/// keep their (shard, local cc) identity. Two labels compare equal iff they
/// name the same global cluster at the epoch they were resolved in.
struct ClusterLabel {
  static constexpr int32_t kStitchedShard = -1;

  /// kStitchedShard for stitched roots, else the owning shard of a purely
  /// shard-local component.
  int32_t shard = kStitchedShard;
  uint64_t id = 0;

  friend bool operator==(const ClusterLabel& a, const ClusterLabel& b) {
    return a.shard == b.shard && a.id == b.id;
  }
  friend bool operator!=(const ClusterLabel& a, const ClusterLabel& b) {
    return !(a == b);
  }
  friend bool operator<(const ClusterLabel& a, const ClusterLabel& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.id < b.id;
  }
};

/// Cross-shard cluster stitching (the engine's GUM complement): maintains
/// the set of *boundary core points* — points that are core in their owner
/// shard and replicated into at least one neighbor — plus the cross-shard
/// core-core edges among them (pairs owned by different shards within ε),
/// and, per epoch, a union-find over shard-local component labels that
/// merges components spanning a shard boundary.
///
/// The point/edge set is updated incrementally from per-shard core-status
/// deltas (AddCore/RemoveCore); the label table is rebuilt by Rebuild once
/// the shards are quiescent, because shard-local component ids are only
/// stable between updates. Two union rules, both sound for the Theorem 3
/// sandwich:
///   * edge rule — both endpoints are owner-core, hence core at radius
///     (1+ρ)ε, and within ε of each other: their clusters coincide in the
///     (1+ρ)ε oracle;
///   * same-point rule — every shard where a boundary point is locally core
///     places its whole local component inside that point's (1+ρ)ε-oracle
///     cluster, so those labels may be identified.
/// Completeness (every exact-ε cross-shard connection is stitched) follows
/// from the halo: two exactly-core points within ε and owned by different
/// shards are both within the halo of the boundary between them, are core
/// in their owner shards (which see their full ε-balls), and so appear here
/// with an edge.
class BoundaryStitcher {
 public:
  /// `eps` is the stitch edge threshold (the inner radius ε — exact-DBSCAN
  /// connectivity must be preserved verbatim at rho == 0).
  BoundaryStitcher(int dim, double eps);

  /// Registers boundary core point `gid`, owned by `shard`, at `p`, and
  /// discovers its cross-shard edges. Strict transition discipline: `gid`
  /// must not be registered.
  void AddCore(int shard, PointId gid, const Point& p);

  /// Unregisters `gid` (owner demoted or deleted it) and drops its edges.
  void RemoveCore(PointId gid);

  bool Contains(PointId gid) const { return points_.Find(gid) != nullptr; }
  int64_t num_points() const { return static_cast<int64_t>(points_.size()); }
  int64_t num_edges() const { return num_edges_; }
  /// Registered boundary core points owned by `shard` (telemetry).
  int64_t boundary_count(int shard) const {
    return shard < static_cast<int>(per_shard_points_.size())
               ? per_shard_points_[shard]
               : 0;
  }

  /// A shard-local component label: `cc` as frozen in shard `shard`'s
  /// snapshot of the current epoch.
  struct LabelKey {
    int32_t shard = 0;
    uint64_t cc = 0;

    friend bool operator==(const LabelKey& a, const LabelKey& b) {
      return a.shard == b.shard && a.cc == b.cc;
    }
  };

  struct LabelKeyHash {
    size_t operator()(const LabelKey& k) const {
      // splitmix-style mix of both fields; shard in the high bits.
      uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(k.shard))
                    << 32) ^
                   (k.cc * 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  };

  /// The frozen outcome of one Rebuild: (shard, cc) -> union-find index and
  /// the resolved root per index. Immutable once built, shared by reference
  /// with published cluster snapshots, so readers resolve labels of *their*
  /// epoch no matter how many rebuilds happen afterwards.
  class LabelTable {
   public:
    /// Canonical label for shard-local component `cc` of `shard`: a
    /// stitched root when the component crosses a boundary, else the
    /// (shard, cc) identity itself. Thread-safe (pure lookup).
    ClusterLabel Resolve(int32_t shard, uint64_t cc) const {
      const int32_t* idx = index_.Find(LabelKey{shard, cc});
      if (idx == nullptr) return ClusterLabel{shard, cc};
      return ClusterLabel{ClusterLabel::kStitchedShard,
                          static_cast<uint64_t>(root_[*idx])};
    }

   private:
    friend class BoundaryStitcher;
    FlatHashMap<LabelKey, int32_t, LabelKeyHash> index_;
    std::vector<int32_t> root_;
  };

  /// Rebuilds the label union-find for the current epoch into a fresh
  /// LabelTable (the previous table object is left untouched for snapshots
  /// still holding it). For every registered point, `labels_of(gid, &keys)`
  /// must append one LabelKey per shard where the point is *currently
  /// locally core* — owner first (owner-core is an invariant of
  /// registration). All of a point's keys are unioned together (same-point
  /// rule), and every cross-shard edge unions its endpoints' owner keys
  /// (edge rule).
  void Rebuild(
      const std::function<void(PointId, std::vector<LabelKey>*)>& labels_of);

  /// The frozen label table of the last Rebuild (resolving every label to
  /// itself before the first one); never null.
  std::shared_ptr<const LabelTable> table() const { return table_; }

 private:
  struct PointRec {
    int32_t shard;
    Point point;
    std::vector<PointId> edges;  // Cross-shard partners within eps.
  };

  static int32_t InternKey(LabelTable& table, UnionFind& uf,
                           const LabelKey& key);

  int dim_;
  double eps_;
  double eps_sq_;
  FlatHashMap<PointId, PointRec> points_;
  /// Spatial hash over the registered points, cell side eps: edge discovery
  /// probes the 3^dim surrounding cells.
  FlatHashMap<CellKey, std::vector<PointId>, CellKeyHash> cells_;
  int64_t num_edges_ = 0;
  std::vector<int64_t> per_shard_points_;  // Registered points per shard.

  std::shared_ptr<const LabelTable> table_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_STITCH_H_
