#ifndef DDC_ENGINE_SHARD_MAP_H_
#define DDC_ENGINE_SHARD_MAP_H_

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "geom/point.h"

namespace ddc {

/// The engine's spatial partition: S half-open slabs along one dimension,
/// chosen as the spread-maximizing dimension of a warmup sample. The slabs
/// are described by an ascending vector of S-1 interior cuts; slab k covers
/// [cut[k-1], cut[k]) with the two end slabs extending to ±infinity, so
/// every point has exactly one owner. InitFromSample lays the cuts out
/// uniformly, more than 2·halo apart even after rounding, and they never
/// move afterwards.
///
/// Sharding is sound because the paper's machinery is spatially local: a
/// point's core status and its grid-graph edges depend only on geometry
/// within (1+ρ)ε. A shard that additionally holds every foreign point whose
/// slab coordinate lies within that halo of its slab therefore computes
/// exact counts and core statuses for all the points it owns. HoldersOf
/// returns that owner-plus-halo shard range: contiguous, and at most two
/// shards — a bound that holds exactly in floating point, since the sharded
/// engine's routing records have room for two holders.
class ShardMap {
 public:
  /// A map for `shards` slabs with the given halo width ((1+ρ)ε in the
  /// engine). The partition starts uninitialized; all points map to shard 0
  /// with no replication until InitFromSample fixes the geometry.
  ShardMap(int shards, int dim, double halo);

  /// Fixes the slab geometry from a sample of the stream: picks the
  /// dimension with the largest min-max spread and splits [min, max] evenly,
  /// subject to a minimum slab width of 2·halo (so the replication factor
  /// never exceeds 2, even when the sample under-represents the stream's
  /// true extent — upper slabs then simply start out empty). At that floor
  /// a cut may sit a few ulps above lo() + k·slab_width(), so that every
  /// computed gap between consecutive cuts clears 2·halo. An empty sample
  /// (or one with zero spread) yields a degenerate but valid partition where
  /// shard 0 owns everything near the sample. Must be called at most once.
  void InitFromSample(const std::vector<Point>& sample);

  bool initialized() const { return initialized_; }
  int shards() const { return shards_; }
  int dim() const { return dim_; }
  double halo() const { return halo_; }
  /// The split dimension / slab geometry (meaningful once initialized).
  int split_dim() const { return split_dim_; }
  double lo() const { return lo_; }
  double slab_width() const { return width_; }

  /// The ascending interior cuts (size shards() - 1). cuts()[k] separates
  /// slab k from slab k+1.
  const std::vector<double>& cuts() const { return cuts_; }

  /// The shard whose slab covers `p` (end slabs absorb outliers).
  int OwnerOf(const Point& p) const {
    DDC_DCHECK(initialized_);
    return SlabIndexOf(p[split_dim_]);
  }

  /// Contiguous shard range [first, last] that must hold `p`: the owner plus
  /// every shard whose slab lies within `halo` of p's coordinate. Only the
  /// owner's two neighbors can: the slab below when x - (its top edge) <
  /// halo, the slab above when (its bottom edge) - x <= halo. Both at once
  /// would take fl(x - a) < halo and fl(b - x) <= halo inside the owner's
  /// slab [a, b); each rounded difference is at least (1 - 2^-53) times the
  /// true one, so that needs b - a < 2·halo / (1 - 2^-53), which the cut
  /// spacing rules out. A point whose holders span two shards lies near a
  /// slab edge and takes part in cross-shard stitching.
  struct Range {
    int first;
    int last;
  };
  Range HoldersOf(const Point& p) const {
    const double x = p[split_dim_];
    const int owner = SlabIndexOf(x);
    const int num_cuts = static_cast<int>(cuts_.size());
    const bool below = owner > 0 && x - cuts_[owner - 1] < halo_;
    const bool above = owner < num_cuts && cuts_[owner] - x <= halo_;
    return Range{below ? owner - 1 : owner, above ? owner + 1 : owner};
  }

 private:
  /// Index of the slab covering coordinate x: the number of cuts <= x.
  /// Always in [0, shards_-1]; the end slabs are unbounded.
  int SlabIndexOf(double x) const {
    return static_cast<int>(
        std::upper_bound(cuts_.begin(), cuts_.end(), x) - cuts_.begin());
  }

  int shards_;
  int dim_;
  double halo_;
  bool initialized_ = false;
  int split_dim_ = 0;
  double lo_ = 0;
  double width_ = 1;
  std::vector<double> cuts_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_SHARD_MAP_H_
