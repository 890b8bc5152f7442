#include "engine/shard_map.h"

#include <algorithm>

#include "common/check.h"

namespace ddc {

ShardMap::ShardMap(int shards, int dim, double halo)
    : shards_(shards), dim_(dim), halo_(halo) {
  DDC_CHECK(shards >= 1);
  DDC_CHECK(dim >= 1 && dim <= kMaxDim);
  DDC_CHECK(halo >= 0);
}

void ShardMap::InitFromSample(const std::vector<Point>& sample) {
  DDC_CHECK(!initialized_);
  initialized_ = true;
  // The split dimension and extent are computed even for a single shard
  // (HoldersOf is {0} and NearBoundary is false regardless, since there are
  // no cuts), so split_dim()/lo()/slab_width() describe the sample.
  if (!sample.empty()) {
    double best_spread = -1;
    for (int i = 0; i < dim_; ++i) {
      double lo = sample[0][i], hi = sample[0][i];
      for (const Point& p : sample) {
        lo = std::min(lo, p[i]);
        hi = std::max(hi, p[i]);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        split_dim_ = i;
        lo_ = lo;
        width_ = (hi - lo) / static_cast<double>(shards_);
      }
    }
  }
  // Zero spread (identical sample points) or no sample at all: keep width 1
  // so the cut layout stays well defined; the floor below still applies.
  if (width_ <= 0) width_ = 1;
  // Slabs narrower than 2·halo would replicate every point into several
  // shards and register nearly every core point with the stitcher — an
  // unrepresentative (or empty) warmup sample must degrade toward fewer
  // effective shards, not toward all-pairs stitching. Width >= 2·halo caps
  // the replication factor at 2.
  width_ = std::max(width_, 2 * halo_);
  cuts_.clear();
  cuts_.reserve(shards_ - 1);
  for (int k = 1; k < shards_; ++k) {
    cuts_.push_back(lo_ + static_cast<double>(k) * width_);
  }
}

}  // namespace ddc
