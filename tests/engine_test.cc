#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/shard_map.h"
#include "engine/stitch.h"
#include "engine/thread_pool.h"
#include "geom/point.h"

namespace ddc {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 30; ++i) {
    pool.Submit(i % 3, [&count] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPoolTest, TasksOnOneWorkerRunInSubmissionOrder) {
  // The per-shard ordering guarantee the engine relies on: FIFO per worker,
  // even under many tasks and a single thread shared by "several shards".
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    pool.Submit(0, [&order, i] { order.push_back(i); });
  }
  pool.Drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, DrainIsABarrierForWorkerWrites) {
  ThreadPool pool(4);
  std::vector<int64_t> sums(4, 0);
  for (int round = 0; round < 10; ++round) {
    for (int w = 0; w < 4; ++w) {
      pool.Submit(w, [&sums, w] { sums[w] += w + 1; });
    }
    pool.Drain();
    // Post-drain reads see every write of the drained tasks.
    for (int w = 0; w < 4; ++w) EXPECT_EQ(sums[w], (w + 1) * (round + 1));
  }
}

TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit(i % 2, [&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 20);
}

// ---------------------------------------------------------------------------
// ShardMap

Point P2(double x, double y) { return Point{x, y}; }

TEST(ShardMapTest, PicksSpreadMaximizingDimension) {
  ShardMap map(4, 2, /*halo=*/10.0);
  // Spread 100 on dim 0, 1000 on dim 1: slabs must split dim 1.
  std::vector<Point> sample = {P2(0, 0), P2(100, 1000), P2(50, 500)};
  map.InitFromSample(sample);
  EXPECT_EQ(map.split_dim(), 1);
  EXPECT_DOUBLE_EQ(map.lo(), 0);
  EXPECT_DOUBLE_EQ(map.slab_width(), 250);
  EXPECT_EQ(map.OwnerOf(P2(0, 10)), 0);
  EXPECT_EQ(map.OwnerOf(P2(0, 260)), 1);
  EXPECT_EQ(map.OwnerOf(P2(0, 999)), 3);
}

TEST(ShardMapTest, EndSlabsAbsorbOutliers) {
  ShardMap map(4, 1, 5.0);
  std::vector<Point> sample = {Point{0}, Point{400}};
  map.InitFromSample(sample);
  EXPECT_EQ(map.OwnerOf(Point{-1e9}), 0);
  EXPECT_EQ(map.OwnerOf(Point{1e9}), 3);
  const ShardMap::Range r = map.HoldersOf(Point{-1e9});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 0);
}

TEST(ShardMapTest, HoldersCoverTheHalo) {
  ShardMap map(4, 1, 10.0);
  std::vector<Point> sample = {Point{0}, Point{400}};  // width 100
  map.InitFromSample(sample);

  // Interior point far from boundaries: owner only.
  ShardMap::Range r = map.HoldersOf(Point{150});
  EXPECT_EQ(r.first, 1);
  EXPECT_EQ(r.last, 1);
  EXPECT_FALSE(map.NearBoundary(Point{150}, 1));

  // Within halo of the 100 boundary: shards 0 and 1.
  r = map.HoldersOf(Point{95});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 1);
  EXPECT_TRUE(map.NearBoundary(Point{95}, 0));
  r = map.HoldersOf(Point{105});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 1);
  EXPECT_TRUE(map.NearBoundary(Point{105}, 1));

  // The invariant the halo exists for: every point within halo distance of
  // a point owned by shard s is held by shard s.
  for (double x = -50; x <= 450; x += 0.5) {
    const int owner = map.OwnerOf(Point{x});
    for (double dx = -10; dx <= 10; dx += 0.5) {
      const ShardMap::Range h = map.HoldersOf(Point{x + dx});
      EXPECT_LE(h.first, owner);
      EXPECT_GE(h.last, owner);
    }
  }
}

TEST(ShardMapTest, MinimumSlabWidthBoundsReplication) {
  // The sample spread asks for slabs of width 20, far below the halo; the
  // map must widen them to 2·halo so no point replicates into more than two
  // shards (an unrepresentative warmup sample degrades toward fewer
  // effective shards, never toward all-pairs replication).
  ShardMap map(8, 1, /*halo=*/100.0);
  std::vector<Point> sample = {Point{0}, Point{160}};
  map.InitFromSample(sample);
  EXPECT_DOUBLE_EQ(map.slab_width(), 200.0);
  for (double x = -300; x <= 2000; x += 7) {
    const ShardMap::Range r = map.HoldersOf(Point{x});
    EXPECT_LE(r.last - r.first + 1, 2) << "x=" << x;
    const int owner = map.OwnerOf(Point{x});
    EXPECT_LE(r.first, owner);
    EXPECT_GE(r.last, owner);
  }
}

TEST(ShardMapTest, SingleShardNeverReplicatesOrStitches) {
  ShardMap map(1, 3, 100.0);
  map.InitFromSample({Point{1, 2, 3}, Point{4, 5, 6}});
  const Point p{2, 3, 4};
  EXPECT_EQ(map.OwnerOf(p), 0);
  const ShardMap::Range r = map.HoldersOf(p);
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 0);
  EXPECT_FALSE(map.NearBoundary(p, 0));
}

TEST(ShardMapTest, EmptySampleStillInitializes) {
  ShardMap map(4, 2, 1.0);
  map.InitFromSample({});
  EXPECT_TRUE(map.initialized());
  const Point p{3.5, 0};
  const int owner = map.OwnerOf(p);
  EXPECT_GE(owner, 0);
  EXPECT_LT(owner, 4);
  const ShardMap::Range r = map.HoldersOf(p);
  EXPECT_LE(r.first, owner);
  EXPECT_GE(r.last, owner);
}

TEST(ShardMapTest, EmptySampleStillAppliesTheWidthFloor) {
  // Degenerate initialization (Flush before any insert) must not bypass the
  // 2·halo minimum slab width: otherwise every later point would replicate
  // into all shards.
  ShardMap map(8, 2, /*halo=*/110.0);
  map.InitFromSample({});
  EXPECT_GE(map.slab_width(), 220.0);
  for (double x = -500; x <= 500; x += 11) {
    const ShardMap::Range r = map.HoldersOf(P2(x, 0));
    EXPECT_LE(r.last - r.first + 1, 2) << "x=" << x;
  }
}

// ---------------------------------------------------------------------------
// BoundaryStitcher

using LabelKey = BoundaryStitcher::LabelKey;

TEST(BoundaryStitcherTest, EdgesRequireCrossShardAndProximity) {
  BoundaryStitcher stitch(2, /*eps=*/10.0);
  stitch.AddCore(0, 1, P2(0, 0));
  stitch.AddCore(0, 2, P2(5, 0));    // Same shard: no edge.
  stitch.AddCore(1, 3, P2(8, 0));    // Cross shard, within 10: edge to 1 & 2.
  stitch.AddCore(1, 4, P2(100, 0));  // Too far: no edge.
  EXPECT_EQ(stitch.num_points(), 4);
  EXPECT_EQ(stitch.num_edges(), 2);
  EXPECT_EQ(stitch.boundary_count(0), 2);
  EXPECT_EQ(stitch.boundary_count(1), 2);

  stitch.RemoveCore(3);
  EXPECT_EQ(stitch.num_edges(), 0);
  EXPECT_EQ(stitch.num_points(), 3);
  EXPECT_FALSE(stitch.Contains(3));

  // Re-adding rediscovers the edges symmetrically.
  stitch.AddCore(1, 3, P2(8, 0));
  EXPECT_EQ(stitch.num_edges(), 2);
}

TEST(BoundaryStitcherTest, RebuildUnionsAcrossEdgesAndSamePoint) {
  BoundaryStitcher stitch(2, 10.0);
  stitch.AddCore(0, 1, P2(0, 0));
  stitch.AddCore(1, 2, P2(6, 0));   // Edge 1-2 across shards 0/1.
  stitch.AddCore(2, 3, P2(50, 0));  // Isolated in shard 2.

  stitch.Rebuild([](PointId gid, std::vector<LabelKey>* out) {
    // Owner labels 10*gid; point 1 is additionally locally core in shard 1
    // under that shard's label 77 (the same-point rule must merge it).
    if (gid == 1) {
      out->push_back({0, 10});
      out->push_back({1, 77});
    } else if (gid == 2) {
      out->push_back({1, 20});
    } else {
      out->push_back({2, 30});
    }
  });

  const ClusterLabel a = stitch.Resolve(0, 10);
  EXPECT_EQ(a.shard, ClusterLabel::kStitchedShard);
  // Edge rule: shard 0's component 10 and shard 1's component 20 merge.
  EXPECT_EQ(stitch.Resolve(1, 20), a);
  // Same-point rule: shard 1's component 77 contains point 1 too.
  EXPECT_EQ(stitch.Resolve(1, 77), a);
  // Shard 2's component is interned but alone.
  const ClusterLabel c = stitch.Resolve(2, 30);
  EXPECT_NE(c, a);
  // Labels never seen by the stitch resolve to themselves.
  const ClusterLabel raw = stitch.Resolve(3, 99);
  EXPECT_EQ(raw.shard, 3);
  EXPECT_EQ(raw.id, 99u);
  EXPECT_NE(raw, a);
  EXPECT_NE(raw, c);
}

TEST(BoundaryStitcherTest, RebuildTracksCurrentEdgesOnly) {
  BoundaryStitcher stitch(2, 10.0);
  stitch.AddCore(0, 1, P2(0, 0));
  stitch.AddCore(1, 2, P2(6, 0));
  auto labels = [](PointId gid, std::vector<LabelKey>* out) {
    out->push_back({gid == 1 ? 0 : 1, static_cast<uint64_t>(gid * 10)});
  };
  stitch.Rebuild(labels);
  EXPECT_EQ(stitch.Resolve(0, 10), stitch.Resolve(1, 20));

  stitch.RemoveCore(2);
  stitch.Rebuild([](PointId, std::vector<LabelKey>* out) {
    out->push_back({0, 10});
  });
  // The old union is gone: shard 1's label is raw again.
  EXPECT_EQ(stitch.Resolve(1, 20).shard, 1);
}

}  // namespace
}  // namespace ddc
