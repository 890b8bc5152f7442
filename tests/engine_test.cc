#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.h"
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

TEST(ThreadPoolTest, SubmitWakesAParkedWorker) {
  // An idle worker polls its queue only briefly, then parks: each task
  // below reaches a parked worker, which only Submit's signal wakes.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.Submit(i % 2, [&count] { count.fetch_add(1); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (count.load() <= i && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(count.load(), i + 1) << "task " << i << " never ran";
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

  // Within halo of the 100 boundary: shards 0 and 1.
  r = map.HoldersOf(Point{95});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 1);
  r = map.HoldersOf(Point{105});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 1);

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

/// Where `x` has holders other than `map`'s answer requires: at most two,
/// the owner among them, and exactly the slabs within halo of x — the slab
/// below the owner's when x - (its top edge) < halo, the slab above when
/// (its bottom edge) - x <= halo, and, checked too, no slab further away.
/// Empty when x is fine.
std::string HolderViolation(const ShardMap& map, double x) {
  const ShardMap::Range r = map.HoldersOf(Point{x});
  const int owner = map.OwnerOf(Point{x});
  const std::vector<double>& cuts = map.cuts();
  std::string why;
  if (r.last - r.first > 1) why += " more than two holders;";
  if (r.first > owner || r.last < owner) why += " owner not a holder;";
  for (int t = 0; t < map.shards(); ++t) {
    const bool within = t == owner ||
                        (t < owner && x - cuts[t] < map.halo()) ||
                        (t > owner && cuts[t - 1] - x <= map.halo());
    if (within != (r.first <= t && t <= r.last)) {
      why += " slab " + std::to_string(t) +
             (within ? " within halo but not a holder;"
                     : " a holder but not within halo;");
    }
  }
  if (why.empty()) return why;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "x=%.17g holders [%d, %d]:", x, r.first,
                r.last);
  return buf + why;
}

/// At the 2·halo width floor, lo + k·width rounds per cut and can land two
/// cuts a few ulps closer than 2·halo, which gives points near the slab's
/// midpoint three holders unless the map corrects it (the sharded engine's
/// routing records have room for two). Probe ±8 ulps around every midpoint
/// between cuts and around every point halo away from a cut, for several
/// ε, ρ and sample positions.
TEST(ShardMapTest, TwoHolderBoundHoldsInFloatingPoint) {
  auto halo_of = [](double eps, double rho) {
    return DbscanParams{.dim = 1, .eps = eps, .min_pts = 5, .rho = rho}
        .eps_outer();
  };
  {
    // The first case found: x + 809.6... = the midpoint between cuts 0, 1.
    ShardMap map(8, 1, halo_of(300, 0.001));
    const double x = -91.29825816118137;
    map.InitFromSample({Point{x}, Point{x + 1e-4}});
    EXPECT_EQ(HolderViolation(map, 809.60174183881838), "");
  }
  int64_t probes = 0;
  for (const int shards : {8, 64}) {
    for (const double eps : {1.0, 7.3, 110.0, 300.0, 1234.5}) {
      for (const double rho : {0.0, 0.001, 0.1}) {
        for (const double x0 : {-91.29825816118137, 0.0, 0.1, 12345.678,
                                -1e6 / 3}) {
          ShardMap map(shards, 1, halo_of(eps, rho));
          map.InitFromSample({Point{x0}, Point{x0 + 1e-4}});
          ASSERT_DOUBLE_EQ(map.slab_width(), 2 * map.halo());
          const std::vector<double>& cuts = map.cuts();
          std::vector<double> centers;
          for (size_t k = 0; k < cuts.size(); ++k) {
            centers.push_back(cuts[k] - map.halo());
            centers.push_back(cuts[k] + map.halo());
            if (k + 1 < cuts.size()) {
              centers.push_back(cuts[k] + (cuts[k + 1] - cuts[k]) / 2);
            }
          }
          for (const double center : centers) {
            double x = center;
            for (int i = 0; i < 8; ++i) x = std::nextafter(x, -HUGE_VAL);
            for (int i = 0; i <= 16; ++i, x = std::nextafter(x, HUGE_VAL)) {
              const std::string why = HolderViolation(map, x);
              ASSERT_EQ(why, "") << "shards=" << shards << " eps=" << eps
                                 << " rho=" << rho << " x0=" << x0;
              ++probes;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(probes, 100000);
}

TEST(ShardMapTest, SingleShardNeverReplicatesOrStitches) {
  ShardMap map(1, 3, 100.0);
  map.InitFromSample({Point{1, 2, 3}, Point{4, 5, 6}});
  const Point p{2, 3, 4};
  EXPECT_EQ(map.OwnerOf(p), 0);
  const ShardMap::Range r = map.HoldersOf(p);
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 0);
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
// LabelTable

/// The builder in isolation. Which pairs the engine reports, and that they
/// join the right clusters, is checked end to end in
/// sharded_clusterer_test.cc.
TEST(LabelTableTest, BuilderMergesReportedPairsPerEpoch) {
  using Key = LabelTable::Key;
  LabelTable::Builder builder;
  // Shard 0's component 10 meets shard 1's 20, which meets shard 2's 30;
  // shard 1's 77 meets shard 2's 88 only.
  builder.Union(Key{0, 10}, Key{1, 20});
  builder.Union(Key{1, 20}, Key{2, 30});
  builder.Union(Key{1, 77}, Key{2, 88});
  const std::shared_ptr<const LabelTable> first =
      std::move(builder).Finish();

  // Reported pairs merge, transitively, into stitched roots.
  const ClusterLabel a = first->Resolve(0, 10);
  EXPECT_EQ(a.shard, ClusterLabel::kStitchedShard);
  EXPECT_EQ(first->Resolve(1, 20), a);
  EXPECT_EQ(first->Resolve(2, 30), a);
  const ClusterLabel b = first->Resolve(1, 77);
  EXPECT_EQ(b.shard, ClusterLabel::kStitchedShard);
  EXPECT_EQ(first->Resolve(2, 88), b);
  EXPECT_NE(a, b);

  // Labels no union touched resolve to themselves.
  const ClusterLabel raw = first->Resolve(0, 99);
  EXPECT_EQ(raw, (ClusterLabel{0, 99}));
  EXPECT_NE(raw, a);
  EXPECT_NE(raw, b);
  EXPECT_EQ(first->Resolve(3, 10), (ClusterLabel{3, 10}));

  // A new epoch starts empty: the next epoch's table holds only its own
  // unions, and the first one, still held, keeps answering for its epoch.
  EXPECT_EQ(LabelTable::Builder().Finish()->Resolve(0, 10),
            (ClusterLabel{0, 10}));
  LabelTable::Builder next;
  next.Union(Key{0, 10}, Key{1, 77});
  const std::shared_ptr<const LabelTable> second = std::move(next).Finish();
  EXPECT_EQ(second->Resolve(0, 10), second->Resolve(1, 77));
  EXPECT_EQ(second->Resolve(1, 20), (ClusterLabel{1, 20}));
  EXPECT_EQ(second->Resolve(2, 88), (ClusterLabel{2, 88}));
  EXPECT_EQ(first->Resolve(1, 20), a);
  EXPECT_NE(first->Resolve(1, 77), a);
}

}  // namespace
}  // namespace ddc
