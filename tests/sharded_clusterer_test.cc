#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fully_dynamic_clusterer.h"
#include "engine/sharded_clusterer.h"
#include "engine/sharded_snapshot.h"
#include "scenario/scenario.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace ddc {
namespace {

ShardedClusterer::Options SmallOptions(int shards) {
  ShardedClusterer::Options options;
  options.shards = shards;
  options.threads = shards;
  options.batch = 16;
  options.warmup = 64;
  return options;
}

/// shards=1 must be the unsharded engine verbatim: same op stream, no
/// ghosts, no stitching — identical structures make identical don't-care
/// decisions, so Query results match exactly (not just up to the sandwich).
/// This is acceptance criterion #3 of the engine.
TEST(ShardedClustererTest, SingleShardIsVerbatimDoubleApprox) {
  const Workload w =
      BuildScenarioWorkload("paper-mixed:n=800,dim=2,extent=2500,qevery=0",
                            17);
  const DbscanParams params{.dim = 2, .eps = 110.0, .min_pts = 5,
                            .rho = 0.001};

  FullyDynamicClusterer plain(params);
  ShardedClusterer sharded(params, SmallOptions(1));
  std::vector<PointId> plain_ids(w.points.size(), kInvalidPoint);
  std::vector<PointId> sharded_ids(w.points.size(), kInvalidPoint);

  int64_t updates = 0;
  for (const Operation& op : w.ops) {
    if (op.type == Operation::Type::kQuery) continue;
    ApplyOp(plain, w, op, plain_ids);
    ApplyOp(sharded, w, op, sharded_ids);
    if (++updates % 100 != 0 && updates != w.num_updates) continue;

    const std::vector<PointId> alive = AliveInsertionIndices(plain_ids);
    std::vector<PointId> plain_q, sharded_q;
    for (const PointId k : alive) {
      plain_q.push_back(plain_ids[k]);
      sharded_q.push_back(sharded_ids[k]);
    }
    const CGroupByResult a =
        RemapToInsertionIndex(plain.Query(plain_q), plain_ids);
    const CGroupByResult b =
        RemapToInsertionIndex(sharded.Query(sharded_q), sharded_ids);
    ASSERT_EQ(a, b) << "diverged at update " << updates;
  }
  EXPECT_EQ(sharded.size(), plain.size());
}

std::shared_ptr<const ShardedSnapshot> Published(
    const ShardedClusterer& engine) {
  return std::static_pointer_cast<const ShardedSnapshot>(
      engine.CurrentSnapshot());
}

/// The stitched labels of the clusters containing `id` at the epoch the
/// engine publishes next (sorted; empty for noise and dead ids).
std::vector<ClusterLabel> LabelsAfterFlush(ShardedClusterer& engine,
                                           PointId id) {
  engine.Flush();
  const std::shared_ptr<const ShardedSnapshot> snap = Published(engine);
  std::vector<ClusterLabel> labels;
  if (snap->alive(id)) snap->Labels(id, &labels);
  return labels;
}

/// A core chain laid across every slab boundary: the cross-shard stitch must
/// report one cluster end to end, per point through the published epoch's
/// labels and over the whole chain through Query.
TEST(ShardedClustererTest, StitchConnectsChainAcrossAllBoundaries) {
  const DbscanParams params{.dim = 2, .eps = 6.0, .min_pts = 2, .rho = 0.001};
  ShardedClusterer engine(params, SmallOptions(4));

  // x = 0, 5, ..., 40: adjacent points within eps, so the whole chain is
  // one cluster. Slabs are at least 2·halo = 12.012 wide, so the cuts sit
  // at 12.012, 24.024 and 36.036, each crossed by a chain link.
  std::vector<PointId> ids;
  for (int i = 0; i <= 8; ++i) {
    ids.push_back(engine.Insert(Point{5.0 * i, 0.0}));
  }
  engine.Flush();
  ASSERT_TRUE(engine.shard_map().initialized());
  EXPECT_EQ(engine.shard_map().shards(), 4);

  const std::vector<ClusterLabel> head = LabelsAfterFlush(engine, ids[0]);
  ASSERT_EQ(head.size(), 1u);
  EXPECT_EQ(head[0].shard, ClusterLabel::kStitchedShard);
  for (const PointId id : ids) {
    EXPECT_TRUE(LabelsAfterFlush(engine, id) == head) << "id " << id;
  }
  EXPECT_GT(engine.num_boundary_points(), 0);
  EXPECT_GT(engine.num_boundary_edges(), 0);
  // Each rebuild exports the stitch's size as gauges.
  const MetricsRegistry& registry = MetricsRegistry::Instance();
  EXPECT_EQ(registry.ValueOf("engine.stitch_points", -1),
            engine.num_boundary_points());
  EXPECT_EQ(registry.ValueOf("engine.stitch_edges", -1),
            engine.num_boundary_edges());

  const CGroupByResult all = engine.QueryAll();
  ASSERT_EQ(all.groups.size(), 1u);
  EXPECT_EQ(all.groups[0].size(), ids.size());
  EXPECT_TRUE(all.noise.empty());

  // A far-away singleton (inserted after the partition is fixed) is noise.
  const PointId lonely = engine.Insert(Point{1000.0, 1000.0});
  EXPECT_TRUE(LabelsAfterFlush(engine, lonely).empty());
  const CGroupByResult pair = engine.Query({lonely, ids[0]});
  EXPECT_EQ(pair.groups, (std::vector<std::vector<PointId>>{{ids[0]}}));
  EXPECT_EQ(pair.noise, (std::vector<PointId>{lonely}));
  EXPECT_EQ(engine.size(), static_cast<int64_t>(ids.size()) + 1);

  // Splitting the chain at a boundary splits the stitched cluster.
  engine.Delete(ids[4]);  // x = 20, a two-holder point.
  CGroupByResult split = engine.QueryAll();
  split.Canonicalize();
  EXPECT_EQ(split.groups,
            (std::vector<std::vector<PointId>>{
                {ids[0], ids[1], ids[2], ids[3]},
                {ids[5], ids[6], ids[7], ids[8]}}));
  EXPECT_EQ(split.noise, (std::vector<PointId>{lonely}));
  EXPECT_TRUE(LabelsAfterFlush(engine, ids[4]).empty());
}

/// Two core points within ε on either side of the one cut, each core only
/// in its owner: the other holder lacks the two points behind it and counts
/// 2 < MinPts. No point is core in both holders, so only the cross-shard
/// edge — one shard's core point certifying the membership of the other
/// shard's core point — joins the two halves into one cluster.
TEST(ShardedClustererTest, CrossShardEdgeJoinsCoresCoreOnlyInTheirOwners) {
  for (const double rho : {0.0, 0.001}) {
    SCOPED_TRACE(rho);
    const DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = rho};
    ShardedClusterer::Options options = SmallOptions(2);
    options.warmup = 2;
    ShardedClusterer engine(params, options);
    // The warmup sample spans [-10, 10], which puts the one cut at x = 0.
    const PointId far_left = engine.Insert(Point{-10.0, 0.0});
    const PointId far_right = engine.Insert(Point{10.0, 0.0});
    ASSERT_TRUE(engine.shard_map().initialized());
    ASSERT_EQ(engine.shard_map().cuts(), std::vector<double>{0.0});

    // Each point has 3 points within ε, itself included, so all six are
    // core; -0.4 and 0.4 are the only ones within the halo of the cut.
    std::vector<PointId> ids;
    for (const double x : {-1.3, -1.2, -0.4, 0.4, 1.2, 1.3}) {
      ids.push_back(engine.Insert(Point{x, 0.0}));
    }
    CGroupByResult all = engine.QueryAll();
    all.Canonicalize();
    EXPECT_EQ(all.groups, (std::vector<std::vector<PointId>>{ids}));
    EXPECT_EQ(all.noise, (std::vector<PointId>{far_left, far_right}));
  }
}

TEST(ShardedClustererTest, DeletesAndAlivePointsStayConsistent) {
  const DbscanParams params{.dim = 2, .eps = 110.0, .min_pts = 5,
                            .rho = 0.001};
  const Workload w = BuildScenarioWorkload(
      "hotspot:n=500,clusters=3,cold=3,band=0.2,dim=2,extent=2500,qevery=0",
      23);
  ShardedClusterer engine(params, SmallOptions(4));
  std::vector<PointId> ids(w.points.size(), kInvalidPoint);
  for (const Operation& op : w.ops) {
    if (op.type == Operation::Type::kQuery) continue;
    ApplyOp(engine, w, op, ids);
  }
  engine.Flush();
  EXPECT_EQ(engine.size(), w.num_inserts - w.num_deletes);
  EXPECT_EQ(static_cast<int64_t>(engine.AlivePoints().size()), engine.size());
  EXPECT_EQ(static_cast<int64_t>(AliveInsertionIndices(ids).size()),
            engine.size());
}

/// Telemetry invariants, and the point of the hotspot scenario: the slab
/// holding the hot band owns the bulk of the stream. Occupancy lands in the
/// process metrics registry as engine.shard.NN.* gauges, and the skew as
/// the engine.shard_imbalance gauge.
TEST(ShardedClustererTest, TelemetryExposesHotspotImbalance) {
  const DbscanParams params{.dim = 2, .eps = 110.0, .min_pts = 5,
                            .rho = 0.001};
  const Workload w = BuildScenarioWorkload(
      "hotspot:n=600,hot=0.9,band=0.1,clusters=3,cold=3,dim=2,extent=2500,"
      "qevery=0",
      29);
  ShardedClusterer engine(params, SmallOptions(4));
  std::vector<PointId> ids(w.points.size(), kInvalidPoint);
  for (const Operation& op : w.ops) {
    if (op.type == Operation::Type::kQuery) continue;
    ApplyOp(engine, w, op, ids);
  }

  engine.PublishShardMetrics();
  const MetricsRegistry& registry = MetricsRegistry::Instance();
  ASSERT_EQ(registry.ValueOf("engine.shards", -1), 4);
  int64_t owned = 0, ops = 0, max_owned = 0, boundary_core = 0;
  for (int s = 0; s < 4; ++s) {
    const int64_t shard_owned =
        registry.ValueOf(ShardedClusterer::ShardMetricName(s, "owned"), -1);
    EXPECT_GE(registry.ValueOf(
                  ShardedClusterer::ShardMetricName(s, "ghosts"), -1),
              0);
    EXPECT_GE(registry.ValueOf(ShardedClusterer::ShardMetricName(s, "core"),
                               -1),
              0);
    owned += shard_owned;
    ops += registry.ValueOf(
        ShardedClusterer::ShardMetricName(s, "ops_applied"), -1);
    boundary_core += registry.ValueOf(
        ShardedClusterer::ShardMetricName(s, "boundary_core"), -1);
    max_owned = std::max(max_owned, shard_owned);
  }
  // Owned replicas partition the alive set; ops include ghost replication.
  EXPECT_EQ(owned, engine.size());
  EXPECT_GE(ops, w.num_updates);
  // Each stitch point counts in its owner's boundary_core gauge.
  EXPECT_EQ(boundary_core, engine.num_boundary_points());
  // 90% of inserts land in a 10%-wide band: the hot slab dominates.
  EXPECT_GT(max_owned, engine.size() / 2);
  // The imbalance gauge is max/mean owned occupancy in milli-units.
  const double mean = static_cast<double>(engine.size()) / 4;
  EXPECT_EQ(registry.ValueOf("engine.shard_imbalance", -1),
            std::llround(static_cast<double>(max_owned) / mean * 1000.0));
}

/// Batched ingest must survive interleaved flushes at every shard count
/// (covers publish/drain paths at batch boundaries and mid-batch).
TEST(ShardedClustererTest, InterleavedFlushesMatchOracleAtEveryShardCount) {
  const DbscanParams params{.dim = 2, .eps = 110.0, .min_pts = 5, .rho = 0};
  const Workload w = BuildScenarioWorkload(
      "paper-mixed:n=300,dim=2,extent=2500,qevery=0", 31);
  for (const int shards : {2, 8}) {
    SCOPED_TRACE(shards);
    ShardedClusterer engine(params, SmallOptions(shards));
    std::vector<PointId> ids(w.points.size(), kInvalidPoint);
    int64_t updates = 0;
    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kQuery) continue;
      ApplyOp(engine, w, op, ids);
      if (++updates % 37 == 0) engine.Flush();
      if (updates % 75 != 0 && updates != w.num_updates) continue;
      // rho == 0: the sharded result must equal exact DBSCAN verbatim.
      const CGroupByResult reported =
          RemapToInsertionIndex(engine.QueryAll(), ids);
      const CGroupByResult oracle = OracleOverAlive(w.points, ids, params);
      ASSERT_EQ(reported, oracle) << "at update " << updates;
    }
  }
}

// ---------------------------------------------------------------------------
// Published epochs: routing records in copy-on-write pages

/// Everything a snapshot answers about global ids [0, n): the point API
/// per id (the labels of the dead and unborn ones left empty), the alive
/// count and one Query over all of them.
struct Answers {
  std::vector<bool> alive;
  std::vector<std::vector<ClusterLabel>> labels;
  int64_t size = 0;
  CGroupByResult query;
};

Answers AnswersOf(const ShardedSnapshot& snap, PointId n) {
  Answers a;
  std::vector<PointId> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  for (const PointId id : all) {
    a.alive.push_back(snap.alive(id));
    a.labels.emplace_back();
    if (snap.alive(id)) snap.Labels(id, &a.labels.back());
  }
  a.size = snap.size();
  a.query = snap.Query(all);
  return a;
}

/// `snap` still answers exactly `want`, which it answered when published.
void ExpectSameAnswers(const Answers& want, const ShardedSnapshot& snap) {
  const Answers got =
      AnswersOf(snap, static_cast<PointId>(want.alive.size()));
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.query, want.query);
  for (size_t id = 0; id < want.alive.size(); ++id) {
    EXPECT_EQ(got.alive[id], want.alive[id]) << "id " << id;
    EXPECT_TRUE(got.labels[id] == want.labels[id]) << "id " << id;
  }
}

/// Counts the route pages the next publishes rebuild and reuse.
struct RoutePageCounts {
  RoutePageCounts() { Reset(); }
  void Reset() {
    rebuilt0 = Value("engine.route_pages_rebuilt");
    reused0 = Value("engine.route_pages_reused");
  }
  int64_t rebuilt() const {
    return Value("engine.route_pages_rebuilt") - rebuilt0;
  }
  int64_t reused() const {
    return Value("engine.route_pages_reused") - reused0;
  }
  static int64_t Value(const char* name) {
    return MetricsRegistry::Instance().ValueOf(name);
  }
  int64_t rebuilt0 = 0;
  int64_t reused0 = 0;
};

/// Ids are insertion indices here (nothing else inserts), so the engine's
/// reported groups compare directly with exact DBSCAN over the alive ones.
void ExpectExactDbscan(ShardedClusterer& engine,
                       const std::vector<Point>& points,
                       const std::vector<PointId>& ids,
                       const DbscanParams& params) {
  ASSERT_EQ(params.rho, 0);
  EXPECT_EQ(RemapToInsertionIndex(engine.QueryAll(), ids),
            OracleOverAlive(points, ids, params));
}

/// A snapshot held across later publishes keeps answering for its own
/// epoch: the publishes delete its ids (on a shared page and on its tail
/// page), insert into its tail page, and add new two-holder points at every
/// cut, and none of that may write a page it holds.
TEST(ShardedClustererTest, HeldSnapshotAnswersForItsEpochAcrossPublishes) {
  const DbscanParams params{.dim = 2, .eps = 6.0, .min_pts = 3, .rho = 0};
  ShardedClusterer engine(params, SmallOptions(4));
  Rng rng(41);
  std::vector<Point> points;
  std::vector<PointId> ids;
  auto insert = [&](double x, double y) {
    points.push_back(Point{x, y});
    ids.push_back(engine.Insert(points.back()));
    EXPECT_EQ(ids.back(), static_cast<PointId>(points.size()) - 1);
  };
  auto erase = [&](PointId id) {
    engine.Delete(id);
    ids[id] = kInvalidPoint;
  };
  // A blob of `n` points within 3 of (x, 20) on each axis: core points,
  // with two holders when x is a cut.
  auto blob = [&](double x, int n) {
    for (int i = 0; i < n; ++i) {
      insert(x + rng.NextDouble(-3, 3), 20 + rng.NextDouble(-3, 3));
    }
  };

  // The 64-insert warmup spans [0, 400] on dimension 0: cuts 100, 200, 300.
  insert(0, 0);
  insert(400, 0);
  for (int i = 0; i < 50; ++i) {
    insert(rng.NextDouble(0, 400), rng.NextDouble(0, 40));
  }
  for (const double cut : {100.0, 200.0, 300.0}) blob(cut, 10);
  engine.Flush();
  ASSERT_EQ(engine.shard_map().cuts(), (std::vector<double>{100, 200, 300}));
  ASSERT_EQ(points.size(), 82u);  // Page 0 full, page 1 (its tail) 18 ids.
  EXPECT_GT(engine.num_boundary_points(), 0);
  ExpectExactDbscan(engine, points, ids, params);

  const std::shared_ptr<const ShardedSnapshot> held = Published(engine);
  const PointId held_ids = static_cast<PointId>(points.size());
  // Ask about a few unborn ids too: they must stay unknown to `held`.
  const Answers want = AnswersOf(*held, held_ids + 70);

  // Publish 1: deletes only — on the shared page 0 (a blob member at the
  // 100 cut and two sparse points) and on the tail page.
  const std::vector<PointId> deleted = {5, 17, 52, 70, 81};
  for (const PointId id : deleted) erase(id);
  engine.Flush();
  for (const PointId id : deleted) ASSERT_FALSE(Published(engine)->alive(id));
  ExpectExactDbscan(engine, points, ids, params);
  ExpectSameAnswers(want, *held);

  // Publish 2: inserts into the held epoch's tail page, two-holder points
  // among them, up to id 95.
  for (const double cut : {100.0, 200.0, 300.0}) blob(cut, 4);
  blob(150, 2);
  engine.Flush();
  ASSERT_EQ(points.size(), 96u);
  ExpectExactDbscan(engine, points, ids, params);
  ExpectSameAnswers(want, *held);

  // Publish 3: new two-holder points at every cut, past the held tail page,
  // plus deletes of held ids on both of its pages.
  for (const double cut : {100.0, 200.0, 300.0}) blob(cut, 12);
  for (const PointId id : {3, 60, 66}) erase(id);
  engine.Flush();
  ExpectExactDbscan(engine, points, ids, params);
  ExpectSameAnswers(want, *held);

  // Publish 4: delete every point the held epoch did not know.
  for (PointId id = held_ids; id < static_cast<PointId>(points.size());
       ++id) {
    erase(id);
  }
  engine.Flush();
  ExpectExactDbscan(engine, points, ids, params);
  ExpectSameAnswers(want, *held);
  EXPECT_LT(held->epoch(), Published(engine)->epoch());
}

/// Ids 63, 64 and 65 straddle the first page boundary. Each publish
/// rebuilds exactly the page its deletes or new ids touch, and every held
/// epoch keeps its own view of the three ids.
TEST(ShardedClustererTest, RoutePagesSplitAtIdSixtyFour) {
  const DbscanParams params{.dim = 2, .eps = 6.0, .min_pts = 3, .rho = 0};
  ShardedClusterer::Options options = SmallOptions(4);
  options.warmup = 8;
  ShardedClusterer engine(params, options);
  std::vector<Point> points;
  std::vector<PointId> ids;
  auto insert = [&] {
    // A line with spacing 5 < eps, so every point is core and the line is
    // one cluster across every cut; the warmup spans [0, 400].
    const int k = static_cast<int>(points.size());
    points.push_back(Point{k < 8 ? 400.0 * k / 7 : 5.0 * (k % 80), 1.0});
    ids.push_back(engine.Insert(points.back()));
  };
  auto erase = [&](PointId id) {
    engine.Delete(id);
    ids[id] = kInvalidPoint;
  };

  struct Held {
    std::shared_ptr<const ShardedSnapshot> snap;
    Answers want;
  };
  std::vector<Held> held;
  RoutePageCounts counts;
  // Flushes, checks the publish rebuilt `rebuilt` pages and reused the
  // rest, then checks every held epoch against what it first answered.
  auto publish = [&](int64_t rebuilt, int64_t pages) {
    counts.Reset();
    engine.Flush();
    EXPECT_EQ(counts.rebuilt(), rebuilt);
    EXPECT_EQ(counts.reused(), pages - rebuilt);
    ExpectExactDbscan(engine, points, ids, params);
    const std::shared_ptr<const ShardedSnapshot> snap = Published(engine);
    for (PointId id = 0; id < static_cast<PointId>(ids.size()); ++id) {
      ASSERT_EQ(snap->alive(id), ids[id] != kInvalidPoint) << "id " << id;
    }
    held.push_back(Held{snap, AnswersOf(*snap, 70)});
    for (const Held& h : held) ExpectSameAnswers(h.want, *h.snap);
  };

  while (points.size() < 64) insert();
  publish(/*rebuilt=*/1, /*pages=*/1);  // Ids 0-63: page 0, full.
  insert();
  publish(1, 2);  // Id 64 opens page 1.
  insert();
  publish(1, 2);  // Id 65: page 1 again, as the tail.
  erase(63);
  publish(1, 2);  // A delete-only epoch on page 0.
  erase(64);
  publish(1, 2);  // ... and on page 1.
  erase(65);
  insert();
  publish(1, 2);  // A delete and a new id on the same page.
  erase(62);
  erase(66);
  publish(2, 2);
  EXPECT_EQ(engine.size(), 62);
}

/// One delete among 10k ids rebuilds at most two route pages at the next
/// publish (one, in fact: its own); a delete-only epoch rebuilds exactly
/// the pages its deletes touched.
TEST(ShardedClustererTest, DeleteOnlyEpochRebuildsOnlyTouchedPages) {
  const DbscanParams params{.dim = 2, .eps = 20.0, .min_pts = 4,
                            .rho = 0.001};
  ShardedClusterer engine(params, SmallOptions(4));
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    engine.Insert(Point{rng.NextDouble(0, 4000), rng.NextDouble(0, 400)});
  }
  engine.Flush();
  const std::shared_ptr<const ShardedSnapshot> before = Published(engine);
  const int64_t pages = (10000 + 63) / 64;

  RoutePageCounts counts;
  engine.Delete(5000);
  engine.Flush();
  EXPECT_LE(counts.rebuilt(), 2);
  EXPECT_GE(counts.reused(), pages - 2);
  EXPECT_EQ(counts.rebuilt() + counts.reused(), pages);
  const std::shared_ptr<const ShardedSnapshot> after = Published(engine);
  EXPECT_TRUE(before->alive(5000));
  EXPECT_FALSE(after->alive(5000));
  EXPECT_EQ(after->size(), before->size() - 1);

  counts.Reset();
  for (const PointId id : {0, 1, 63, 640, 641, 9999}) engine.Delete(id);
  engine.Flush();
  EXPECT_EQ(counts.rebuilt(), 3);  // Pages 0, 10 and 156.
  EXPECT_EQ(counts.reused(), pages - 3);
  for (const PointId id : {0, 1, 63, 640, 641, 9999}) {
    EXPECT_TRUE(after->alive(id));
    EXPECT_FALSE(Published(engine)->alive(id));
  }
  EXPECT_TRUE(Published(engine)->alive(64));
  EXPECT_TRUE(Published(engine)->alive(9998));
}

/// Local ids are assigned when a point is routed, so the warmup replay
/// assigns them too: deletes buffered during warmup, and a partition fixed
/// at the first insert (warmup=0, where the slabs sit at the 2·halo floor
/// and many points have two holders), both stay verbatim exact DBSCAN.
TEST(ShardedClustererTest, WarmupDeletesAndZeroWarmupStayExact) {
  const DbscanParams params{.dim = 2, .eps = 8.0, .min_pts = 3, .rho = 0};
  for (const int warmup : {0, 64}) {
    SCOPED_TRACE(warmup);
    ShardedClusterer::Options options = SmallOptions(4);
    options.warmup = warmup;
    ShardedClusterer engine(params, options);
    Rng rng(47);
    std::vector<Point> points;
    std::vector<PointId> ids;
    std::vector<PointId> alive;
    for (int step = 0; step < 600; ++step) {
      if (alive.size() > 4 && rng.NextBernoulli(0.3)) {
        const size_t k = rng.NextBelow(alive.size());
        engine.Delete(alive[k]);
        ids[alive[k]] = kInvalidPoint;
        alive[k] = alive.back();
        alive.pop_back();
      } else {
        // Clumps along x in [0, 120): 2·halo is 16, so with warmup=0 the
        // slabs are 16 wide and the clumps cross several cuts.
        const double x = 12.0 * static_cast<double>(rng.NextBelow(10)) +
                         rng.NextDouble(0, 6);
        points.push_back(Point{x, rng.NextDouble(0, 6)});
        ids.push_back(engine.Insert(points.back()));
        alive.push_back(ids.back());
      }
      if (warmup == 0) {
        ASSERT_TRUE(engine.shard_map().initialized());
      }
      if (warmup == 64 && step == 50) {
        // Some deletes came before the partition was fixed.
        ASSERT_FALSE(engine.shard_map().initialized());
        ASSERT_LT(alive.size(), points.size());
      }
      if (step % 97 == 96 || step == 599) {
        ExpectExactDbscan(engine, points, ids, params);
      }
    }
    if (warmup == 0) {
      EXPECT_DOUBLE_EQ(engine.shard_map().slab_width(),
                       2 * params.eps_outer());
      EXPECT_GT(engine.num_boundary_points(), 0);
    }
  }
}

/// Two reader threads re-query epochs published earlier while the ingest
/// thread keeps publishing new ones (which rebuild pages, never the ones
/// an older epoch holds): every answer equals the one taken at publish.
TEST(ShardedClustererTest, ReadersQueryOldEpochsWhileIngestPublishes) {
  const DbscanParams params{.dim = 2, .eps = 110.0, .min_pts = 5,
                            .rho = 0.001};
  const Workload w = BuildScenarioWorkload(
      "hotspot:n=1500,clusters=3,cold=3,band=0.2,dim=2,extent=2500,qevery=0",
      53);
  ShardedClusterer engine(params, SmallOptions(4));

  struct Epoch {
    std::shared_ptr<const ShardedSnapshot> snap;
    std::vector<PointId> q;
    CGroupByResult want;
  };
  std::mutex mu;
  std::vector<std::shared_ptr<const Epoch>> epochs;  // Guarded by mu.
  std::atomic<bool> done{false};
  std::atomic<int64_t> checks{0}, mismatches{0};
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const Epoch> e;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!epochs.empty()) e = epochs[rng.NextBelow(epochs.size())];
      }
      if (e == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (!(e->snap->Query(e->q) == e->want)) mismatches.fetch_add(1);
      checks.fetch_add(1);
    }
  };
  std::thread r1(reader, 1), r2(reader, 2);

  std::vector<PointId> ids(w.points.size(), kInvalidPoint);
  int64_t updates = 0;
  for (const Operation& op : w.ops) {
    if (op.type == Operation::Type::kQuery) continue;
    ApplyOp(engine, w, op, ids);
    if (++updates % 25 != 0) continue;
    engine.Flush();
    auto e = std::make_shared<Epoch>();
    e->snap = Published(engine);
    e->q.resize(ids.size() + 64);  // Unborn ids included.
    std::iota(e->q.begin(), e->q.end(), 0);
    e->want = e->snap->Query(e->q);
    std::lock_guard<std::mutex> lock(mu);
    epochs.push_back(std::move(e));
  }
  // Let the readers check old epochs for a while after the last publish.
  while (checks.load() < 200) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(checks.load(), 200);
  EXPECT_GE(epochs.size(), 50u);
}

}  // namespace
}  // namespace ddc
