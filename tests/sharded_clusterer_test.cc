#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fully_dynamic_clusterer.h"
#include "engine/sharded_clusterer.h"
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

/// A core chain laid across every slab boundary: the cross-shard stitch must
/// report one cluster end to end, through ClusterIdOf and SameCluster.
TEST(ShardedClustererTest, StitchConnectsChainAcrossAllBoundaries) {
  const DbscanParams params{.dim = 2, .eps = 6.0, .min_pts = 2, .rho = 0.001};
  ShardedClusterer engine(params, SmallOptions(4));

  // x = 0, 5, ..., 40: adjacent points within eps, so the whole chain is
  // one cluster. The slab partition [0, 40] / 4 puts boundaries at 10, 20
  // and 30, each crossed by chain links.
  std::vector<PointId> ids;
  for (int i = 0; i <= 8; ++i) {
    ids.push_back(engine.Insert(Point{5.0 * i, 0.0}));
  }
  engine.Flush();
  ASSERT_TRUE(engine.shard_map().initialized());
  EXPECT_EQ(engine.shard_map().shards(), 4);

  const ClusterLabel head = engine.ClusterIdOf(ids.front());
  ASSERT_TRUE(head.valid());
  for (const PointId id : ids) {
    EXPECT_EQ(engine.ClusterIdOf(id), head);
    EXPECT_TRUE(engine.SameCluster(ids.front(), id));
  }
  EXPECT_GT(engine.num_boundary_points(), 0);
  EXPECT_GT(engine.num_boundary_edges(), 0);

  const CGroupByResult all = engine.QueryAll();
  ASSERT_EQ(all.groups.size(), 1u);
  EXPECT_EQ(all.groups[0].size(), ids.size());
  EXPECT_TRUE(all.noise.empty());

  // A far-away singleton (inserted after the partition is fixed) is noise.
  const PointId lonely = engine.Insert(Point{1000.0, 1000.0});
  EXPECT_EQ(engine.ClusterIdOf(lonely), kNoCluster);
  EXPECT_FALSE(engine.SameCluster(lonely, ids.front()));
  EXPECT_EQ(engine.size(), static_cast<int64_t>(ids.size()) + 1);

  // Splitting the chain at a boundary splits the stitched cluster.
  engine.Delete(ids[4]);  // x = 20, on a slab edge.
  EXPECT_FALSE(engine.SameCluster(ids.front(), ids.back()));
  EXPECT_TRUE(engine.SameCluster(ids[0], ids[3]));
  EXPECT_TRUE(engine.SameCluster(ids[5], ids[8]));
  EXPECT_EQ(engine.ClusterIdOf(lonely), kNoCluster);
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
  int64_t owned = 0, ops = 0, max_owned = 0;
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
    max_owned = std::max(max_owned, shard_owned);
  }
  // Owned replicas partition the alive set; ops include ghost replication.
  EXPECT_EQ(owned, engine.size());
  EXPECT_GE(ops, w.num_updates);
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

}  // namespace
}  // namespace ddc
