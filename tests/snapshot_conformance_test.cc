#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/incremental_dbscan.h"
#include "core/semi_dynamic_clusterer.h"
#include "core/static_dbscan.h"
#include "engine/sharded_clusterer.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace ddc {
namespace {

/// Concurrent-reader conformance: a published ClusterSnapshot must answer
/// queries from any number of threads — while the main thread keeps
/// applying updates — with results that are (a) bit-identical to the
/// single-threaded Query() at the same epoch and (b) Theorem-3-sandwich
/// correct against the static oracles of that epoch (verbatim-exact at
/// rho == 0). Run under TSan in CI, this is the proof that the read path
/// shares no mutable state with the write path.

struct Combo {
  std::string name;
  bool supports_delete;
  std::function<std::unique_ptr<Clusterer>(const DbscanParams&)> make;
};

/// A representative slice of the full conformance matrix: the
/// fully-dynamic clusterer, IncDBSCAN at rho == 0, the semi-dynamic
/// clusterer on insert-only streams, and the sharded engine (whose
/// snapshots additionally compose per-shard state across real worker
/// threads).
std::vector<Combo> SnapshotCombos(double rho) {
  std::vector<Combo> combos;
  combos.push_back({"full", true, [](const DbscanParams& p) {
                      return std::make_unique<FullyDynamicClusterer>(p);
                    }});
  combos.push_back({"semi", false, [](const DbscanParams& p) {
                      return std::make_unique<SemiDynamicClusterer>(p);
                    }});
  if (rho == 0) {
    combos.push_back({"inc", true, [](const DbscanParams& p) {
                        return std::make_unique<IncrementalDbscan>(p);
                      }});
  }
  for (const int shards : {1, 4}) {
    ShardedClusterer::Options options;
    options.shards = shards;
    options.threads = shards;
    options.batch = 16;
    options.warmup = 64;
    combos.push_back({"sharded/s" + std::to_string(shards), true,
                      [options](const DbscanParams& p) {
                        return std::make_unique<ShardedClusterer>(p, options);
                      }});
  }
  return combos;
}

struct CheckpointOracles {
  CGroupByResult lower;
  CGroupByResult upper;
};

/// One checkpoint's published snapshot with its reader crew in flight. The
/// readers hammer the frozen epoch while the main thread applies the next
/// segment of updates; Finish() joins them and verifies every result.
struct InFlight {
  std::shared_ptr<const ClusterSnapshot> snap;
  std::vector<PointId> qids;
  CGroupByResult baseline;        // Canonical remapped Query() at the epoch.
  std::vector<PointId> ids_at;    // Insertion-index translation, frozen.
  const CheckpointOracles* oracles = nullptr;
  double rho = 0;
  std::vector<std::thread> threads;
  std::vector<CGroupByResult> results;

  void Finish() {
    for (std::thread& t : threads) t.join();
    threads.clear();
    if (snap == nullptr) return;
    for (size_t r = 0; r < results.size(); ++r) {
      SCOPED_TRACE("reader " + std::to_string(r));
      const CGroupByResult got =
          RemapToInsertionIndex(results[r], ids_at);
      EXPECT_EQ(got, baseline)
          << "concurrent reader diverged from the single-threaded Query()"
             " of the same epoch";
      std::string why;
      EXPECT_TRUE(CheckSandwich(oracles->lower, got, oracles->upper, &why))
          << why;
      if (rho == 0) {
        EXPECT_EQ(got, oracles->lower);
      }
    }
    snap = nullptr;
  }
};

void RunSnapshotConformance(const Workload& w, const DbscanParams& params,
                            int64_t check_every, int num_readers,
                            int reads_per_reader) {
  // Static oracles per checkpoint, shared across combos.
  std::vector<CheckpointOracles> oracles;
  {
    std::vector<PointId> ids(w.points.size(), kInvalidPoint);
    int64_t updates = 0;
    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kQuery) continue;
      ids[op.target] = op.type == Operation::Type::kInsert
                           ? static_cast<PointId>(op.target)
                           : kInvalidPoint;
      ++updates;
      if (updates % check_every == 0 || updates == w.num_updates) {
        CheckpointOracles cp;
        cp.lower = OracleOverAlive(w.points, ids, params);
        if (params.rho == 0) {
          cp.upper = cp.lower;
        } else {
          DbscanParams outer = params;
          outer.eps = params.eps_outer();
          outer.rho = 0;
          cp.upper = OracleOverAlive(w.points, ids, outer);
        }
        oracles.push_back(std::move(cp));
      }
    }
  }

  for (const Combo& combo : SnapshotCombos(params.rho)) {
    if (!combo.supports_delete && w.num_deletes > 0) continue;
    SCOPED_TRACE(combo.name);
    std::unique_ptr<Clusterer> c = combo.make(params);
    std::vector<PointId> ids(w.points.size(), kInvalidPoint);
    int64_t updates = 0;
    size_t checkpoint = 0;
    InFlight flight;
    uint64_t last_epoch = 0;
    bool have_epoch = false;

    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kQuery) continue;
      ApplyOp(*c, w, op, ids);
      ++updates;
      if (updates % check_every != 0 && updates != w.num_updates) continue;

      // Verify the previous crew (they ran while the segment above was
      // being applied), then publish this checkpoint's epoch and launch
      // the next crew against it.
      flight.Finish();
      if (::testing::Test::HasFailure()) return;

      flight.snap = c->Snapshot();
      ASSERT_NE(flight.snap, nullptr);
      EXPECT_EQ(c->CurrentSnapshot(), flight.snap)
          << "Snapshot() must publish what CurrentSnapshot() serves";
      if (have_epoch) {
        EXPECT_GT(flight.snap->epoch(), last_epoch)
            << "epochs must advance across applied updates";
      }
      last_epoch = flight.snap->epoch();
      have_epoch = true;

      flight.qids.clear();
      for (const PointId k : AliveInsertionIndices(ids)) {
        flight.qids.push_back(ids[k]);
      }
      flight.ids_at = ids;
      flight.baseline =
          RemapToInsertionIndex(c->Query(flight.qids), flight.ids_at);
      flight.oracles = &oracles[checkpoint++];
      flight.rho = params.rho;
      flight.results.assign(num_readers, CGroupByResult{});
      for (int r = 0; r < num_readers; ++r) {
        flight.threads.emplace_back(
            [&flight, r, reads_per_reader] {
              CGroupByResult last;
              for (int i = 0; i < reads_per_reader; ++i) {
                last = flight.snap->Query(flight.qids);
              }
              flight.results[r] = std::move(last);
            });
      }
    }
    flight.Finish();
    if (::testing::Test::HasFailure()) return;
  }
}

Workload MakeWorkload(double insert_fraction, uint64_t seed) {
  WorkloadConfig config;
  config.num_updates = 360;
  config.insert_fraction = insert_fraction;
  config.query_every = 0;
  config.spreader.dim = 2;
  config.spreader.extent = 2500.0;
  config.seed = seed;
  return BuildWorkload(config);
}

DbscanParams MakeParams(double rho) {
  return DbscanParams{.dim = 2, .eps = 110.0, .min_pts = 5, .rho = rho};
}

class SnapshotConformanceTest : public ::testing::TestWithParam<double> {};

TEST_P(SnapshotConformanceTest, ConcurrentReadersWhileUpdatesFlow) {
  RunSnapshotConformance(MakeWorkload(0.75, 5), MakeParams(GetParam()), 120,
                         /*num_readers=*/4, /*reads_per_reader=*/3);
}

TEST_P(SnapshotConformanceTest, InsertOnlyIncludesSemiDynamic) {
  RunSnapshotConformance(MakeWorkload(1.0, 6), MakeParams(GetParam()), 120,
                         /*num_readers=*/4, /*reads_per_reader=*/3);
}

INSTANTIATE_TEST_SUITE_P(Rho, SnapshotConformanceTest,
                         ::testing::Values(0.0, 0.001, 0.1),
                         [](const auto& info) {
                           return info.param == 0.0     ? "Exact"
                                  : info.param == 0.001 ? "TinyRho"
                                                        : "WideRho";
                         });

/// The freeze contract itself, independent of threads: a snapshot keeps
/// answering for its own epoch no matter how the live clusterer moves on.
TEST(SnapshotSemanticsTest, SnapshotIsImmuneToLaterUpdates) {
  const DbscanParams params{.dim = 2, .eps = 1.5, .min_pts = 3, .rho = 0};
  FullyDynamicClusterer c(params);
  std::vector<PointId> cluster;
  for (int i = 0; i < 5; ++i) {
    cluster.push_back(c.Insert(Point{static_cast<double>(i) * 0.5, 0.0}));
  }
  const std::shared_ptr<const ClusterSnapshot> snap = c.Snapshot();
  CGroupByResult before = snap->Query(cluster);
  before.Canonicalize();
  ASSERT_EQ(before.groups.size(), 1u);

  // Demolish the cluster and insert fresh points; the frozen epoch must
  // not notice, and ids born later must be invisible to it.
  for (const PointId p : cluster) c.Delete(p);
  const PointId later = c.Insert(Point{40.0, 40.0});
  EXPECT_FALSE(snap->alive(later));
  std::vector<PointId> with_later = cluster;
  with_later.push_back(later);
  CGroupByResult after = snap->Query(with_later);
  after.Canonicalize();
  EXPECT_EQ(after, before);
  EXPECT_EQ(snap->size(), 5);
  EXPECT_EQ(c.size(), 1);
}

TEST(SnapshotSemanticsTest, SnapshotIsCachedBetweenUpdates) {
  const DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 2, .rho = 0};
  FullyDynamicClusterer c(params);
  c.Insert(Point{0.0, 0.0});
  const auto first = c.Snapshot();
  EXPECT_EQ(c.Snapshot(), first) << "no updates -> same cached snapshot";
  c.Insert(Point{0.1, 0.0});
  const auto second = c.Snapshot();
  EXPECT_NE(second, first);
  EXPECT_GT(second->epoch(), first->epoch());
}

}  // namespace
}  // namespace ddc
