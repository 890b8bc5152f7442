#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/clusterer.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/incremental_dbscan.h"
#include "core/semi_dynamic_clusterer.h"
#include "core/static_dbscan.h"
#include "engine/sharded_clusterer.h"
#include "scenario/scenario.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace ddc {
namespace {

/// Cross-cutting conformance harness: every Clusterer implementation runs
/// the same seeded workloads, and at every checkpoint the reported
/// clustering must satisfy
/// the paper's sandwich guarantee (Theorem 3) against the static exact
/// oracle — refined by exact DBSCAN at ε and refining exact DBSCAN at
/// (1+ρ)ε — with exact equality when rho == 0.

/// One clusterer configuration under test.
struct Combo {
  std::string name;
  bool supports_delete;
  std::function<std::unique_ptr<Clusterer>(const DbscanParams&)> make;
};

/// All configurations valid at the given rho: the semi-dynamic and the
/// fully-dynamic clusterer, and — since IncDBSCAN maintains exact DBSCAN —
/// the baseline at rho == 0.
std::vector<Combo> AllCombos(double rho) {
  std::vector<Combo> combos;
  combos.push_back({"semi", false, [](const DbscanParams& p) {
                      return std::make_unique<SemiDynamicClusterer>(p);
                    }});
  combos.push_back({"full", true, [](const DbscanParams& p) {
                      return std::make_unique<FullyDynamicClusterer>(p);
                    }});
  if (rho == 0) {
    combos.push_back({"inc", true, [](const DbscanParams& p) {
                        return std::make_unique<IncrementalDbscan>(p);
                      }});
  }
  // The sharded engine at every acceptance shard count. Small batches and a
  // short warmup so the tiny workloads exercise the buffered-prefix replay,
  // steady-state batching, ghost replication and the cross-shard stitch
  // rather than degenerating into one giant batch.
  for (const int shards : {1, 2, 4, 8}) {
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

/// The two oracle clusterings bounding a checkpoint: exact DBSCAN at ε
/// (lower) and at (1+ρ)ε (upper), in insertion-index space.
struct CheckpointOracles {
  CGroupByResult lower;
  CGroupByResult upper;
};

/// Queries `c` over all alive points and checks the sandwich bounds (and
/// exact equality with the ε oracle when rho == 0) in insertion-index space.
void ExpectSandwichHolds(Clusterer& c, const std::vector<PointId>& ids,
                         double rho, const CheckpointOracles& oracles) {
  const std::vector<PointId> alive = AliveInsertionIndices(ids);
  std::vector<PointId> alive_pids;
  alive_pids.reserve(alive.size());
  for (const PointId k : alive) alive_pids.push_back(ids[k]);

  const CGroupByResult reported =
      RemapToInsertionIndex(c.Query(alive_pids), ids);
  std::string why;
  EXPECT_TRUE(CheckSandwich(oracles.lower, reported, oracles.upper, &why))
      << why;
  if (rho == 0) {
    EXPECT_EQ(reported, oracles.lower)
        << "rho == 0 must reproduce exact DBSCAN verbatim";
  }
}

/// Drives every combo through the workload, checkpointing every
/// `check_every` updates and after the final update. The alive set at each
/// checkpoint is combo-independent, so the static oracles are computed once
/// (replaying the ops without a clusterer) and shared across all combos.
void RunConformance(const Workload& w, const DbscanParams& params,
                    int64_t check_every) {
  std::vector<CheckpointOracles> oracles;
  {
    std::vector<PointId> ids(w.points.size(), kInvalidPoint);
    int64_t updates = 0;
    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kQuery) continue;
      // The alive/dead pattern is all OracleOverAlive reads, so the
      // insertion index itself stands in for a live PointId.
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

  for (const Combo& combo : AllCombos(params.rho)) {
    if (!combo.supports_delete && w.num_deletes > 0) continue;
    SCOPED_TRACE(combo.name);
    std::unique_ptr<Clusterer> c = combo.make(params);
    std::vector<PointId> ids(w.points.size(), kInvalidPoint);
    int64_t updates = 0;
    size_t checkpoint = 0;
    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kQuery) continue;
      ApplyOp(*c, w, op, ids);
      ++updates;
      if (updates % check_every == 0 || updates == w.num_updates) {
        ExpectSandwichHolds(*c, ids, params.rho, oracles[checkpoint++]);
        if (::testing::Test::HasFailure()) {
          return;  // One broken combo is enough signal; stop early.
        }
      }
    }
    EXPECT_EQ(c->size(), w.num_inserts - w.num_deletes);
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

class ConformanceTest : public ::testing::TestWithParam<double> {};

TEST_P(ConformanceTest, InsertOnlyWorkload) {
  RunConformance(MakeWorkload(1.0, 7), MakeParams(GetParam()), 120);
}

TEST_P(ConformanceTest, DeleteHeavyWorkload) {
  RunConformance(MakeWorkload(0.55, 8), MakeParams(GetParam()), 120);
}

TEST_P(ConformanceTest, MixedWorkload) {
  RunConformance(MakeWorkload(0.75, 9), MakeParams(GetParam()), 120);
}

/// rho == 0 exercises the exact configurations (plus IncDBSCAN and the
/// exact-equality assertion); the larger rho widens the don't-care band so
/// the sandwich is checked where approximate and exact genuinely diverge.
INSTANTIATE_TEST_SUITE_P(Rho, ConformanceTest,
                         ::testing::Values(0.0, 0.001, 0.1),
                         [](const auto& info) {
                           return info.param == 0.0     ? "Exact"
                                  : info.param == 0.001 ? "TinyRho"
                                                        : "WideRho";
                         });

/// The scenario library runs through the same sandwich harness: every
/// generator, tiny sizes, dim=2 so the MakeParams geometry applies, at the
/// driver's production rho values {0, 0.001}. Correctness is
/// geometry-independent (the oracle sees the same points), so this pins
/// down the update-stream shapes — FIFO expiry, delete waves, bridge
/// oscillation — against every clusterer.
struct ScenarioCase {
  const char* label;
  const char* spec;
};

class ScenarioConformanceTest
    : public ::testing::TestWithParam<std::tuple<ScenarioCase, double>> {};

TEST_P(ScenarioConformanceTest, SandwichHoldsOnScenarioWorkload) {
  const auto& [scenario, rho] = GetParam();
  const Workload w = BuildScenarioWorkload(scenario.spec, 21);
  RunConformance(w, MakeParams(rho), 120);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ScenarioConformanceTest,
    ::testing::Combine(
        ::testing::Values(
            ScenarioCase{"PaperMixed",
                         "paper-mixed:n=360,dim=2,extent=2500,qevery=0"},
            ScenarioCase{"SlidingWindow",
                         "sliding-window:n=360,window=120,dim=2,extent=2500,"
                         "qevery=0"},
            ScenarioCase{"Burst",
                         "burst:n=360,burst=60,dup=0.4,clusters=4,dim=2,"
                         "extent=2500,qevery=0"},
            ScenarioCase{"Zipf",
                         "zipf:n=360,clusters=6,ins=0.8,dim=2,extent=2500,"
                         "qevery=0"},
            ScenarioCase{"Drift",
                         "drift:n=360,clusters=4,window=120,drift=1.0,dim=2,"
                         "extent=2500,qevery=0"},
            ScenarioCase{"Hotspot",
                         "hotspot:n=360,clusters=3,cold=3,band=0.15,dim=2,"
                         "extent=2500,qevery=0"},
            ScenarioCase{"HotspotMigrate",
                         "hotspot-migrate:n=360,period=90,clusters=3,cold=3,"
                         "band=0.12,dim=2,extent=2500,qevery=0"},
            ScenarioCase{"QueryStorm",
                         "query-storm:n=360,clusters=3,dim=2,extent=2500,"
                         "qevery=0"},
            ScenarioCase{"SplitMerge",
                         "split-merge:n=360,eps=110,blob=40,dim=2,qevery=0"}),
        ::testing::Values(0.0, 0.001)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).label) +
             (std::get<1>(info.param) == 0.0 ? "_Exact" : "_TinyRho");
    });

}  // namespace
}  // namespace ddc
