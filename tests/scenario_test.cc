#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "workload/workload.h"

namespace ddc {
namespace {

/// Tiny-size specs exercising every registered scenario; kept in sync with
/// the registry by the RegistryIsFullyCovered test below.
const char* kTinySpecs[] = {
    "paper-mixed:n=600,qevery=100",
    "sliding-window:n=600,window=150,qevery=100",
    "burst:n=600,burst=80,dup=0.4,qevery=100",
    "zipf:n=600,clusters=8,alpha=1.2,ins=0.8,qevery=100",
    "drift:n=600,clusters=4,window=200,qevery=100",
    "hotspot:n=600,clusters=4,cold=6,band=0.1,qevery=100",
    "hotspot-migrate:n=600,period=150,clusters=4,cold=6,band=0.1,qevery=100",
    "query-storm:n=600,clusters=4,qevery=10,qmin=8,qmax=32",
    "split-merge:n=600,eps=150,qevery=100",
};

/// Structural invariants every generated workload must satisfy: update
/// counts match the ops stream, deletes hit only alive points, queries
/// reference only alive points without duplicates.
void ExpectValidWorkload(const Workload& w) {
  EXPECT_GT(w.dim, 0);
  EXPECT_EQ(w.num_updates, w.num_inserts + w.num_deletes);

  std::set<int64_t> alive;
  int64_t inserts = 0, deletes = 0, queries = 0;
  for (const Operation& op : w.ops) {
    switch (op.type) {
      case Operation::Type::kInsert:
        ASSERT_GE(op.target, 0);
        ASSERT_LT(op.target, static_cast<int64_t>(w.points.size()));
        ASSERT_TRUE(alive.insert(op.target).second) << "double insert";
        ++inserts;
        break;
      case Operation::Type::kDelete:
        ASSERT_EQ(alive.erase(op.target), 1u) << "delete of dead point";
        ++deletes;
        break;
      case Operation::Type::kQuery: {
        ASSERT_FALSE(op.query.empty());
        std::set<int64_t> uniq;
        for (const int64_t idx : op.query) {
          ASSERT_TRUE(alive.count(idx)) << "query references dead point";
          ASSERT_TRUE(uniq.insert(idx).second) << "duplicate in query";
        }
        ++queries;
        break;
      }
    }
  }
  EXPECT_EQ(inserts, w.num_inserts);
  EXPECT_EQ(deletes, w.num_deletes);
  EXPECT_EQ(queries, w.num_queries);
}

bool SameWorkload(const Workload& a, const Workload& b) {
  if (a.points.size() != b.points.size() || a.ops.size() != b.ops.size() ||
      a.dim != b.dim) {
    return false;
  }
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (!(a.points[i] == b.points[i])) return false;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].type != b.ops[i].type || a.ops[i].target != b.ops[i].target ||
        a.ops[i].query != b.ops[i].query) {
      return false;
    }
  }
  return true;
}

// A spec the scenario path refuses aborts naming the spec and the problem:
// the grammar and number rules are Spec's (flags_test covers them), and a
// spec seed must be a non-negative integer.
TEST(BuildScenarioDeathTest, MalformedSpecsAbort) {
  EXPECT_DEATH(BuildScenarioWorkload("", 1),
               "bad scenario spec '': empty name");
  EXPECT_DEATH(BuildScenarioWorkload(":n=1", 1), "empty name");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n", 1), "missing '='");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=1,", 1), "empty item");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=200,seed=abc", 1),
               "key seed=abc is not an integer");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=200,seed=7x", 1),
               "key seed=7x is not an integer");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=200,seed=-1", 1),
               "key seed=-1 is out of range");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=abc", 1),
               "key n=abc is not an integer");
}

// A non-finite coordinate scale reached the grid's cell keys as
// static_cast<int32_t>(floor(inf)), which is undefined behaviour.
TEST(BuildScenarioDeathTest, NonFiniteValuesAbortNamingTheKey) {
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=200,extent=inf", 1),
               "bad scenario spec 'burst:n=200,extent=inf': key extent=inf"
               " is not a finite number");
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=200,radius=nan", 1),
               "key radius=nan is not a finite number");
}

TEST(ScenarioRegistryTest, LookupAndHelp) {
  EXPECT_NE(FindScenario("paper-mixed"), nullptr);
  EXPECT_NE(FindScenario("split-merge"), nullptr);
  EXPECT_EQ(FindScenario("no-such-scenario"), nullptr);
  for (const auto& s : AllScenarios()) {
    EXPECT_FALSE(s->help().empty());
    EXPECT_NE(ScenarioHelp().find(s->name()), std::string::npos);
  }
}

TEST(ScenarioRegistryTest, RegistryIsFullyCovered) {
  // Every registered scenario appears in kTinySpecs, so the determinism and
  // validity loops below cover new scenarios the moment they register (this
  // test fails until the spec list is extended).
  std::set<std::string> covered;
  for (const char* spec : kTinySpecs) {
    Spec parsed;
    std::string why;
    ASSERT_TRUE(Spec::Parse(spec, &parsed, &why)) << why;
    covered.insert(parsed.name());
  }
  for (const auto& s : AllScenarios()) {
    EXPECT_TRUE(covered.count(s->name())) << "no tiny spec for " << s->name();
  }
  EXPECT_EQ(covered.size(), AllScenarios().size());
}

TEST(ScenarioRegistryDeathTest, UnknownScenarioAndUnknownKeyAbort) {
  EXPECT_DEATH(BuildScenarioWorkload("no-such-scenario", 1),
               "unknown scenario");
  // Typos in parameter names must fail loudly, not silently run defaults.
  EXPECT_DEATH(BuildScenarioWorkload("burst:n=100,windw=5", 1),
               "bad scenario spec 'burst:n=100,windw=5': unknown key 'windw'");
}

TEST(ScenarioWorkloadsTest, EveryScenarioProducesAValidWorkload) {
  for (const char* spec : kTinySpecs) {
    SCOPED_TRACE(spec);
    const Workload w = BuildScenarioWorkload(spec, 42);
    ExpectValidWorkload(w);
    EXPECT_EQ(w.num_updates, 600);
    EXPECT_GT(w.num_queries, 0);
    EXPECT_EQ(w.seed, 42u);  // Effective-seed provenance.
  }
}

TEST(ScenarioWorkloadsTest, SpecSeedWinsAndIsRecorded) {
  const Workload w = BuildScenarioWorkload("burst:n=200,seed=99", 42);
  EXPECT_EQ(w.seed, 99u);
  const Workload same = BuildScenarioWorkload("burst:n=200", 99);
  EXPECT_TRUE(SameWorkload(w, same)) << "seed=99 must equal --seed 99";
  EXPECT_EQ(BuildScenarioWorkload("burst:n=200", 5).seed, 5u);
}

TEST(ScenarioWorkloadsTest, LastOccurrenceWins) {
  EXPECT_EQ(BuildScenarioWorkload("burst:n=100,n=200", 1).num_updates, 200);
}

TEST(ScenarioWorkloadsTest, DeterministicGivenSeed) {
  for (const char* spec : kTinySpecs) {
    SCOPED_TRACE(spec);
    const Workload a = BuildScenarioWorkload(spec, 42);
    const Workload b = BuildScenarioWorkload(spec, 42);
    EXPECT_TRUE(SameWorkload(a, b)) << "same seed must reproduce verbatim";
    const Workload c = BuildScenarioWorkload(spec, 43);
    EXPECT_FALSE(SameWorkload(a, c)) << "different seed must differ";
  }
}

TEST(ScenarioWorkloadsTest, ScenarioShapesMatchTheirContracts) {
  // sliding-window: alive set never exceeds the window.
  {
    const Workload w =
        BuildScenarioWorkload("sliding-window:n=600,window=100,qevery=0", 1);
    int64_t alive = 0, peak = 0;
    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kInsert) ++alive;
      if (op.type == Operation::Type::kDelete) --alive;
      peak = std::max(peak, alive);
    }
    EXPECT_LE(peak, 101);  // Window plus the in-flight insert.
    EXPECT_GT(w.num_deletes, 0);
  }
  // split-merge: deletions target exactly the bridge points, so delete
  // count is a large fraction of updates after the blobs are built.
  {
    const Workload w =
        BuildScenarioWorkload("split-merge:n=600,blob=30,qevery=0", 1);
    EXPECT_GT(w.num_deletes, 600 / 4);
  }
  // paper-mixed honors the insert fraction.
  {
    const Workload w = BuildScenarioWorkload("paper-mixed:n=600,ins=1.0", 1);
    EXPECT_EQ(w.num_deletes, 0);
    EXPECT_EQ(w.num_inserts, 600);
  }
  // zipf: dim key propagates to the workload.
  {
    const Workload w = BuildScenarioWorkload("zipf:n=200,dim=5", 1);
    EXPECT_EQ(w.dim, 5);
  }
  // hotspot-migrate: the hot band actually moves — with every insert forced
  // into the band, the dim-0 spread across the run far exceeds one band
  // width (stationary hotspot would stay within band_w + 2*radius = 4200).
  {
    const Workload w = BuildScenarioWorkload(
        "hotspot-migrate:n=900,period=300,hot=1.0,noise=0,cold=1,qevery=0",
        1);
    EXPECT_GT(w.num_deletes, 0);
    double lo = 1e18, hi = -1e18;
    for (const Operation& op : w.ops) {
      if (op.type != Operation::Type::kInsert) continue;
      lo = std::min(lo, w.points[op.target][0]);
      hi = std::max(hi, w.points[op.target][0]);
    }
    EXPECT_GT(hi - lo, 6000.0);
  }
  // query-storm: queries dominate the op stream (one every qevery=5
  // updates by default), with the configured |Q| bounds, and the trickle
  // includes genuine churn.
  {
    const Workload w =
        BuildScenarioWorkload("query-storm:n=1000,qevery=5,qmin=8,qmax=16", 1);
    EXPECT_GE(w.num_queries, 1000 / 5 - 1);
    EXPECT_GT(w.num_deletes, 0);
    for (const Operation& op : w.ops) {
      if (op.type == Operation::Type::kQuery) {
        EXPECT_LE(op.query.size(), 16u);
      }
    }
  }
}

}  // namespace
}  // namespace ddc
