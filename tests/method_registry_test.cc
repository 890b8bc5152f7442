#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/method_registry.h"
#include "engine/sharded_clusterer.h"

namespace ddc {
namespace {

DbscanParams TestParams() {
  return DbscanParams{.dim = 2, .eps = 100.0, .min_pts = 5, .rho = 0.001};
}

TEST(MethodRegistryTest, EveryInfoIsConsistent) {
  for (const MethodInfo& info : AllMethodInfos()) {
    EXPECT_TRUE(IsMethod(info.name));
    EXPECT_TRUE(ValidateMethodSpec(info.name, nullptr)) << info.name;
    EXPECT_EQ(MethodSupportsDeletes(info.name), info.supports_deletes);
    const DbscanParams effective = EffectiveParams(info.name, TestParams());
    EXPECT_EQ(effective.rho, info.forces_exact ? 0.0 : 0.001) << info.name;
    // MethodHelp names every method and knob (it is the error message).
    EXPECT_NE(MethodHelp().find(info.name), std::string::npos);
    for (const MethodKnob& knob : info.knobs) {
      EXPECT_NE(MethodHelp().find(knob.key), std::string::npos);
    }
  }
  EXPECT_EQ(MethodNames().size(), AllMethodInfos().size());
}

TEST(MethodRegistryTest, SpecGrammarAndKnobValidation) {
  std::string why;
  EXPECT_TRUE(ValidateMethodSpec("sharded-double-approx", &why)) << why;
  EXPECT_TRUE(ValidateMethodSpec(
      "sharded-double-approx:shards=8,threads=4,batch=128,warmup=0", &why))
      << why;
  // A trailing colon means "no knobs", as in the scenario grammar.
  EXPECT_TRUE(ValidateMethodSpec("double-approx:", &why)) << why;
  EXPECT_TRUE(ValidateMethodSpec("sharded-double-approx:", &why)) << why;

  EXPECT_FALSE(ValidateMethodSpec("no-such-method", &why));
  EXPECT_NE(why.find("unknown method"), std::string::npos);

  EXPECT_FALSE(ValidateMethodSpec("double-approx:shards=4", &why));
  EXPECT_NE(why.find("no knob"), std::string::npos);

  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:sharsd=4", &why));
  EXPECT_NE(why.find("no knob 'sharsd'"), std::string::npos);
  EXPECT_FALSE(
      ValidateMethodSpec("sharded-double-approx:rebalance=1", &why));
  EXPECT_NE(why.find("no knob 'rebalance'"), std::string::npos);

  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:shards=none", &why));
  EXPECT_NE(why.find("not an integer"), std::string::npos);

  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:shards=0", &why));
  EXPECT_NE(why.find("out of range"), std::string::npos);
  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:shards=65", &why));
  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:shards", &why));
  EXPECT_NE(why.find("key=value"), std::string::npos);
  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:shards=2,", &why));
  EXPECT_NE(why.find("malformed knob ''"), std::string::npos);
  EXPECT_FALSE(ValidateMethodSpec("sharded-double-approx:=2", &why));
  EXPECT_NE(why.find("malformed knob '=2'"), std::string::npos);
  EXPECT_FALSE(ValidateMethodSpec("", &why));
  EXPECT_FALSE(ValidateMethodSpec(":shards=2", &why));

  std::vector<std::string> sharded_knobs;
  for (const MethodInfo& info : AllMethodInfos()) {
    if (info.name != "sharded-double-approx") continue;
    for (const MethodKnob& knob : info.knobs) sharded_knobs.push_back(knob.key);
  }
  EXPECT_EQ(sharded_knobs, (std::vector<std::string>{"shards", "threads",
                                                     "batch", "warmup"}));
}

TEST(MethodRegistryTest, SpecAwareHelpers) {
  EXPECT_TRUE(IsMethod("sharded-double-approx:shards=2"));
  EXPECT_FALSE(IsMethod("nope:shards=2"));
  EXPECT_TRUE(MethodSupportsDeletes("sharded-double-approx:shards=2"));
  EXPECT_FALSE(MethodSupportsDeletes("semi-approx"));
  // Exact methods force rho to 0, spec suffix or not.
  EXPECT_EQ(EffectiveParams("2d-full-exact", TestParams()).rho, 0);
  EXPECT_EQ(EffectiveParams("double-approx", TestParams()).rho, 0.001);
  EXPECT_EQ(EffectiveParams("sharded-double-approx:shards=2", TestParams())
                .rho,
            0.001);
}

TEST(MethodRegistryTest, MakeMethodBuildsTheShardedEngine) {
  std::unique_ptr<Clusterer> c =
      MakeMethod("sharded-double-approx:shards=2,threads=2,batch=8,warmup=4",
                 TestParams());
  auto* sharded = dynamic_cast<ShardedClusterer*>(c.get());
  ASSERT_NE(sharded, nullptr);
  // Smoke: a dense blob clusters; the engine answers through the interface.
  std::vector<PointId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(c->Insert(Point{static_cast<double>(i), 0.0}));
  }
  const CGroupByResult r = c->Query(ids);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].size(), 10u);
  c->Delete(ids[0]);
  EXPECT_EQ(c->size(), 9);
}

TEST(MethodRegistryDeathTest, UnknownMethodDiesListingTheRegistry) {
  // The abort message must enumerate every registered method, so a typo
  // comes back with the full menu.
  EXPECT_DEATH(MakeMethod("not-a-method", TestParams()),
               "unknown method 'not-a-method'.*registered methods"
               ".*double-approx.*sharded-double-approx");
}

TEST(MethodRegistryDeathTest, UnknownKnobDiesListingTheKnobs) {
  EXPECT_DEATH(MakeMethod("sharded-double-approx:bogus=1", TestParams()),
               "no knob 'bogus'.*shards.*threads.*batch.*warmup");
}

TEST(MethodRegistryDeathTest, OutOfRangeKnobDies) {
  EXPECT_DEATH(MakeMethod("sharded-double-approx:shards=1000", TestParams()),
               "out of range");
}

TEST(MethodRegistryDeathTest, KnobOnKnoblessMethodDies) {
  EXPECT_DEATH(MakeMethod("inc-dbscan:shards=2", TestParams()),
               "no knob 'shards'.*it takes none");
}

}  // namespace
}  // namespace ddc
