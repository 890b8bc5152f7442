#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/clusterer.h"
#include "core/method_registry.h"
#include "core/static_dbscan.h"
#include "persist/fault_file.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

// Recovery torture: randomized crash points, bit flips, and torn tails,
// 114 trials in all. Every trial checks the acknowledgment contract —
// recovery replays some prefix of the applied op stream no shorter than
// what the WAL acknowledged — and that the recovered clusterer answers
// QueryAll bit-identically to an uncrashed reference that applied the same
// prefix. The rho > 0 trials additionally check the recovered clustering
// against the Theorem 3 sandwich oracles.

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ddc_rec_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One planned update. Inserts consume points in insertion order, so the
/// insertion index doubles as the id every clusterer here will assign.
struct PlanOp {
  bool insert = true;
  int target = 0;  // Insertion index: the point to insert / the id to delete.
};

std::vector<PlanOp> MakePlan(Rng& rng, int n) {
  std::vector<PlanOp> plan;
  std::vector<int> alive;
  int inserted = 0;
  for (int i = 0; i < n; ++i) {
    if (alive.size() > 10 && rng.NextBernoulli(0.25)) {
      const size_t j = rng.NextBelow(alive.size());
      plan.push_back({false, alive[j]});
      alive[j] = alive.back();
      alive.pop_back();
    } else {
      plan.push_back({true, inserted});
      alive.push_back(inserted++);
    }
  }
  return plan;
}

struct TrialResult {
  int applied = 0;  // Ops applied to the live clusterer before the crash.
  int acked = 0;    // Ops whose WAL append succeeded (acknowledged).
  bool crashed = false;
  std::vector<WalOp> applied_ops;  // In order, inserts carrying their ids.
};

/// Runs `plan` against a live clusterer, WAL-logging each applied op
/// through a fault-injected factory, until the plan ends or the WAL dies.
/// With `sync_every` > 0 the log is fsynced every that many acknowledged
/// ops, so a crash budget can land inside an fsync.
TrialResult RunFaultedTrial(const std::string& dir, const std::string& spec,
                            const DbscanParams& params,
                            const std::vector<PlanOp>& plan,
                            const std::vector<Point>& points,
                            const FaultPlan& fault, int64_t segment_bytes,
                            int sync_every) {
  TrialResult out;
  RunMeta meta;
  meta.method = spec;
  meta.scenario = "torture";
  meta.seed = 0;
  meta.params = params;
  std::string error;
  EXPECT_TRUE(WriteRunMeta(dir, meta, &error)) << error;

  FaultInjector injector(fault);
  WalWriter::Options wopts;
  wopts.segment_bytes = segment_bytes;
  wopts.factory = injector.WrapFactory(DefaultFileFactory());
  WalWriter wal(dir, wopts);
  EXPECT_TRUE(wal.ok()) << wal.error();

  std::unique_ptr<Clusterer> c = MakeMethod(spec, params);
  for (const PlanOp& op : plan) {
    WalOp logged;
    if (op.insert) {
      logged.type = WalOp::Type::kInsert;
      logged.id = c->Insert(points[op.target]);
      EXPECT_EQ(logged.id, op.target) << "id assignment not monotone";
      logged.dim = params.dim;
      logged.point = points[op.target];
    } else {
      logged.type = WalOp::Type::kDelete;
      logged.id = op.target;
      c->Delete(op.target);
    }
    ++out.applied;
    if (!wal.Append(logged)) {
      out.crashed = true;
      out.applied_ops.push_back(logged);  // Applied but never acknowledged.
      break;
    }
    ++out.acked;
    out.applied_ops.push_back(logged);  // seq assigned by Append.
    if (sync_every > 0 && out.acked % sync_every == 0 && !wal.Sync()) {
      out.crashed = true;
      break;
    }
  }
  wal.Close();
  return out;
}

/// Recovers `dir` and checks every invariant of the acknowledgment
/// contract against the trial's ground truth. `min_replayed` is the floor
/// on the replayed prefix: t.acked after a crash (a crash cannot lose
/// acknowledged ops), but lower when the test corrupted already-durable
/// bytes post-hoc (media damage legitimately shortens the final segment).
void VerifyRecovered(const std::string& dir, const std::string& spec,
                     const DbscanParams& params, const TrialResult& t,
                     const std::vector<Point>& points, bool check_sandwich,
                     int min_replayed = -1) {
  RecoveryResult r;
  RunMeta meta;
  std::string error;
  ASSERT_TRUE(RecoverFromDir(dir, &r, &meta, &error)) << error;

  const int k = static_cast<int>(r.ops.size());
  ASSERT_GE(k, min_replayed >= 0 ? min_replayed : t.acked)
      << "recovery lost acknowledged ops";
  ASSERT_LE(k, t.applied) << "recovery invented ops";
  for (int i = 0; i < k; ++i) {
    const WalOp& got = r.ops[i];
    const WalOp& want = t.applied_ops[i];
    ASSERT_EQ(got.seq, static_cast<uint64_t>(i) + 1);
    ASSERT_EQ(got.type, want.type) << "op " << i;
    ASSERT_EQ(got.id, want.id) << "op " << i;
    if (want.type == WalOp::Type::kInsert) {
      ASSERT_EQ(got.dim, want.dim) << "op " << i;
      ASSERT_TRUE(got.point == want.point) << "op " << i;
    }
  }

  // The uncrashed reference: a fresh clusterer fed the same k-op prefix.
  std::unique_ptr<Clusterer> ref = MakeMethod(spec, params);
  for (int i = 0; i < k; ++i) {
    const WalOp& op = t.applied_ops[i];
    if (op.type == WalOp::Type::kInsert) {
      ref->Insert(op.point);
    } else {
      ref->Delete(op.id);
    }
  }
  ref->Flush();
  CGroupByResult want = ref->QueryAll();
  CGroupByResult got = r.clusterer->QueryAll();
  want.Canonicalize();
  got.Canonicalize();
  ASSERT_TRUE(got == want)
      << "recovered clustering diverged from the uncrashed reference";

  if (check_sandwich) {
    // Theorem 3: exact-at-eps clusters refine the recovered clustering,
    // which refines exact-at-(1+rho)eps clusters (ids are insertion
    // indices on both sides by monotone assignment).
    std::vector<PointId> ids(points.size(), kInvalidPoint);
    for (int i = 0; i < k; ++i) {
      const WalOp& op = t.applied_ops[i];
      ids[op.id] = op.type == WalOp::Type::kInsert ? op.id : kInvalidPoint;
    }
    const CGroupByResult lower = OracleOverAlive(points, ids, params);
    DbscanParams outer = params;
    outer.eps = params.eps_outer();
    outer.rho = 0;
    const CGroupByResult upper = OracleOverAlive(points, ids, outer);
    std::string why;
    EXPECT_TRUE(CheckSandwich(lower, got, upper, &why)) << why;
  }
}

DbscanParams TortureParams(double rho) {
  DbscanParams params;
  params.dim = 2;
  params.eps = 2.0;
  params.min_pts = 5;
  params.rho = rho;
  return params;
}

/// One crash-budget trial: run until the injected device failure, recover,
/// verify. `budget` must sit inside the log (the op stream of `n` ops
/// always writes more than the budgets the tests pick).
void CrashTrial(const std::string& tag, const std::string& spec, double rho,
                int n, uint64_t seed, int64_t budget, int sync_every) {
  SCOPED_TRACE(tag + " seed=" + std::to_string(seed) +
               " budget=" + std::to_string(budget));
  const std::string dir = TempDir(tag + std::to_string(seed));
  const DbscanParams params = TortureParams(rho);
  Rng plan_rng(seed);
  const std::vector<PlanOp> plan = MakePlan(plan_rng, n);
  Rng pt_rng(seed ^ 0xABCD);
  const std::vector<Point> points = BlobPoints(pt_rng, n, 2, 60.0, 3, 2.0);

  FaultPlan fault;
  fault.crash_after_bytes = budget;
  const TrialResult t = RunFaultedTrial(dir, spec, params, plan, points,
                                        fault, /*segment_bytes=*/512,
                                        sync_every);
  EXPECT_TRUE(t.crashed) << "budget " << budget << " outran the log";
  EXPECT_LT(t.acked, n);
  VerifyRecovered(dir, spec, params, t, points, rho > 0);
}

TEST(RecoveryTortureTest, CrashPointsExactGrid) {
  // 25 randomized crash budgets at rho = 0: recovered state must be
  // bit-identical to the uncrashed reference over the replayed prefix.
  Rng rng(1001);
  for (int trial = 0; trial < 25; ++trial) {
    CrashTrial("exact", "double-approx", 0.0, 140, 9000 + trial,
               rng.NextInRange(21, 3500), /*sync_every=*/0);
  }
}

TEST(RecoveryTortureTest, CrashPointsExactGridWithPeriodicSyncs) {
  // 15 crash budgets with an fsync every 40 acknowledged ops: a budget may
  // run out inside the sync itself, and recovery must still keep every
  // acknowledged op.
  Rng rng(2002);
  for (int trial = 0; trial < 15; ++trial) {
    CrashTrial("sync", "double-approx", 0.0, 140, 7000 + trial,
               rng.NextInRange(200, 3500), /*sync_every=*/40);
  }
}

TEST(RecoveryTortureTest, CrashPointsApproximate) {
  // 30 crash budgets at rho > 0: bit-identical to the reference AND
  // sandwich-conforming against the static oracles.
  Rng rng(3003);
  for (int trial = 0; trial < 30; ++trial) {
    CrashTrial("rho", "double-approx", 0.001, 130, 5000 + trial,
               rng.NextInRange(21, 3200), /*sync_every=*/0);
  }
}

TEST(RecoveryTortureTest, CrashPointsSharded) {
  // The sharded engine logs and recovers through the same contract.
  Rng rng(4004);
  for (int trial = 0; trial < 4; ++trial) {
    CrashTrial("sharded", "sharded-double-approx:shards=2,threads=2",
               trial < 2 ? 0.0 : 0.001, 100, 600 + trial,
               rng.NextInRange(100, 2200), /*sync_every=*/0);
  }
}

TEST(RecoveryTortureTest, RandomBitFlips) {
  // 20 trials: complete a clean run, flip one random bit somewhere in the
  // log, recover. A flip in the final segment truncates to a verified
  // prefix; a flip anywhere earlier is a hard error naming the file. A
  // flipped log must never replay as if nothing happened.
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t seed = 6000 + trial;
    SCOPED_TRACE("flip seed=" + std::to_string(seed));
    const std::string dir = TempDir("flip" + std::to_string(trial));
    const DbscanParams params = TortureParams(0.0);
    Rng plan_rng(seed);
    const std::vector<PlanOp> plan = MakePlan(plan_rng, 120);
    Rng pt_rng(seed ^ 0xABCD);
    const std::vector<Point> points = BlobPoints(pt_rng, 120, 2, 60.0, 3, 2.0);
    const TrialResult t = RunFaultedTrial(dir, "double-approx", params, plan,
                                          points, FaultPlan{}, 512, 0);
    ASSERT_FALSE(t.crashed);
    ASSERT_EQ(t.acked, t.applied);

    std::vector<std::string> segments;
    std::string error;
    ASSERT_TRUE(ListWalSegments(dir, &segments, &error)) << error;
    Rng flip_rng(seed * 31);
    const std::string victim =
        segments[flip_rng.NextBelow(segments.size())];
    std::string data;
    ASSERT_TRUE(ReadFileToString(victim, &data, &error)) << error;
    const size_t byte = flip_rng.NextBelow(data.size());
    data[byte] ^= static_cast<char>(1u << flip_rng.NextBelow(8));
    ASSERT_TRUE(WriteFile(victim, data, &error)) << error;

    RecoveryResult r;
    RunMeta meta;
    if (!RecoverFromDir(dir, &r, &meta, &error)) {
      // Hard error path: must name the damaged file, never be vague.
      EXPECT_NE(error.find(dir), std::string::npos) << error;
    } else {
      // Truncation path: only legal when the flip hit the final segment,
      // and the surviving prefix must still verify bit-identically.
      EXPECT_EQ(victim, segments.back()) << "silently skipped corruption";
      EXPECT_TRUE(r.wal.truncated);
      EXPECT_LT(r.ops.size(), static_cast<size_t>(t.applied));
      VerifyRecovered(dir, "double-approx", params, t, points, false,
                      /*min_replayed=*/0);
    }
  }
}

TEST(RecoveryTortureTest, TornTails) {
  // 20 trials: chop a random number of bytes off the final segment — the
  // shape an OS crash leaves — and require clean prefix recovery.
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t seed = 8000 + trial;
    SCOPED_TRACE("torn seed=" + std::to_string(seed));
    const std::string dir = TempDir("torn" + std::to_string(trial));
    const DbscanParams params = TortureParams(0.0);
    Rng plan_rng(seed);
    const std::vector<PlanOp> plan = MakePlan(plan_rng, 120);
    Rng pt_rng(seed ^ 0xABCD);
    const std::vector<Point> points = BlobPoints(pt_rng, 120, 2, 60.0, 3, 2.0);
    const TrialResult t = RunFaultedTrial(dir, "double-approx", params, plan,
                                          points, FaultPlan{}, 512, 0);
    ASSERT_FALSE(t.crashed);

    std::vector<std::string> segments;
    std::string error;
    ASSERT_TRUE(ListWalSegments(dir, &segments, &error)) << error;
    const std::string last = segments.back();
    std::string data;
    ASSERT_TRUE(ReadFileToString(last, &data, &error)) << error;
    Rng cut_rng(seed * 17);
    const size_t strip = 1 + cut_rng.NextBelow(
        std::min<size_t>(data.size(), 150));
    data.resize(data.size() - strip);
    ASSERT_TRUE(WriteFile(last, data, &error)) << error;

    VerifyRecovered(dir, "double-approx", params, t, points, false,
                    /*min_replayed=*/0);
  }
}

TEST(RecoveryTest, RunMetaRoundTripsBitExactly) {
  // Seeds past 2^53 have no exact double, and seeds past 2^63 no int64.
  for (const uint64_t seed :
       {uint64_t{0xFEEDFACE}, (uint64_t{1} << 53) + 1, UINT64_MAX}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = TempDir("runmeta");
    RunMeta meta;
    meta.method = "sharded-double-approx:shards=4,threads=2";
    meta.scenario = "burst:n=4000";
    meta.seed = seed;
    meta.params.dim = 5;
    meta.params.eps = 0.1;
    meta.params.min_pts = 7;
    meta.params.rho = 1e-300;
    std::string error;
    ASSERT_TRUE(WriteRunMeta(dir, meta, &error)) << error;
    RunMeta got;
    ASSERT_TRUE(ReadRunMeta(dir, &got, &error)) << error;
    EXPECT_EQ(got.method, meta.method);
    EXPECT_EQ(got.scenario, meta.scenario);
    EXPECT_EQ(got.seed, meta.seed);
    EXPECT_EQ(got.params.dim, meta.params.dim);
    EXPECT_EQ(got.params.min_pts, meta.params.min_pts);
    EXPECT_EQ(got.params.eps, meta.params.eps);
    EXPECT_EQ(got.params.rho, meta.params.rho);  // 1e-300 survives exactly.
  }

  RunMeta missing;
  std::string error;
  EXPECT_FALSE(ReadRunMeta(TempDir("runmeta") + "/nope", &missing, &error));
  EXPECT_NE(error.find("nope"), std::string::npos) << error;
}

/// A RUNMETA.json with the given raw JSON values for the seed and the
/// numeric params; eps is 2.0.
std::string RunMetaJson(const std::string& seed, const std::string& dim,
                        const std::string& min_pts,
                        const std::string& rho_bits) {
  return R"({"method":"double-approx","scenario":"torture","seed":)" + seed +
         R"(,"params":{"dim":)" + dim + R"(,"min_pts":)" + min_pts +
         R"(,"eps_bits":"0x4000000000000000","rho_bits":")" + rho_bits +
         R"("}})";
}

constexpr char kRhoZero[] = "0x0000000000000000";

TEST(RecoveryTest, RunMetaAcceptsAnOlderNumericSeedBelowTwoTo53) {
  const std::string dir = TempDir("oldseed");
  std::string error;
  ASSERT_TRUE(WriteFile(dir + "/RUNMETA.json",
                        RunMetaJson("9007199254740991", "2", "5", kRhoZero),
                        &error))
      << error;
  RunMeta got;
  ASSERT_TRUE(ReadRunMeta(dir, &got, &error)) << error;
  EXPECT_EQ(got.seed, (uint64_t{1} << 53) - 1);
  EXPECT_EQ(got.params.dim, 2);
  EXPECT_EQ(got.params.eps, 2.0);
}

TEST(RecoveryTest, RunMetaRejectsEachBadFieldNamingIt) {
  // Bad params must be reported, not abort --recover later, and a seed
  // must not be rounded into another scenario's seed.
  struct Case {
    const char* what;
    std::string json;
    const char* field;
  };
  const Case cases[] = {
      {"numeric seed past 2^53",
       RunMetaJson("9007199254740993", "2", "5", kRhoZero), "seed"},
      {"negative numeric seed", RunMetaJson("-5", "2", "5", kRhoZero),
       "seed"},
      {"fractional seed", RunMetaJson("1.5", "2", "5", kRhoZero), "seed"},
      {"negative string seed", RunMetaJson(R"("-1")", "2", "5", kRhoZero),
       "seed"},
      {"seed with trailing junk", RunMetaJson(R"("12x")", "2", "5", kRhoZero),
       "seed"},
      {"seed past 2^64",
       RunMetaJson(R"("18446744073709551616")", "2", "5", kRhoZero), "seed"},
      {"dim 40", RunMetaJson(R"("1")", "40", "5", kRhoZero), "dim"},
      {"fractional dim", RunMetaJson(R"("1")", "2.5", "5", kRhoZero), "dim"},
      {"dim past int", RunMetaJson(R"("1")", "1e20", "5", kRhoZero), "dim"},
      {"min_pts 0", RunMetaJson(R"("1")", "2", "0", kRhoZero), "min_pts"},
      {"NaN rho", RunMetaJson(R"("1")", "2", "5", "0x7ff8000000000000"),
       "rho"},
      {"rho 1.5", RunMetaJson(R"("1")", "2", "5", "0x3ff8000000000000"),
       "rho"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string dir = TempDir("badmeta");
    std::string error;
    ASSERT_TRUE(WriteFile(dir + "/RUNMETA.json", c.json, &error)) << error;
    RunMeta got;
    EXPECT_FALSE(ReadRunMeta(dir, &got, &error));
    EXPECT_NE(error.find(c.field), std::string::npos) << error;
    EXPECT_NE(error.find("RUNMETA.json"), std::string::npos) << error;
  }
}

TEST(RecoveryTest, DeleteOfADeadIdIsAHardErrorNamingTheSeq) {
  // A log that opens with a delete of id 5: nothing is alive yet, so the
  // log cannot belong to this run. The replay must refuse, not abort.
  const std::string dir = TempDir("deaddelete");
  RunMeta meta;
  meta.method = "double-approx";
  meta.params = TortureParams(0.0);
  std::string error;
  ASSERT_TRUE(WriteRunMeta(dir, meta, &error)) << error;
  {
    WalWriter wal(dir, {});
    WalOp op;
    op.type = WalOp::Type::kDelete;
    op.id = 5;
    ASSERT_TRUE(wal.Append(op)) << wal.error();
    ASSERT_TRUE(wal.Close()) << wal.error();
  }
  RecoveryResult r;
  EXPECT_FALSE(RecoverFromDir(dir, &r, nullptr, &error));
  EXPECT_NE(error.find("seq 1"), std::string::npos) << error;
  EXPECT_NE(error.find("id 5"), std::string::npos) << error;
  EXPECT_EQ(r.clusterer, nullptr);
}

TEST(RecoveryTest, RefusesAMethodThisBuildRejects) {
  const std::string dir = TempDir("method");
  RunMeta meta;
  meta.method = "no-such-method";
  meta.params = TortureParams(0.0);
  std::string error;
  ASSERT_TRUE(WriteRunMeta(dir, meta, &error)) << error;
  RecoveryResult r;
  EXPECT_FALSE(Recover(dir, meta, &r, &error));
  EXPECT_NE(error.find("no-such-method"), std::string::npos) << error;
  EXPECT_EQ(r.clusterer, nullptr);
}

TEST(RecoveryTest, EmptyDirectoryRecoversToAnEmptyClusterer) {
  const std::string dir = TempDir("fresh");
  RunMeta meta;
  meta.method = "double-approx";
  meta.params = TortureParams(0.001);
  std::string error;
  ASSERT_TRUE(WriteRunMeta(dir, meta, &error)) << error;
  RecoveryResult r;
  ASSERT_TRUE(Recover(dir, meta, &r, &error)) << error;
  EXPECT_EQ(r.ops.size(), 0u);
  EXPECT_EQ(r.clusterer->AlivePoints().size(), 0u);
}

}  // namespace
}  // namespace ddc
