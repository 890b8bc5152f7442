#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/incremental_dbscan.h"
#include "core/semi_dynamic_clusterer.h"
#include "engine/sharded_clusterer.h"
#include "geom/point.h"
#include "scenario/scenario.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// Differential check of the copy-on-write freeze. A snapshot frozen over
/// its predecessor (sharing every page and cell block the updates in
/// between left clean) must answer exactly like the first freeze of a fresh
/// clusterer that replays the same updates — a build with no previous
/// snapshot, every page and cell dirty. And because the shared blocks are
/// never written once published, every snapshot still held must keep
/// answering as it did when it was frozen, however many freezes follow.

struct Combo {
  std::string name;
  bool supports_delete;
  std::function<std::unique_ptr<Clusterer>(const DbscanParams&)> make;
};

std::vector<Combo> Combos(double rho) {
  std::vector<Combo> combos;
  combos.push_back({"full", true, [](const DbscanParams& p) {
                      return std::make_unique<FullyDynamicClusterer>(p);
                    }});
  combos.push_back({"semi", false, [](const DbscanParams& p) {
                      return std::make_unique<SemiDynamicClusterer>(p);
                    }});
  // The sharded engine's warmup cut depends on when the first flush comes,
  // so a replay flushed once partitions differently; its answers still
  // agree verbatim where exact DBSCAN is unique, at rho == 0.
  if (rho == 0) {
    combos.push_back({"inc", true, [](const DbscanParams& p) {
                        return std::make_unique<IncrementalDbscan>(p);
                      }});
    ShardedClusterer::Options options;
    options.shards = 4;
    options.threads = 2;
    options.batch = 16;
    options.warmup = 64;
    combos.push_back({"sharded/s4", true, [options](const DbscanParams& p) {
                        return std::make_unique<ShardedClusterer>(p, options);
                      }});
  }
  return combos;
}

/// What a snapshot answered when it was frozen.
struct Held {
  std::shared_ptr<const ClusterSnapshot> snap;
  std::vector<PointId> qids;  // Every id alive at the freeze.
  CGroupByResult answer;      // Canonical Query(qids).
  std::vector<uint8_t> alive;  // alive(id) for id in [0, alive.size()).
  int64_t frozen_at = 0;       // Index of its freeze in the run.
};

CGroupByResult CanonicalQuery(const ClusterSnapshot& s,
                              const std::vector<PointId>& q) {
  CGroupByResult r = s.Query(q);
  r.Canonicalize();
  return r;
}

std::shared_ptr<Held> Record(std::shared_ptr<const ClusterSnapshot> snap,
                             PointId id_bound, int64_t frozen_at) {
  auto held = std::make_shared<Held>();
  held->snap = std::move(snap);
  held->frozen_at = frozen_at;
  for (PointId id = 0; id < id_bound; ++id) {
    const bool alive = held->snap->alive(id);
    held->alive.push_back(alive ? 1 : 0);
    if (alive) held->qids.push_back(id);
  }
  held->answer = CanonicalQuery(*held->snap, held->qids);
  return held;
}

void ExpectStillAnswers(const Held& h, int64_t later_freezes) {
  ASSERT_GE(later_freezes, 3);
  for (PointId id = 0; id < static_cast<PointId>(h.alive.size()); ++id) {
    ASSERT_EQ(h.snap->alive(id), h.alive[id] != 0) << "id " << id;
  }
  EXPECT_EQ(CanonicalQuery(*h.snap, h.qids), h.answer)
      << "a held snapshot changed its answers after " << later_freezes
      << " later freezes";
}

/// Check 1: `got` (frozen over its predecessor) against `want` (the first
/// freeze of a replay), on every id below `id_bound`, one past it, and one
/// far past it.
void ExpectSameAsFullBuild(const ClusterSnapshot& got,
                           const ClusterSnapshot& want, PointId id_bound) {
  ASSERT_EQ(got.size(), want.size());
  std::vector<PointId> qids;
  for (PointId id = 0; id <= id_bound; ++id) {
    ASSERT_EQ(got.alive(id), want.alive(id)) << "id " << id;
    if (got.alive(id)) qids.push_back(id);
  }
  // An id far past the end must be skipped, not trusted.
  std::vector<PointId> with_stray = qids;
  with_stray.push_back(id_bound + 1000);
  EXPECT_EQ(CanonicalQuery(got, with_stray), CanonicalQuery(want, with_stray));
  const auto* g = dynamic_cast<const GridSnapshot*>(&got);
  const auto* w = dynamic_cast<const GridSnapshot*>(&want);
  ASSERT_EQ(g == nullptr, w == nullptr);
  if (g == nullptr) return;
  EXPECT_EQ(g->epoch(), w->epoch());
  // Label values are instance-specific (HDT names a component by a node
  // address), so core labels must agree up to a bijection.
  std::unordered_map<uint64_t, uint64_t> to_want, to_got;
  for (const PointId id : qids) {
    ASSERT_EQ(g->is_core(id), w->is_core(id)) << "id " << id;
    if (!g->is_core(id)) continue;
    const uint64_t gl = g->CoreLabelOf(id);
    const uint64_t wl = w->CoreLabelOf(id);
    ASSERT_EQ(to_want.emplace(gl, wl).first->second, wl) << "id " << id;
    ASSERT_EQ(to_got.emplace(wl, gl).first->second, gl) << "id " << id;
  }
}

/// How much of a stream's shape a FullyDynamicClusterer run covered,
/// observed after every update: the cases the dirty marks exist for.
struct Coverage {
  int64_t cells_created = 0;
  int64_t cells_emptied = 0;
  int64_t core_flips_next_to_cells = 0;

  void Observe(const FullyDynamicClusterer& c) {
    const Grid& grid = c.grid();
    std::vector<uint8_t> occupied(grid.num_cells()), core(grid.num_cells());
    for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
      occupied[cell] = grid.cell_size(cell) > 0;
      for (const PointId p : grid.cell(cell).points) {
        core[cell] |= c.is_core(p) ? 1 : 0;
      }
    }
    cells_created += grid.num_cells() - static_cast<int64_t>(core_.size());
    for (size_t cell = 0; cell < core_.size(); ++cell) {
      cells_emptied += occupied_[cell] && !occupied[cell];
      core_flips_next_to_cells +=
          core_[cell] != core[cell] &&
          !grid.cell(static_cast<CellId>(cell)).neighbors.empty();
    }
    occupied_ = std::move(occupied);
    core_ = std::move(core);
  }

 private:
  std::vector<uint8_t> occupied_;
  std::vector<uint8_t> core_;
};

/// The shapes a copy-on-write freeze handles apart from a full build,
/// counted over runs of a FullyDynamicClusterer as it stands at
/// consecutive freezes: what each freeze patches, which cells it leaves
/// without a block, and which lists it keeps.
struct FreezeCoverage {
  /// A page the previous freeze held, with exactly one id born, deleted or
  /// flipped since: the patch rewrites that one slot.
  int64_t single_id_patches = 0;
  /// A non-core cell frozen without a block (no ε-close core cell) that
  /// now has an ε-close core cell: Relink gives it a block.
  int64_t null_cells_gaining_block = 0;
  /// Such a cell with a point of its own within (1+ρ)ε of a core point of
  /// its new ε-close core cells: that border point's membership comes from
  /// the block alone.
  int64_t null_cells_gaining_border = 0;
  /// A non-core cell frozen with a block whose last ε-close core cell left:
  /// its entry drops to null.
  int64_t cells_losing_last_core_neighbor = 0;
  /// A cell whose core members changed, none of whose ε-close cells
  /// flipped, with ε-close core cells: it keeps its previous list.
  int64_t dirty_cells_keeping_list = 0;

  /// One run's state at its previous freeze.
  class Run {
   public:
    explicit Run(FreezeCoverage* totals) : totals_(totals) {}

    void Observe(const FullyDynamicClusterer& c) {
      const Grid& grid = c.grid();
      const int64_t ids = grid.total_inserted();
      std::vector<uint8_t> id_state(ids);
      for (PointId p = 0; p < ids; ++p) {
        id_state[p] = grid.alive(p) ? (c.is_core(p) ? 3 : 1) : 0;
      }
      const int num_cells = grid.num_cells();
      std::vector<std::vector<PointId>> members(num_cells);
      for (CellId cell = 0; cell < num_cells; ++cell) {
        for (const PointId p : grid.cell(cell).points) {
          if (c.is_core(p)) members[cell].push_back(p);
        }
        std::sort(members[cell].begin(), members[cell].end());
      }
      std::vector<int> core_nbrs(num_cells);
      for (CellId cell = 0; cell < num_cells; ++cell) {
        for (const CellId nb : grid.cell(cell).neighbors) {
          core_nbrs[cell] += members[nb].empty() ? 0 : 1;
        }
      }
      auto was_core = [&](CellId cell) {
        return cell < static_cast<CellId>(members_.size()) &&
               !members_[cell].empty();
      };
      const double r_sq = c.params().eps_outer() * c.params().eps_outer();
      auto has_border_point = [&](CellId cell) {
        for (const PointId p : grid.cell(cell).points) {
          for (const CellId nb : grid.cell(cell).neighbors) {
            for (const PointId q : members[nb]) {
              if (WithinSquared(grid.point(p), grid.point(q), grid.dim(),
                                r_sq)) {
                return true;
              }
            }
          }
        }
        return false;
      };

      const int64_t prev_ids = static_cast<int64_t>(id_state_.size());
      constexpr int kPage = GridSnapshot::kPageSize;
      for (int64_t first = 0; first < prev_ids; first += kPage) {
        int changed = 0;
        const int64_t end = std::min<int64_t>(ids, first + kPage);
        for (PointId p = first; p < end; ++p) {
          changed += (p < prev_ids ? id_state_[p] : 0) != id_state[p];
        }
        totals_->single_id_patches += changed == 1;
      }
      for (CellId cell = 0; cell < static_cast<CellId>(members_.size());
           ++cell) {
        const bool core = !members[cell].empty();
        if (!core && !was_core(cell)) {
          if (core_nbrs_[cell] == 0 && core_nbrs[cell] > 0) {
            ++totals_->null_cells_gaining_block;
            totals_->null_cells_gaining_border += has_border_point(cell);
          }
          totals_->cells_losing_last_core_neighbor +=
              core_nbrs_[cell] > 0 && core_nbrs[cell] == 0;
        }
        if (members[cell] == members_[cell] || core_nbrs[cell] == 0) continue;
        bool neighbor_flipped = false;
        for (const CellId nb : grid.cell(cell).neighbors) {
          neighbor_flipped |= was_core(nb) != !members[nb].empty();
        }
        totals_->dirty_cells_keeping_list += !neighbor_flipped;
      }
      id_state_ = std::move(id_state);
      members_ = std::move(members);
      core_nbrs_ = std::move(core_nbrs);
    }

   private:
    FreezeCoverage* totals_;
    std::vector<uint8_t> id_state_;  // 0 dead or unborn, 1 alive, 3 core.
    std::vector<std::vector<PointId>> members_;  // Core members by cell.
    std::vector<int> core_nbrs_;  // ε-close core cells by cell.
  };
};

/// Check 2 under a live reader: one thread keeps querying the oldest held
/// snapshot while the owning thread applies updates and freezes over it.
class HeldReader {
 public:
  HeldReader()
      : thread_([this] {
          while (!stop_.load(std::memory_order_acquire)) {
            const std::shared_ptr<const Held> h = slot_.Load();
            if (h == nullptr) {
              std::this_thread::yield();
              continue;
            }
            if (!(CanonicalQuery(*h->snap, h->qids) == h->answer)) {
              mismatches_.fetch_add(1, std::memory_order_relaxed);
            }
            checks_.fetch_add(1, std::memory_order_release);
          }
        }) {}

  ~HeldReader() {
    if (thread_.joinable()) Stop();
  }
  HeldReader(const HeldReader&) = delete;
  HeldReader& operator=(const HeldReader&) = delete;

  void Publish(std::shared_ptr<const Held> h) { slot_.Store(std::move(h)); }

  /// Waits for at least one read, stops the thread, returns (checks,
  /// mismatches).
  std::pair<int64_t, int64_t> Stop() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (slot_.Load() != nullptr &&
           checks_.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    stop_.store(true, std::memory_order_release);
    thread_.join();
    return {checks_.load(), mismatches_.load()};
  }

 private:
  SharedPtrSlot<const Held> slot_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> checks_{0};
  std::atomic<int64_t> mismatches_{0};
  std::thread thread_;
};

struct StreamCase {
  const char* label;
  const char* spec;
};

/// Every freeze is checked against a replay of its prefix, so the stream
/// shortens as freezes get denser.
int64_t StreamLength(int64_t k) { return k == 1 ? 240 : k == 7 ? 700 : 2000; }

Workload BuildStream(const StreamCase& stream, int64_t n) {
  return BuildScenarioWorkload(
      std::string(stream.spec) + ",n=" + std::to_string(n), 17);
}

DbscanParams StreamParams(double rho) {
  return DbscanParams{.dim = 2, .eps = 110.0, .min_pts = 5, .rho = rho};
}

const StreamCase kStreams[] = {
    {"PaperMixed", "paper-mixed:dim=2,extent=2500,qevery=0"},
    {"SlidingWindow", "sliding-window:window=150,dim=2,extent=2500,qevery=0"},
    {"InsertOnly", "paper-mixed:ins=1,dim=2,extent=2500,qevery=0"},
    // Sparse tail clusters: cells without a block gain an ε-close core cell
    // that one of their own points borders.
    {"Zipf", "zipf:dim=2,extent=2500,qevery=0"},
};

/// Drives one combo through `w`, freezing every `k` updates, and checks
/// each freeze against a replay and each held snapshot after three later
/// freezes.
void RunCombo(const Combo& combo, const Workload& w,
              const DbscanParams& params, int64_t k) {
  std::vector<const Operation*> updates;
  for (const Operation& op : w.ops) {
    if (op.type != Operation::Type::kQuery) updates.push_back(&op);
  }
  std::unique_ptr<Clusterer> c = combo.make(params);
  std::vector<PointId> ids(w.points.size(), kInvalidPoint);
  std::deque<std::shared_ptr<Held>> held;
  std::shared_ptr<Held> first;
  HeldReader reader;
  PointId id_bound = 0;
  int64_t freezes = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    ApplyOp(*c, w, *updates[i], ids);
    if (updates[i]->type == Operation::Type::kInsert) {
      id_bound = std::max(id_bound, ids[updates[i]->target] + 1);
    }
    const int64_t applied = static_cast<int64_t>(i) + 1;
    if (applied % k != 0 && i + 1 != updates.size()) continue;

    const std::shared_ptr<const ClusterSnapshot> snap = c->Snapshot();

    // Check 1: the first freeze of a replay of the same prefix.
    std::unique_ptr<Clusterer> replay = combo.make(params);
    std::vector<PointId> replay_ids(w.points.size(), kInvalidPoint);
    for (size_t j = 0; j <= i; ++j) {
      ApplyOp(*replay, w, *updates[j], replay_ids);
    }
    EXPECT_EQ(replay_ids, ids);
    {
      SCOPED_TRACE("freeze after update " + std::to_string(applied));
      ExpectSameAsFullBuild(*snap, *replay->Snapshot(), id_bound);
    }

    // Check 2: held snapshots, each verified after three later freezes;
    // the run's first snapshot once more at the end.
    while (!held.empty() && freezes - held.front()->frozen_at >= 3) {
      ExpectStillAnswers(*held.front(), freezes - held.front()->frozen_at);
      held.pop_front();
    }
    held.push_back(Record(snap, id_bound, freezes));
    if (first == nullptr) first = held.back();
    ++freezes;
    reader.Publish(held.front());
    if (::testing::Test::HasFailure()) break;
  }
  if (first != nullptr && freezes > 3) ExpectStillAnswers(*first, freezes - 1);
  const auto [checks, mismatches] = reader.Stop();
  EXPECT_GT(checks, 0);
  EXPECT_EQ(mismatches, 0) << "the reader saw a held snapshot change";
}

class SnapshotIncrementalTest
    : public ::testing::TestWithParam<std::tuple<StreamCase, int64_t, double>> {
};

TEST_P(SnapshotIncrementalTest, FreezeMatchesFullBuildAndHeldSnapshotsStay) {
  const auto& [stream, k, rho] = GetParam();
  const Workload w = BuildStream(stream, StreamLength(k));
  const MetricsRegistry& metrics = MetricsRegistry::Instance();
  const int64_t pages_reused = metrics.ValueOf("core.snapshot_pages_reused");
  const int64_t cells_reused = metrics.ValueOf("core.snapshot_cells_reused");
  for (const Combo& combo : Combos(rho)) {
    if (!combo.supports_delete && w.num_deletes > 0) continue;
    SCOPED_TRACE(combo.name);
    RunCombo(combo, w, StreamParams(rho), k);
    if (::testing::Test::HasFailure()) return;
  }
  // The freezes above really shared blocks with their predecessors.
  EXPECT_GT(metrics.ValueOf("core.snapshot_pages_reused"), pages_reused);
  EXPECT_GT(metrics.ValueOf("core.snapshot_cells_reused"), cells_reused);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SnapshotIncrementalTest,
    ::testing::Combine(::testing::ValuesIn(kStreams),
                       ::testing::Values(int64_t{1}, int64_t{7}, int64_t{500}),
                       ::testing::Values(0.0, 0.001)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).label) + "_K" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == 0.0 ? "_Exact" : "_TinyRho");
    });

/// The streams above reach every case the dirty marks exist for: cells are
/// created, emptied by deletion (where the stream deletes), and flip their
/// core-cell status next to other cells. At the freezes RunCombo takes,
/// each stream also reaches, over its three freeze cadences, every path of
/// the copy-on-write freeze: a page patched in one slot, a cell without a
/// block that gains an ε-close core cell, one with a block that loses its
/// last (where the stream deletes), and a dirty cell that keeps its
/// core-neighbor list. Some stream also has such a gaining cell's own point
/// border its new core cell, which only the cell's new block can tell.
TEST(SnapshotIncrementalStreamsTest, StreamsCreateEmptyAndFlipCells) {
  int64_t null_cells_gaining_border = 0;
  for (const StreamCase& stream : kStreams) {
    SCOPED_TRACE(stream.label);
    FreezeCoverage freezes;
    bool deletes = false;
    for (const int64_t k : {1, 7, 500}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const Workload w = BuildStream(stream, StreamLength(k));
      deletes |= w.num_deletes > 0;
      FullyDynamicClusterer c(StreamParams(0));
      std::vector<PointId> ids(w.points.size(), kInvalidPoint);
      Coverage coverage;
      FreezeCoverage::Run run(&freezes);
      int64_t applied = 0;
      for (const Operation& op : w.ops) {
        if (op.type == Operation::Type::kQuery) continue;
        ApplyOp(c, w, op, ids);
        coverage.Observe(c);
        if (++applied % k == 0) run.Observe(c);
      }
      run.Observe(c);
      EXPECT_GT(coverage.cells_created, 0);
      EXPECT_GT(coverage.core_flips_next_to_cells, 0);
      if (w.num_deletes > 0) {
        EXPECT_GT(coverage.cells_emptied, 0);
      }
    }
    EXPECT_GT(freezes.single_id_patches, 0);
    EXPECT_GT(freezes.null_cells_gaining_block, 0);
    EXPECT_GT(freezes.dirty_cells_keeping_list, 0);
    if (deletes) {
      EXPECT_GT(freezes.cells_losing_last_core_neighbor, 0);
    }
    null_cells_gaining_border += freezes.null_cells_gaining_border;
  }
  EXPECT_GT(null_cells_gaining_border, 0);
}

/// A hand-built stream (d = 2, ε = 1, MinPts = 3) for the two ways a clean
/// cell's frozen state goes stale without any update to the cell itself:
///   * its label — two runs of core points, cells 0..4 and 7..11 along x,
///     merge through two bridge points and split again when one bridge
///     leaves, while the cells far from the bridge stay clean;
///   * its ε-close core-cell list — a noise point at x = 14.2 sits in a
///     cell of its own, and the cell next to it turns core when a third
///     point lands there, which makes the noise point a border point while
///     its own cell stays clean.
Workload HandBuiltStream() {
  Workload w;
  w.dim = 2;
  auto insert = [&](double x) {
    w.ops.push_back({Operation::Type::kInsert,
                     static_cast<int64_t>(w.points.size()),
                     {}});
    w.points.push_back(Point{x, 0.1});
    ++w.num_inserts;
    return w.ops.back().target;
  };
  auto remove = [&](int64_t target) {
    w.ops.push_back({Operation::Type::kDelete, target, {}});
    ++w.num_deletes;
  };
  for (int i = 0; i <= 12; ++i) insert(0.25 * i);        // Left run.
  for (int i = 0; i <= 12; ++i) insert(5.0 + 0.25 * i);  // Right run.
  const int64_t bridge = insert(3.6);  // Core; joins the left run.
  insert(4.4);                         // Core; merges the two runs.
  remove(bridge);                      // Splits them again.
  insert(14.2);                        // Index 28: noise, cell of its own.
  insert(13.0);                        // Index 29.
  insert(13.1);
  insert(13.3);                        // Cell of 13.x turns core.
  w.num_updates = w.num_inserts + w.num_deletes;
  return w;
}

TEST(SnapshotIncrementalHandBuiltTest, CleanCellsFollowLabelsAndFlips) {
  const Workload w = HandBuiltStream();
  const DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0};
  for (const Combo& combo : Combos(params.rho)) {
    if (!combo.supports_delete) continue;
    SCOPED_TRACE(combo.name);
    RunCombo(combo, w, params, 1);
  }

  // The answer that exposes a stale list, frozen after every update.
  FullyDynamicClusterer c(params);
  std::vector<PointId> ids(w.points.size(), kInvalidPoint);
  for (const Operation& op : w.ops) {
    ApplyOp(c, w, op, ids);
    c.Snapshot();
  }
  const CGroupByResult last = CanonicalQuery(*c.Snapshot(), {ids[28], ids[29]});
  EXPECT_TRUE(last.noise.empty())
      << "the point at x = 14.2 must be a border point of the new core cell";
  ASSERT_EQ(last.groups.size(), 1u);
  EXPECT_EQ(last.groups[0].size(), 2u);
}

/// The reuse counters on a hand-built sequence (FullyDynamicClusterer,
/// d = 2, ε = 1, MinPts = 3; cell side 1/√2): each freeze's exact
/// rebuilt/reused page and cell counts.
class ReuseCounters {
 public:
  struct Counts {
    int64_t pages_rebuilt, pages_reused, cells_rebuilt, cells_reused;
    bool operator==(const Counts&) const = default;
  };

  Counts FreezeAndCount(Clusterer& c) {
    const Counts before = Read();
    c.Snapshot();
    const Counts after = Read();
    return {after.pages_rebuilt - before.pages_rebuilt,
            after.pages_reused - before.pages_reused,
            after.cells_rebuilt - before.cells_rebuilt,
            after.cells_reused - before.cells_reused};
  }

 private:
  static Counts Read() {
    MetricsRegistry& r = MetricsRegistry::Instance();
    return {r.ValueOf("core.snapshot_pages_rebuilt"),
            r.ValueOf("core.snapshot_pages_reused"),
            r.ValueOf("core.snapshot_cells_rebuilt"),
            r.ValueOf("core.snapshot_cells_reused")};
  }
};

std::ostream& operator<<(std::ostream& os, const ReuseCounters::Counts& c) {
  return os << "{pages rebuilt " << c.pages_rebuilt << ", reused "
            << c.pages_reused << "; cells rebuilt " << c.cells_rebuilt
            << ", reused " << c.cells_reused << "}";
}

TEST(SnapshotReuseCountersTest, PinnedCountsOnAHandBuiltSequence) {
  const DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0};
  FullyDynamicClusterer c(params);
  ReuseCounters counters;
  using Counts = ReuseCounters::Counts;

  // Ids 0..63 (page 0): isolated noise, 10 apart — 64 cells, no links.
  for (int i = 0; i < 64; ++i) c.Insert(Point{100.0 + 10.0 * i, 100.0});
  // Id 64 (page 1): noise in cell (1, 0), ε-close to cell (0, 0).
  c.Insert(Point{1.25, 0.1});
  // Ids 65..67 (page 1): three core points in cell (0, 0).
  std::vector<PointId> core_trio;
  for (const Point& p : {Point{0.1, 0.1}, Point{0.2, 0.1}, Point{0.1, 0.2}}) {
    core_trio.push_back(c.Insert(p));
  }
  ASSERT_TRUE(c.is_core(core_trio[0]));
  ASSERT_FALSE(c.is_core(64));
  // The first freeze builds everything.
  EXPECT_EQ(counters.FreezeAndCount(c), (Counts{2, 0, 66, 0}));
  // No update since: the cached snapshot, no build.
  EXPECT_EQ(counters.FreezeAndCount(c), (Counts{0, 0, 0, 0}));

  // One insert that promotes nothing: its page, no cell.
  const PointId second = c.Insert(Point{100.1, 100.0});  // Id 68, cell of 0.
  ASSERT_FALSE(c.is_core(second));
  EXPECT_EQ(counters.FreezeAndCount(c), (Counts{1, 1, 0, 66}));

  // A third point there promotes ids 0, 68 and 69: pages 0 and 1, and the
  // one cell (no ε-close cells to re-link).
  const PointId third = c.Insert(Point{100.2, 100.0});
  ASSERT_TRUE(c.is_core(0) && c.is_core(second) && c.is_core(third));
  EXPECT_EQ(counters.FreezeAndCount(c), (Counts{2, 0, 1, 65}));

  // Deleting the trio empties cell (0, 0), which leaves the grid graph: its
  // own block and its neighbor's core-cell list are rebuilt; page 0 stays.
  for (const PointId p : core_trio) c.Delete(p);
  EXPECT_EQ(counters.FreezeAndCount(c), (Counts{1, 1, 2, 64}));
}

}  // namespace
}  // namespace ddc
