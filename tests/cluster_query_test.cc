#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_snapshot.h"
#include "grid/grid.h"

namespace ddc {
namespace {

// Freezes a hand-built grid with scripted core bits and cell labels,
// independent of any clusterer, and queries the frozen snapshot: the
// Section 4.2 semantics as GridSnapshot::ForEachMembershipLabel answers
// them. The emptiness probe is the snapshot's own, at radius ε (rho = 0).
class ClusterQueryTest : public ::testing::Test {
 protected:
  ClusterQueryTest() : grid_(2, 1.0) {}

  PointId Add(double x, double y) { return grid_.Insert(Point{x, y}).id; }

  // MinPts 10 keeps every cell here sparse, so the core bits are the
  // scripted ones rather than implied by a cell's size.
  template <typename IsCore, typename CellLabel>
  CGroupByResult Query(const std::vector<PointId>& q, const IsCore& is_core,
                       const CellLabel& cell_label) {
    const DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 10, .rho = 0};
    auto label = [&](CellId cell, PointId) { return cell_label(cell); };
    SnapshotDirtySet dirty;
    return GridSnapshot::Build(grid_, is_core, label, params, /*epoch=*/0,
                               /*prev=*/nullptr, &dirty)
        ->Query(q);
  }

  Grid grid_;
};

TEST_F(ClusterQueryTest, CorePointsGroupByComponentId) {
  const PointId a = Add(0, 0);
  const PointId b = Add(5, 5);
  const PointId c = Add(5.1, 5.1);

  // Component = cell of b/c vs cell of a.
  const CellId ca = grid_.cell_of(a);
  auto r = Query(
      {a, b, c}, [](PointId) { return true; },
      [&](CellId cell) -> uint64_t { return cell == ca ? 1 : 2; });
  r.Canonicalize();
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0], (std::vector<PointId>{a}));
  EXPECT_EQ(r.groups[1], (std::vector<PointId>{b, c}));
  EXPECT_TRUE(r.noise.empty());
}

TEST_F(ClusterQueryTest, NonCoreSnapsToMultipleClusters) {
  // A non-core point within ε of the core points of two core cells with
  // different CC ids joins both groups: its own cell's and its neighbor's.
  const PointId left = Add(0.0, 0.0);
  const PointId right = Add(1.2, 0.0);  // Different cell (side ≈ 0.707).
  const PointId border = Add(0.6, 0.0);

  const CellId cl = grid_.cell_of(left);
  const CellId cr = grid_.cell_of(right);
  ASSERT_NE(cl, cr);
  ASSERT_EQ(grid_.cell_of(border), cl);

  auto r = Query(
      {left, right, border}, [&](PointId p) { return p != border; },
      [&](CellId c) -> uint64_t { return c == cl ? 10 : 20; });
  r.Canonicalize();
  ASSERT_EQ(r.groups.size(), 2u);
  // border appears in both groups.
  EXPECT_EQ(r.groups[0], (std::vector<PointId>{left, border}));
  EXPECT_EQ(r.groups[1], (std::vector<PointId>{right, border}));
}

TEST_F(ClusterQueryTest, NonCoreWithNoProofIsNoise) {
  const PointId lonely = Add(9, 9);
  const auto r = Query(
      {lonely}, [](PointId) { return false; },
      [](CellId) -> uint64_t { return 0; });
  EXPECT_TRUE(r.groups.empty());
  EXPECT_EQ(r.noise, (std::vector<PointId>{lonely}));
}

TEST_F(ClusterQueryTest, DeadPointsAreSkipped) {
  const PointId a = Add(0, 0);
  const PointId b = Add(0.1, 0);
  grid_.Delete(b);

  auto r = Query(
      {a, b}, [](PointId) { return true; },
      [](CellId) -> uint64_t { return 1; });
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0], (std::vector<PointId>{a}));
}

TEST(CanonicalizeTest, SortsGroupsAndMembers) {
  CGroupByResult r;
  r.groups = {{5, 3}, {2, 9, 1}};
  r.noise = {7, 0};
  r.Canonicalize();
  EXPECT_EQ(r.groups, (std::vector<std::vector<PointId>>{{1, 2, 9}, {3, 5}}));
  EXPECT_EQ(r.noise, (std::vector<PointId>{0, 7}));
}

}  // namespace
}  // namespace ddc
