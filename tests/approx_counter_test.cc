#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/relaxed_core_tracker.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// The range count behind the relaxed core predicate (Section 7.3) lives in
/// `RelaxedCoreTracker`: |B(p, ε)| read from the grid, truncated at MinPts.
/// An exact count lies in the band [|B(p,ε)|, |B(p,(1+ρ)ε)|] at every ρ, and
/// the tracker re-counts every point within (1+ρ)ε >= ε of an update, so a
/// declared status must equal the exact predicate |B(p, ε)| >= MinPts.
class ApproxCounterTest : public ::testing::TestWithParam<double> {};

struct CounterCase {
  int dim;
  double extent;
  int min_pts;
};

/// Mixed updates, the count read through the tracker's declared status. The
/// extents put the mean ε-ball near MinPts, so both outcomes occur. d = 5
/// runs the box prefilter and the batched count over cells linked by the
/// grid's column index.
TEST_P(ApproxCounterTest, ContractUnderMixedUpdates) {
  const double rho = GetParam();
  for (const CounterCase& cc : {CounterCase{2, 10.0, 12},
                                CounterCase{5, 3.0, 8}}) {
    SCOPED_TRACE(testing::Message() << "dim " << cc.dim);
    DbscanParams params{
        .dim = cc.dim, .eps = 1.0, .min_pts = cc.min_pts, .rho = rho};
    Rng rng(404);
    Grid grid(cc.dim, params.eps);
    RelaxedCoreTracker tracker(&grid, params);
    auto noop = [](PointId, CellId) {};

    std::vector<PointId> alive;
    int cores = 0, non_cores = 0;
    for (int step = 0; step < 1500; ++step) {
      if (alive.empty() || rng.NextBernoulli(0.65)) {
        const auto ins =
            grid.Insert(UniformPoints(rng, 1, cc.dim, cc.extent)[0]);
        tracker.OnInsert(ins.id, ins.cell, noop);
        alive.push_back(ins.id);
      } else {
        const size_t i = rng.NextBelow(alive.size());
        const PointId id = alive[i];
        if (tracker.is_core(id)) tracker.ClearCore(id);
        const CellId cell = grid.Delete(id);
        tracker.OnDelete(id, cell, noop);
        alive[i] = alive.back();
        alive.pop_back();
      }

      if (step % 25 != 0) continue;
      for (const PointId p : alive) {
        int inner = 0;
        for (const PointId q : alive) {
          inner += Distance(grid.point(p), grid.point(q), cc.dim) <= params.eps;
        }
        ASSERT_EQ(tracker.is_core(p), inner >= params.min_pts)
            << "step " << step << ", |B(p, eps)| = " << inner;
        ++(tracker.is_core(p) ? cores : non_cores);
      }
    }
    EXPECT_GT(cores, 0);
    EXPECT_GT(non_cores, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, ApproxCounterTest,
                         ::testing::Values(0.0, 0.001, 0.1, 0.3, 0.5));

/// The count includes the point itself: a lone point stays below MinPts = 2,
/// and two points in different cells within ε reach it only by counting
/// themselves.
TEST(ApproxCounterTest, CountsSelf) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 2, .rho = 0.1};
  Grid grid(2, params.eps);
  RelaxedCoreTracker tracker(&grid, params);
  auto noop = [](PointId, CellId) {};

  const auto a = grid.Insert(Point{0.6, 0.1});
  tracker.OnInsert(a.id, a.cell, noop);
  EXPECT_FALSE(tracker.is_core(a.id));

  const auto b = grid.Insert(Point{0.8, 0.1});
  ASSERT_NE(a.cell, b.cell);
  tracker.OnInsert(b.id, b.cell, noop);
  EXPECT_TRUE(tracker.is_core(a.id));
  EXPECT_TRUE(tracker.is_core(b.id));
}

}  // namespace
}  // namespace ddc
