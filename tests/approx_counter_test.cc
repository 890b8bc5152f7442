#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "counting/approx_counter.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

class ApproxCounterTest : public ::testing::TestWithParam<double> {};

// The counting contract: |B(q,eps)| <= Count(q, cap) <= |B(q,(1+rho)eps)|,
// modulo truncation at cap. The count reads the grid directly, so updates
// go to the grid alone.
TEST_P(ApproxCounterTest, ContractUnderMixedUpdates) {
  const double rho = GetParam();
  const int dim = 2;
  DbscanParams params{.dim = dim, .eps = 1.0, .min_pts = 5, .rho = rho};
  Rng rng(404);
  Grid grid(dim, params.eps);
  ApproxRangeCounter counter(&grid, params);

  std::vector<PointId> alive;
  for (int step = 0; step < 1500; ++step) {
    if (alive.empty() || rng.NextBernoulli(0.65)) {
      alive.push_back(grid.Insert(UniformPoints(rng, 1, dim, 5.0)[0]).id);
    } else {
      const size_t i = rng.NextBelow(alive.size());
      grid.Delete(alive[i]);
      alive[i] = alive.back();
      alive.pop_back();
    }

    if (step % 25 != 0) continue;
    for (int probe = 0; probe < 10; ++probe) {
      const Point q = UniformPoints(rng, 1, dim, 5.0)[0];
      int inner = 0, outer = 0;
      for (const PointId id : alive) {
        const double d = Distance(q, grid.point(id), dim);
        inner += d <= params.eps;
        outer += d <= params.eps_outer();
      }
      const int cap = 1000000;
      const int got = counter.Count(q, cap);
      ASSERT_GE(got, inner) << "step " << step;
      ASSERT_LE(got, outer) << "step " << step;
      // Truncated query: only the >= cap decision must be right.
      const int capped = counter.Count(q, params.min_pts);
      ASSERT_EQ(capped >= params.min_pts, got >= params.min_pts);
      ASSERT_LE(capped, params.min_pts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, ApproxCounterTest,
                         ::testing::Values(0.0, 0.001, 0.1, 0.3, 0.5));

TEST(ApproxCounterTest, CountsSelf) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.1};
  Grid grid(2, 1.0);
  ApproxRangeCounter counter(&grid, params);
  grid.Insert(Point{1, 1});
  EXPECT_EQ(counter.Count(Point{1, 1}, 10), 1);
}

}  // namespace
}  // namespace ddc
