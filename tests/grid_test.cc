#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "geom/box.h"
#include "grid/grid.h"
#include "grid/neighbor_offsets.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

TEST(CellKeyTest, OfUsesFloor) {
  const double side = 2.0;
  const CellKey k = CellKey::Of(Point{3.5, -0.5}, 2, side);
  EXPECT_EQ(k[0], 1);
  EXPECT_EQ(k[1], -1);
}

TEST(CellKeyTest, ShiftAndEquality) {
  const CellKey a = CellKey::Of(Point{0.5, 0.5}, 2, 1.0);
  CellKey b = a;
  b[0] += 2;
  b[1] -= 1;
  EXPECT_EQ(b[0], 2);
  EXPECT_EQ(b[1], -1);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());  // Overwhelmingly likely.
}

/// Box-to-box gap² of two cell keys over their first `dim` coordinates, with
/// the grid's formula (boundary gap (|Δ| - 1) * side per dimension).
double KeyGapSq(const CellKey& a, const CellKey& b, int dim, double side) {
  double gap_sq = 0;
  for (int i = 0; i < dim; ++i) {
    const int g = std::abs(a[i] - b[i]) - 1;
    if (g > 0) gap_sq += static_cast<double>(g) * g * side * side;
  }
  return gap_sq;
}

/// The grid's closeness test, tolerance included: ties at exactly ε are
/// close.
bool WithinEpsSq(double gap_sq, double eps) {
  return gap_sq <= eps * eps * (1 + 1e-12);
}

// The grid builds its offset table over the column dimensions, min(d, 3),
// at the cell side of d dimensions. The table must hold exactly the column
// shifts, the zero shift included, whose box-to-box gap over those
// dimensions is at most eps — cross-checked against explicit Box geometry.
class NeighborOffsetsTest : public ::testing::TestWithParam<int> {};

TEST_P(NeighborOffsetsTest, MatchesBoxDistance) {
  const int dim = GetParam();
  const int k = std::min(dim, 3);
  const double eps = 3.7;
  const double side = eps / std::sqrt(static_cast<double>(dim));
  NeighborOffsets table(k, side, eps);

  std::set<std::array<int32_t, kMaxDim>> got(table.offsets().begin(),
                                             table.offsets().end());
  // No duplicates, at most 7^3 shifts, origin included.
  EXPECT_EQ(got.size(), table.offsets().size());
  EXPECT_LE(got.size(), 343u);
  EXPECT_EQ(got.count(std::array<int32_t, kMaxDim>{}), 1u);

  // Brute-force enumeration over a generous radius.
  const int radius = static_cast<int>(std::ceil(std::sqrt(dim))) + 2;
  Point zero_lo, zero_hi;
  for (int i = 0; i < k; ++i) {
    zero_lo[i] = 0;
    zero_hi[i] = side;
  }
  const Box origin(zero_lo, zero_hi);

  std::array<int32_t, kMaxDim> z{};
  int checked = 0;
  std::vector<int> stack(k, -radius);
  for (;;) {
    for (int i = 0; i < k; ++i) z[i] = stack[i];
    Point lo, hi;
    for (int i = 0; i < k; ++i) {
      lo[i] = z[i] * side;
      hi[i] = (z[i] + 1) * side;
    }
    const bool close =
        origin.MinSquaredDistance(Box(lo, hi), k) <= eps * eps * (1 + 1e-12);
    EXPECT_EQ(got.count(z) > 0, close) << "offset mismatch at dim=" << dim;
    ++checked;
    int i = 0;
    while (i < k && stack[i] == radius) stack[i++] = -radius;
    if (i == k) break;
    ++stack[i];
  }
  EXPECT_GT(checked, 1);
}

INSTANTIATE_TEST_SUITE_P(Dims, NeighborOffsetsTest, ::testing::Range(1, 9));

TEST(GridTest, InsertDeleteBookkeeping) {
  Grid grid(2, 1.0);
  const auto r1 = grid.Insert(Point{0.1, 0.1});
  const auto r2 = grid.Insert(Point{0.2, 0.2});
  EXPECT_TRUE(r1.cell_created);
  EXPECT_FALSE(r2.cell_created);   // Same cell (side ≈ 0.707).
  EXPECT_EQ(r1.cell, r2.cell);
  EXPECT_EQ(grid.size(), 2);
  EXPECT_EQ(grid.cell(r1.cell).size(), 2);

  grid.Delete(r1.id);
  EXPECT_FALSE(grid.alive(r1.id));
  EXPECT_TRUE(grid.alive(r2.id));
  EXPECT_EQ(grid.size(), 1);
  EXPECT_EQ(grid.cell(r1.cell).size(), 1);
  EXPECT_EQ(grid.cell(r1.cell).points[0], r2.id);

  // The cell object survives emptiness.
  grid.Delete(r2.id);
  EXPECT_EQ(grid.cell(r1.cell).size(), 0);
  EXPECT_EQ(grid.num_cells(), 1);

  // Reinsertion reuses the materialized cell.
  const auto r3 = grid.Insert(Point{0.3, 0.3});
  EXPECT_FALSE(r3.cell_created);
  EXPECT_EQ(r3.cell, r1.cell);
}

TEST(GridTest, NeighborLinksAreSymmetricAndClose) {
  Rng rng(77);
  Grid grid(3, 2.0);
  for (const Point& p : UniformPoints(rng, 300, 3, 12.0)) grid.Insert(p);

  for (CellId c = 0; c < grid.num_cells(); ++c) {
    const Box cb = grid.cell_box(c);
    for (const CellId nb : grid.cell(c).neighbors) {
      EXPECT_NE(nb, c);
      // ε-close by geometry.
      EXPECT_LE(cb.MinSquaredDistance(grid.cell_box(nb), 3),
                grid.eps() * grid.eps() * (1 + 1e-9));
      // Symmetric.
      const auto& back = grid.cell(nb).neighbors;
      EXPECT_NE(std::find(back.begin(), back.end(), c), back.end());
    }
  }
}

/// Every cell's neighbor list must hold exactly the other cells that pass
/// the brute-force closeness test over all cell pairs, ties included, each
/// once. Checked from every cell, so both directions of every link are.
/// Returns the number of close pairs whose gap ties ε.
int ExpectLinksMatchBruteForce(const Grid& grid) {
  const int dim = grid.dim();
  const double eps_sq = grid.eps() * grid.eps();
  int ties = 0;
  for (CellId a = 0; a < grid.num_cells(); ++a) {
    const std::vector<CellId>& nbs = grid.cell(a).neighbors;
    const std::set<CellId> got(nbs.begin(), nbs.end());
    EXPECT_EQ(got.size(), nbs.size()) << "duplicate link at cell " << a;
    std::set<CellId> want;
    for (CellId b = 0; b < grid.num_cells(); ++b) {
      if (b == a) continue;
      const double gap_sq =
          KeyGapSq(grid.cell_key(a), grid.cell_key(b), dim, grid.side());
      if (!WithinEpsSq(gap_sq, grid.eps())) continue;
      want.insert(b);
      if (b > a && std::abs(gap_sq - eps_sq) <= 1e-9 * eps_sq) ++ties;
    }
    EXPECT_EQ(got, want) << "cell " << a << " at dim=" << dim;
  }
  return ties;
}

// Uniform points over a box a few cells wide per dimension, so cells have
// ε-close cells in every column around them. The cell side divides ε at
// d = 1 and d = 4, so there some links tie at exactly ε.
class GridLinksTest : public ::testing::TestWithParam<int> {};

TEST_P(GridLinksTest, UniformPointsMatchBruteForce) {
  const int dim = GetParam();
  Rng rng(78 + dim);
  Grid grid(dim, 1.5);
  const double cells_per_dim =
      std::max(4.0, std::round(std::pow(1000.0, 1.0 / dim)));
  for (const Point& p :
       UniformPoints(rng, 300, dim, cells_per_dim * grid.side())) {
    grid.Insert(p);
  }
  EXPECT_GT(grid.num_cells(), 100);
  const int ties = ExpectLinksMatchBruteForce(grid);
  if (dim == 1 || dim == 4) {
    EXPECT_GT(ties, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GridLinksTest, ::testing::Range(1, 9));

// Points sharing their first three cell coordinates: every cell lies in one
// column, hundreds deep, and all of its ε-close cells lie in that column.
class GridLongColumnTest : public ::testing::TestWithParam<int> {};

TEST_P(GridLongColumnTest, LinksMatchBruteForce) {
  const int dim = GetParam();
  Rng rng(178 + dim);
  Grid grid(dim, 1.5);
  const double cells_per_dim =
      std::max(4.0, std::round(std::pow(600.0, 1.0 / (dim - 3))));
  for (Point p : UniformPoints(rng, 600, dim, cells_per_dim * grid.side())) {
    for (int i = 0; i < 3; ++i) p[i] = 0.5 * grid.side();
    grid.Insert(p);
  }
  EXPECT_GT(grid.num_cells(), 300);
  const int ties = ExpectLinksMatchBruteForce(grid);
  if (dim == 4) {
    EXPECT_GT(ties, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GridLongColumnTest, ::testing::Range(4, 9));

class GridRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(GridRangeTest, RangeMatchesBruteForce) {
  const int dim = GetParam();
  Rng rng(100 + dim);
  const double eps = 1.3;
  Grid grid(dim, eps);
  std::vector<Point> pts = UniformPoints(rng, 400, dim, 8.0);
  std::vector<PointId> ids;
  for (const Point& p : pts) ids.push_back(grid.Insert(p).id);

  // Delete a third of them.
  std::vector<bool> alive(pts.size(), true);
  for (size_t i = 0; i < pts.size(); i += 3) {
    grid.Delete(ids[i]);
    alive[i] = false;
  }

  for (int probe = 0; probe < 50; ++probe) {
    const Point q = UniformPoints(rng, 1, dim, 8.0)[0];
    std::set<PointId> got;
    grid.ForEachPointInRange(q, eps, [&](PointId p) { got.insert(p); });
    std::set<PointId> want;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (alive[i] && WithinDistance(q, pts[i], dim, eps)) {
        want.insert(ids[i]);
      }
    }
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GridRangeTest, ::testing::Range(1, 9));

TEST(GridTest, FindCell) {
  Grid grid(2, 1.0);
  EXPECT_EQ(grid.FindCell(Point{5, 5}), kInvalidCell);
  const auto r = grid.Insert(Point{5, 5});
  EXPECT_EQ(grid.FindCell(Point{5, 5}), r.cell);
  EXPECT_EQ(grid.FindCell(Point{50, 50}), kInvalidCell);
}

TEST(GridTest, CellBoxContainsItsPoints) {
  Rng rng(5);
  Grid grid(4, 2.2);
  for (const Point& p : UniformPoints(rng, 200, 4, 9.0)) {
    const auto r = grid.Insert(p);
    EXPECT_TRUE(grid.cell_box(r.cell).Contains(p, 4));
  }
}

TEST(GridTest, NegativeCoordinates) {
  Grid grid(2, 1.0);
  const auto a = grid.Insert(Point{-0.1, -0.1});
  const auto b = grid.Insert(Point{0.1, 0.1});
  EXPECT_NE(a.cell, b.cell);
  int found = 0;
  grid.ForEachPointInRange(Point{0, 0}, 1.0, [&](PointId) { ++found; });
  EXPECT_EQ(found, 2);
}

}  // namespace
}  // namespace ddc
