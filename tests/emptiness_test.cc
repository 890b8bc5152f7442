#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/emptiness.h"
#include "geom/simd_kernels.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// Emptiness structures as the clusterers build them: each one holds points
/// of a single grid cell, knows that cell's box, and shares one slot
/// registry with every other structure of its owner.
class CellStructures {
 public:
  explicit CellStructures(const DbscanParams& params)
      : params_(params), grid_(params.dim, params.eps) {}

  Grid& grid() { return grid_; }

  /// Inserts `p` into the grid; returns its id and cell.
  std::pair<PointId, CellId> Insert(const Point& p) {
    const Grid::InsertResult ins = grid_.Insert(p);
    return {ins.id, ins.cell};
  }

  /// A point drawn uniformly from the interior of the cell with key
  /// `key`, inserted into the grid. Its id, and its cell, which must be
  /// that key's.
  std::pair<PointId, CellId> InsertInCell(Rng& rng, const CellKey& key) {
    Point p;
    for (int i = 0; i < params_.dim; ++i) {
      p[i] = (key[i] + rng.NextDouble(0.001, 0.999)) * grid_.side();
    }
    const auto [id, cell] = Insert(p);
    DDC_CHECK(grid_.cell_key(cell) == key);
    return {id, cell};
  }

  /// The structure of cell `c`, created on first use with the cell's box.
  CellEmptiness& Of(CellId c) {
    if (static_cast<size_t>(c) >= structures_.size()) {
      structures_.resize(grid_.num_cells());
    }
    if (structures_[c] == nullptr) {
      structures_[c] = std::make_unique<CellEmptiness>(
          &grid_, params_, grid_.cell_box(c), &slots_);
    }
    return *structures_[c];
  }

 private:
  DbscanParams params_;
  Grid grid_;
  std::vector<int32_t> slots_;
  std::vector<std::unique_ptr<CellEmptiness>> structures_;
};

CellKey KeyOf(std::initializer_list<int32_t> coords) {
  CellKey key;
  int i = 0;
  for (const int32_t c : coords) key[i++] = c;
  return key;
}

/// Distance from `q` to the nearest of `members`.
double NearestDistance(const Grid& grid, const std::vector<PointId>& members,
                       const Point& q, int dim) {
  double best = std::numeric_limits<double>::infinity();
  for (const PointId m : members) {
    best = std::min(best, Distance(q, grid.point(m), dim));
  }
  return best;
}

/// The ρ-approximate ε-emptiness contract (Section 4.2) for one probe: a
/// query must find a proof when some member is within ε, must find none
/// when no member is within (1+ρ)ε, and any returned proof must be a member
/// within (1+ρ)ε.
void ExpectContract(const Grid& grid, const CellEmptiness& s,
                    const std::vector<PointId>& members, const Point& q,
                    const DbscanParams& params) {
  const double best = NearestDistance(grid, members, q, params.dim);
  const PointId proof = s.Query(q);
  if (best <= params.eps) {
    ASSERT_NE(proof, kInvalidPoint) << "must-find violated, best=" << best;
  }
  if (best > params.eps_outer()) {
    ASSERT_EQ(proof, kInvalidPoint) << "must-miss violated, best=" << best;
  }
  if (proof != kInvalidPoint) {
    ASSERT_TRUE(s.Contains(proof));
    ASSERT_LE(Distance(q, grid.point(proof), params.dim),
              params.eps_outer() * (1 + 1e-12));
  }
}

class EmptinessContractTest : public ::testing::TestWithParam<double> {};

// Two cells sharing one registry, probed from all around: the box
// prefilter answers the far probes, the scan the near ones.
TEST_P(EmptinessContractTest, ContractHolds) {
  const double rho = GetParam();
  const int dim = 3;
  DbscanParams params{.dim = dim, .eps = 1.0, .min_pts = 3, .rho = rho};
  Rng rng(42);
  CellStructures cells(params);

  const CellKey keys[] = {KeyOf({0, 0, 0}), KeyOf({1, 0, 0})};
  std::vector<PointId> members[2];
  CellId cell[2] = {kInvalidCell, kInvalidCell};
  for (int k = 0; k < 2; ++k) {
    for (int n = 0; n < (k == 0 ? 120 : 60); ++n) {
      const auto [id, c] = cells.InsertInCell(rng, keys[k]);
      cell[k] = c;
      cells.Of(c).Insert(id);
      members[k].push_back(id);
    }
  }
  ASSERT_EQ(cells.Of(cell[0]).size(), 120);
  ASSERT_EQ(cells.Of(cell[1]).size(), 60);

  const double side = cells.grid().side();
  for (int probe = 0; probe < 300; ++probe) {
    Point q;
    for (int i = 0; i < dim; ++i) {
      q[i] = rng.NextDouble(-2.0, (i == 0 ? 2 * side : side) + 2.0);
    }
    for (int k = 0; k < 2; ++k) {
      ExpectContract(cells.grid(), cells.Of(cell[k]), members[k], q, params);
    }
  }
}

TEST_P(EmptinessContractTest, RemoveWorks) {
  const double rho = GetParam();
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = rho};
  CellStructures cells(params);

  const auto [a, cell] = cells.Insert(Point{0, 0});
  const auto [b, cell_b] = cells.Insert(Point{0.1, 0.1});
  ASSERT_EQ(cell, cell_b);
  CellEmptiness& s = cells.Of(cell);
  s.Insert(a);
  s.Insert(b);
  EXPECT_EQ(s.size(), 2);

  s.Remove(a);
  EXPECT_EQ(s.size(), 1);
  EXPECT_FALSE(s.Contains(a));
  EXPECT_EQ(s.Query(Point{0, 0}), b);  // Only b remains.

  s.Remove(b);
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.Query(Point{0, 0}), kInvalidPoint);
}

TEST_P(EmptinessContractTest, MembersListsEveryMember) {
  const double rho = GetParam();
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = rho};
  Rng rng(7);
  CellStructures cells(params);

  std::set<PointId> want;
  CellId cell = kInvalidCell;
  for (int n = 0; n < 37; ++n) {
    const auto [id, c] = cells.InsertInCell(rng, KeyOf({2, -1}));
    cell = c;
    cells.Of(c).Insert(id);
    want.insert(id);
  }
  const std::vector<PointId>& got = cells.Of(cell).members();
  EXPECT_EQ(std::set<PointId>(got.begin(), got.end()), want);
  EXPECT_EQ(got.size(), want.size());
}

// The box prefilter at its boundary (kBoxPrefilterSlack). The member sits
// on the lowest corner of its cell, one ulp outside the computed box yet
// assigned to the cell by the grid's floor rounding, and is probed from
// outside the box at (1+ρ)ε·(1 ± 1e-9). The structure answers by radius
// (1+ρ)ε — at ρ == 0 that is the contract itself; at ρ > 0 it is the rule
// GridSnapshot's frozen query mirrors — so the inner probe must find the
// member and the outer one must not. Right at (1+ρ)ε, probed ulp by ulp,
// the answer must be the scan's own verdict: the prefilter never skips a
// member the scan would accept.
TEST_P(EmptinessContractTest, CornerProbesAtTheOuterRadius) {
  const double rho = GetParam();
  const int dim = 3;
  DbscanParams params{.dim = dim, .eps = 1.0, .min_pts = 3, .rho = rho};
  CellStructures cells(params);
  const double side = cells.grid().side();
  const double below = -std::numeric_limits<double>::infinity();

  // The first positive key whose cell owns the double just below its
  // computed lower bound k·side.
  int32_t k = 1;
  while (std::floor(std::nextafter(k * side, below) / side) != k) ++k;
  Point corner;
  for (int i = 0; i < dim; ++i) corner[i] = std::nextafter(k * side, below);
  const auto [member, cell] = cells.Insert(corner);
  ASSERT_EQ(cells.grid().cell_key(cell), KeyOf({k, k, k}));
  const Box box = cells.grid().cell_box(cell);
  for (int i = 0; i < dim; ++i) ASSERT_LT(corner[i], box.lo()[i]);
  CellEmptiness& s = cells.Of(cell);
  s.Insert(member);

  const double r = params.eps_outer();
  const double outer_sq = r * r;
  const double ulp = std::numeric_limits<double>::epsilon();
  const Point outward[] = {{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {-1, -1, 0},
                           {-1, -1, -1}, {-0.2, -1, -0.5}};
  for (const Point& dir : outward) {
    const double norm = std::sqrt(SquaredDistance(dir, Point{}, dim));
    const auto probe = [&](double dist) {
      Point q;
      for (int i = 0; i < dim; ++i) q[i] = corner[i] + dir[i] / norm * dist;
      return q;
    };
    EXPECT_EQ(s.Query(probe(r * (1 - 1e-9))), member);
    EXPECT_EQ(s.Query(probe(r * (1 + 1e-9))), kInvalidPoint);
    for (int ulps = -8; ulps <= 8; ++ulps) {
      const Point q = probe(r * (1 + ulps * ulp));
      const bool scan_hit =
          FindLastWithinPacked(q, corner.data(), 1, dim, outer_sq) == 0;
      EXPECT_EQ(s.Query(q) != kInvalidPoint, scan_hit) << "ulps " << ulps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, EmptinessContractTest,
                         ::testing::Values(0.0, 0.001, 0.1, 0.2, 0.5));

// Randomized mixed insert/remove fuzz against a naive mirror, over two
// adjacent cells whose structures share one slot registry: a point's slot
// written by one structure must never pass as a member of the other.
TEST(EmptinessFuzzTest, MixedUpdatesKeepContract) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.2};
  Rng rng(99);
  CellStructures cells(params);
  const CellKey keys[] = {KeyOf({0, 0}), KeyOf({0, 1})};
  std::vector<PointId> members[2];
  CellId cell[2] = {kInvalidCell, kInvalidCell};
  std::vector<PointId> ever;

  for (int step = 0; step < 2000; ++step) {
    const int k = static_cast<int>(rng.NextBelow(2));
    if (members[k].empty() || rng.NextBernoulli(0.6)) {
      const auto [id, c] = cells.InsertInCell(rng, keys[k]);
      cell[k] = c;
      cells.Of(c).Insert(id);
      members[k].push_back(id);
      ever.push_back(id);
    } else {
      const size_t i = rng.NextBelow(members[k].size());
      cells.Of(cell[k]).Remove(members[k][i]);
      members[k][i] = members[k].back();
      members[k].pop_back();
    }
    for (int j = 0; j < 2; ++j) {
      if (cell[j] == kInvalidCell) continue;
      ASSERT_EQ(cells.Of(cell[j]).size(), static_cast<int>(members[j].size()));
    }
    if (step % 20 != 0) continue;
    for (int j = 0; j < 2; ++j) {
      if (cell[j] == kInvalidCell) continue;
      const CellEmptiness& s = cells.Of(cell[j]);
      const std::set<PointId> mirror(members[j].begin(), members[j].end());
      for (const PointId p : ever) {
        ASSERT_EQ(s.Contains(p), mirror.count(p) == 1) << "point " << p;
      }
      const Point q = UniformPoints(rng, 1, 2, 3.0)[0];
      ExpectContract(cells.grid(), s, members[j], q, params);
    }
  }
}

}  // namespace
}  // namespace ddc
