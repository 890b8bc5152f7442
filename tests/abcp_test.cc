#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/abcp.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

// Harness owning two adjacent cells' core states built the way the
// fully-dynamic clusterer builds them — each cell's emptiness structure
// holds points of that grid cell only, knows the cell's box, and shares one
// slot registry with the other — plus a brute-force oracle.
class AbcpHarness {
 public:
  AbcpHarness(double rho, uint64_t seed)
      : params_{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = rho},
        grid_(2, params_.eps),
        rng_(seed) {
    // Two adjacent cells, [0,side)^2 and [side,2*side)x[0,side),
    // materialized by a point at each center that leaves again at once.
    side_ = grid_.side();
    for (int which = 0; which < 2; ++which) {
      const Grid::InsertResult ins =
          grid_.Insert(Point{(which + 0.5) * side_, 0.5 * side_});
      grid_.Delete(ins.id);
      cell_[which] = ins.cell;
      State(which).core_set = std::make_unique<CellEmptiness>(
          &grid_, params_, grid_.cell_box(ins.cell), &slots_);
    }
    inst_ = AbcpInstance(cell_[0], cell_[1]);
    inst_.Initialize(grid_, s1_, s2_);
  }

  PointId InsertInto(int which) {
    CellCoreState& s = State(which);
    Point p;
    p[0] = (rng_.NextDouble(0.001, 0.999) + which) * side_;
    p[1] = rng_.NextDouble(0.001, 0.999) * side_;
    const Grid::InsertResult ins = grid_.Insert(p);
    EXPECT_EQ(ins.cell, cell_[which]);
    s.core_set->Insert(ins.id);
    s.log.push_back(ins.id);
    inst_.OnCoreInsert(grid_, s1_, s2_);
    return ins.id;
  }

  void Remove(int which, PointId id) {
    CellCoreState& s = State(which);
    ASSERT_TRUE(s.core_set->Contains(id));
    s.core_set->Remove(id);
    inst_.OnCoreRemove(grid_, s1_, s2_, cell_[which], id);
  }

  static const std::vector<PointId>& Members(const CellCoreState& s) {
    return s.core_set->members();
  }

  /// True when some cross pair is within eps (the "must have witness" case).
  bool OracleHasClosePair() const {
    for (const PointId a : Members(s1_)) {
      for (const PointId b : Members(s2_)) {
        if (WithinDistance(grid_.point(a), grid_.point(b), 2, params_.eps)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Checks Lemma 3's contract right now.
  void CheckContract() const {
    if (inst_.has_witness()) {
      // Witness endpoints must be current members within (1+rho)*eps.
      ASSERT_TRUE(s1_.core_set->Contains(inst_.w1()));
      ASSERT_TRUE(s2_.core_set->Contains(inst_.w2()));
      ASSERT_LE(Distance(grid_.point(inst_.w1()), grid_.point(inst_.w2()), 2),
                params_.eps_outer() * (1 + 1e-12));
    } else {
      ASSERT_FALSE(OracleHasClosePair())
          << "witness empty while an eps-close pair exists";
    }
  }

  const AbcpInstance& inst() const { return inst_; }
  Rng& rng() { return rng_; }

 private:
  CellCoreState& State(int which) { return which == 0 ? s1_ : s2_; }

  DbscanParams params_;
  Grid grid_;
  Rng rng_;
  double side_;
  CellId cell_[2] = {kInvalidCell, kInvalidCell};
  std::vector<int32_t> slots_;
  CellCoreState s1_, s2_;
  AbcpInstance inst_;
};

TEST(AbcpTest, EmptyCellsHaveNoWitness) {
  AbcpHarness h(0.1, 1);
  EXPECT_FALSE(h.inst().has_witness());
}

TEST(AbcpTest, InsertionCreatesWitness) {
  AbcpHarness h(0.1, 2);
  h.InsertInto(0);
  EXPECT_FALSE(h.inst().has_witness());  // One side empty.
  h.InsertInto(1);
  // Adjacent cells of side eps/sqrt(2): any cross pair is within ~1.58*eps,
  // not necessarily within eps; the contract only *requires* a witness when
  // a pair is within eps.
  h.CheckContract();
}

TEST(AbcpTest, RemovalRepairsOrEmpties) {
  AbcpHarness h(0.05, 3);
  std::vector<PointId> a, b;
  for (int i = 0; i < 5; ++i) a.push_back(h.InsertInto(0));
  for (int i = 0; i < 5; ++i) b.push_back(h.InsertInto(1));
  h.CheckContract();
  for (const PointId p : a) {
    h.Remove(0, p);
    h.CheckContract();
  }
  EXPECT_FALSE(h.inst().has_witness());  // Side 1 empty.
}

// Randomized fuzz: arbitrary insert/remove interleavings keep the contract.
TEST(AbcpFuzzTest, ContractUnderRandomUpdates) {
  for (const double rho : {0.0, 0.01, 0.3}) {
    AbcpHarness h(rho, 1000 + static_cast<int>(rho * 100));
    std::vector<std::pair<int, PointId>> alive;
    for (int step = 0; step < 1200; ++step) {
      if (alive.empty() || h.rng().NextBernoulli(0.55)) {
        const int which = static_cast<int>(h.rng().NextBelow(2));
        alive.emplace_back(which, h.InsertInto(which));
      } else {
        const size_t i = h.rng().NextBelow(alive.size());
        h.Remove(alive[i].first, alive[i].second);
        alive[i] = alive.back();
        alive.pop_back();
      }
      h.CheckContract();
    }
  }
}

}  // namespace
}  // namespace ddc
