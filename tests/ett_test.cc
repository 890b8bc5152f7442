#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "connectivity/euler_tour_tree.h"
#include "unionfind/union_find.h"

namespace ddc {
namespace {

TEST(EulerTourForestTest, SingletonBasics) {
  EulerTourForest f;
  f.EnsureVertices(3);
  EXPECT_TRUE(f.Connected(0, 0));
  EXPECT_FALSE(f.Connected(0, 1));
  EXPECT_EQ(f.TreeSize(0), 1);
  EXPECT_NE(f.Representative(0), f.Representative(1));
  EXPECT_NE(f.Representative(0), nullptr);
  // Nothing touched vertex 2, so it has no self-arc and no representative.
  EXPECT_EQ(f.Representative(2), nullptr);
  f.Link(1, 2);
  EXPECT_EQ(f.Representative(2), f.Representative(1));
  EXPECT_NE(f.Representative(2), nullptr);
}

TEST(EulerTourForestTest, LinkCutRoundTrip) {
  EulerTourForest f;
  f.EnsureVertices(4);
  const auto ab = f.Link(0, 1);
  EXPECT_TRUE(f.Connected(0, 1));
  EXPECT_EQ(f.TreeSize(0), 2);

  const auto cd = f.Link(2, 3);
  const auto bc = f.Link(1, 2);
  EXPECT_TRUE(f.Connected(0, 3));
  EXPECT_EQ(f.TreeSize(3), 4);
  EXPECT_EQ(f.Representative(0), f.Representative(3));

  f.Cut(bc);
  EXPECT_FALSE(f.Connected(0, 3));
  EXPECT_TRUE(f.Connected(0, 1));
  EXPECT_TRUE(f.Connected(2, 3));
  EXPECT_EQ(f.TreeSize(0), 2);
  EXPECT_EQ(f.TreeSize(2), 2);

  f.Cut(ab);
  f.Cut(cd);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(f.TreeSize(i), 1);
}

TEST(EulerTourForestTest, StarAndPathShapes) {
  // A star cut at the center leaf-by-leaf, and a long path cut in the
  // middle, exercise both extreme tour shapes.
  EulerTourForest f;
  f.EnsureVertices(20);
  std::vector<EulerTourForest::ArcPair> star;
  for (int i = 1; i <= 9; ++i) star.push_back(f.Link(0, i));
  EXPECT_EQ(f.TreeSize(0), 10);
  for (int i = 9; i >= 1; --i) {
    f.Cut(star[i - 1]);
    EXPECT_EQ(f.TreeSize(0), i);
    EXPECT_FALSE(f.Connected(0, i));
  }

  std::vector<EulerTourForest::ArcPair> path;
  for (int i = 10; i < 19; ++i) path.push_back(f.Link(i, i + 1));
  EXPECT_EQ(f.TreeSize(15), 10);
  f.Cut(path[4]);  // Between 14 and 15.
  EXPECT_TRUE(f.Connected(10, 14));
  EXPECT_TRUE(f.Connected(15, 19));
  EXPECT_FALSE(f.Connected(14, 15));
  EXPECT_EQ(f.TreeSize(10), 5);
  EXPECT_EQ(f.TreeSize(19), 5);
}

TEST(EulerTourForestTest, RepresentativeStableAcrossQueries) {
  EulerTourForest f;
  f.EnsureVertices(6);
  f.Link(0, 1);
  f.Link(1, 2);
  // The tour head is a property of the tour, not of the splay shape: the
  // splaying queries between the lookups must not move it.
  const EttNode* r1 = f.Representative(2);
  EXPECT_TRUE(f.Connected(0, 2));
  const EttNode* r2 = f.Representative(0);
  EXPECT_EQ(f.TreeSize(1), 3);
  const EttNode* r3 = f.Representative(1);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r2, r3);
}

TEST(EulerTourForestTest, VertexFlagsAreSearchable) {
  EulerTourForest f;
  f.EnsureVertices(8);
  for (int i = 0; i < 7; ++i) f.Link(i, i + 1);
  EXPECT_EQ(f.FindFlaggedVertex(0), -1);
  f.SetVertexFlag(5, true);
  EXPECT_EQ(f.FindFlaggedVertex(0), 5);
  f.SetVertexFlag(2, true);
  // Drain flags: must surface exactly {2, 5}.
  std::set<int> found;
  for (int x = f.FindFlaggedVertex(0); x != -1; x = f.FindFlaggedVertex(0)) {
    EXPECT_TRUE(found.insert(x).second);
    f.SetVertexFlag(x, false);
  }
  EXPECT_EQ(found, (std::set<int>{2, 5}));
}

TEST(EulerTourForestTest, ArcFlagsAreSearchable) {
  EulerTourForest f;
  f.EnsureVertices(5);
  std::vector<EulerTourForest::ArcPair> arcs;
  for (int i = 0; i < 4; ++i) arcs.push_back(f.Link(i, i + 1));
  EXPECT_EQ(f.FindFlaggedArc(0), nullptr);
  f.SetArcFlag(arcs[2].uv, true);
  EttNode* got = f.FindFlaggedArc(4);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got, arcs[2].uv);
  // Flag visible from any vertex of the tree, not others.
  EXPECT_EQ(f.FindFlaggedArc(0), arcs[2].uv);
  f.SetArcFlag(arcs[2].uv, false);
  EXPECT_EQ(f.FindFlaggedArc(0), nullptr);
}

// Randomized link/cut fuzz against union-find recomputation.
TEST(EulerTourForestFuzzTest, MatchesRecomputedConnectivity) {
  const int n = 60;
  Rng rng(2024);
  EulerTourForest f;
  f.EnsureVertices(n);
  // Current tree edges (a spanning forest by construction).
  std::map<std::pair<int, int>, EulerTourForest::ArcPair> tree;

  auto recompute = [&]() {
    UnionFind uf(n);
    for (const auto& [e, arcs] : tree) uf.Union(e.first, e.second);
    return uf;
  };

  for (int step = 0; step < 3000; ++step) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    if (!f.Connected(u, v)) {
      tree[{std::min(u, v), std::max(u, v)}] = f.Link(u, v);
    } else if (!tree.empty() && rng.NextBernoulli(0.5)) {
      // Cut a random existing tree edge.
      auto it = tree.begin();
      std::advance(it, rng.NextBelow(tree.size()));
      f.Cut(it->second);
      tree.erase(it);
    }
    if (step % 50 == 0) {
      UnionFind uf = recompute();
      for (int probe = 0; probe < 30; ++probe) {
        const int a = static_cast<int>(rng.NextBelow(n));
        const int b = static_cast<int>(rng.NextBelow(n));
        ASSERT_EQ(f.Connected(a, b), uf.Connected(a, b))
            << "step " << step << " pair " << a << "," << b;
      }
      // Tree sizes and representatives consistent.
      for (int a = 0; a < n; ++a) {
        int sz = 0;
        for (int b = 0; b < n; ++b) sz += uf.Connected(a, b);
        ASSERT_EQ(f.TreeSize(a), sz);
        for (int b = 0; b < n; ++b) {
          if (uf.Connected(a, b)) {
            ASSERT_EQ(f.Representative(a), f.Representative(b));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ddc
