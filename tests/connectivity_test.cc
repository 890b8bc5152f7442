#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "connectivity/hdt.h"
#include "unionfind/union_find.h"

namespace ddc {
namespace {

TEST(ConnectivityTest, EmptyGraph) {
  HdtConnectivity c;
  c.EnsureVertices(3);
  EXPECT_TRUE(c.Connected(1, 1));
  EXPECT_FALSE(c.Connected(0, 2));
  EXPECT_NE(c.ComponentId(0), c.ComponentId(2));
  // Nothing touched vertex 1: its id is synthesized, odd (node addresses
  // are even), distinct from the others and stable across lookups.
  const uint64_t untouched = c.ComponentId(1);
  EXPECT_EQ(untouched & 1, 1u);
  EXPECT_EQ(c.ComponentId(1), untouched);
  EXPECT_NE(untouched, c.ComponentId(0));
  EXPECT_NE(untouched, c.ComponentId(2));
  EXPECT_EQ(c.ComponentId(0) & 1, 0u);
  // Its first edge gives it its component's id.
  c.AddEdge(1, 2);
  EXPECT_EQ(c.ComponentId(1), c.ComponentId(2));
  EXPECT_EQ(c.ComponentId(1) & 1, 0u);
}

TEST(ConnectivityTest, TriangleSurvivesOneRemoval) {
  HdtConnectivity c;
  c.EnsureVertices(3);
  c.AddEdge(0, 1);
  c.AddEdge(1, 2);
  c.AddEdge(2, 0);
  EXPECT_TRUE(c.Connected(0, 2));
  // Removing any one edge of a cycle keeps the component intact.
  c.RemoveEdge(0, 1);
  EXPECT_TRUE(c.Connected(0, 1));
  EXPECT_EQ(c.ComponentId(0), c.ComponentId(1));
  c.RemoveEdge(1, 2);
  EXPECT_FALSE(c.Connected(1, 0));
  EXPECT_TRUE(c.Connected(0, 2));
}

TEST(ConnectivityTest, BridgeSplit) {
  // Two triangles joined by a bridge; deleting the bridge splits exactly
  // along it.
  HdtConnectivity c;
  c.EnsureVertices(6);
  c.AddEdge(0, 1);
  c.AddEdge(1, 2);
  c.AddEdge(2, 0);
  c.AddEdge(3, 4);
  c.AddEdge(4, 5);
  c.AddEdge(5, 3);
  c.AddEdge(2, 3);  // Bridge.
  EXPECT_TRUE(c.Connected(0, 5));
  c.RemoveEdge(2, 3);
  EXPECT_FALSE(c.Connected(0, 5));
  EXPECT_TRUE(c.Connected(0, 2));
  EXPECT_TRUE(c.Connected(3, 5));
  EXPECT_NE(c.ComponentId(0), c.ComponentId(3));
}

TEST(ConnectivityTest, ComponentIdsPartitionCorrectly) {
  HdtConnectivity c;
  c.EnsureVertices(8);
  c.AddEdge(0, 1);
  c.AddEdge(2, 3);
  c.AddEdge(4, 5);
  c.AddEdge(0, 2);
  // Components: {0,1,2,3}, {4,5}, {6}, {7}.
  std::map<uint64_t, std::set<int>> by_id;
  for (int v = 0; v < 8; ++v) by_id[c.ComponentId(v)].insert(v);
  ASSERT_EQ(by_id.size(), 4u);
  std::set<std::set<int>> groups;
  for (auto& [id, s] : by_id) groups.insert(s);
  EXPECT_TRUE(groups.count({0, 1, 2, 3}));
  EXPECT_TRUE(groups.count({4, 5}));
  EXPECT_TRUE(groups.count({6}));
  EXPECT_TRUE(groups.count({7}));
}

TEST(ConnectivityTest, GrowUniverseOnTheFly) {
  HdtConnectivity c;
  c.EnsureVertices(2);
  c.AddEdge(0, 1);
  c.EnsureVertices(5);
  c.AddEdge(3, 4);
  EXPECT_TRUE(c.Connected(3, 4));
  EXPECT_FALSE(c.Connected(0, 4));
  EXPECT_EQ(c.num_vertices(), 5);
}

// Randomized insert/delete fuzz against union-find recomputation. This is
// the main correctness driver for the HDT level hierarchy (replacement
// search, edge promotion).
TEST(ConnectivityTest, FuzzAgainstRecomputation) {
  const int n = 50;
  Rng rng(555);
  HdtConnectivity c;
  c.EnsureVertices(n);
  std::set<std::pair<int, int>> edges;

  auto oracle = [&]() {
    UnionFind uf(n);
    for (const auto& [a, b] : edges) uf.Union(a, b);
    return uf;
  };

  for (int step = 0; step < 4000; ++step) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    const auto e = std::minmax(u, v);
    const std::pair<int, int> key{e.first, e.second};
    // Dense phases early, sparse phases late, to exercise both split-heavy
    // and merge-heavy regimes.
    const double p_insert = step < 2000 ? 0.65 : 0.35;
    if (edges.count(key) == 0 && rng.NextBernoulli(p_insert)) {
      c.AddEdge(u, v);
      edges.insert(key);
    } else if (edges.count(key) == 1) {
      c.RemoveEdge(u, v);
      edges.erase(key);
    }

    if (step % 40 == 0) {
      UnionFind uf = oracle();
      for (int probe = 0; probe < 40; ++probe) {
        const int a = static_cast<int>(rng.NextBelow(n));
        const int b = static_cast<int>(rng.NextBelow(n));
        ASSERT_EQ(c.Connected(a, b), uf.Connected(a, b))
            << "step " << step << " pair (" << a << "," << b << ")";
        ASSERT_EQ(c.ComponentId(a) == c.ComponentId(b), uf.Connected(a, b));
      }
    }
  }
}

TEST(HdtTest, LevelsStayLogarithmic) {
  const int n = 128;
  Rng rng(9);
  HdtConnectivity c;
  c.EnsureVertices(n);
  std::set<std::pair<int, int>> edges;
  for (int step = 0; step < 20000; ++step) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    const auto e = std::minmax(u, v);
    const std::pair<int, int> key{e.first, e.second};
    if (edges.count(key) == 0 && rng.NextBernoulli(0.5)) {
      c.AddEdge(u, v);
      edges.insert(key);
    } else if (edges.count(key) == 1) {
      c.RemoveEdge(u, v);
      edges.erase(key);
    }
  }
  // The HDT invariant bounds levels by log2(n) = 7.
  EXPECT_LE(c.max_level(), 8);
  EXPECT_EQ(c.num_edges(), static_cast<int64_t>(edges.size()));
}

}  // namespace
}  // namespace ddc
