#include <gtest/gtest.h>

#include "common/random.h"
#include "unionfind/union_find.h"

namespace ddc {
namespace {

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_components(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, UnionMerges) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // Already merged.
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.num_components(), 3);
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_TRUE(uf.Union(0, 3));
  EXPECT_TRUE(uf.Connected(1, 2));
  EXPECT_EQ(uf.num_components(), 1);
}

TEST(UnionFindTest, EnsureSizeGrows) {
  UnionFind uf;
  uf.EnsureSize(2);
  uf.Union(0, 1);
  uf.EnsureSize(4);
  EXPECT_EQ(uf.num_components(), 3);
  EXPECT_FALSE(uf.Connected(1, 3));
}

// Randomized cross-check against a naive labeling.
TEST(UnionFindTest, MatchesNaiveLabels) {
  const int n = 200;
  Rng rng(123);
  UnionFind uf(n);
  std::vector<int> label(n);
  for (int i = 0; i < n; ++i) label[i] = i;

  for (int step = 0; step < 500; ++step) {
    const int a = static_cast<int>(rng.NextBelow(n));
    const int b = static_cast<int>(rng.NextBelow(n));
    uf.Union(a, b);
    const int la = label[a], lb = label[b];
    if (la != lb) {
      for (int i = 0; i < n; ++i) {
        if (label[i] == lb) label[i] = la;
      }
    }
    // The read-only find (which labels every frozen snapshot) walks the
    // paths the last unions left uncompressed and agrees with Find.
    for (int x = 0; x < n; ++x) {
      const int root = uf.FindReadOnly(x);
      EXPECT_EQ(root, uf.Find(x)) << "step " << step << " element " << x;
    }
    // Spot-check a few pairs.
    for (int probe = 0; probe < 10; ++probe) {
      const int x = static_cast<int>(rng.NextBelow(n));
      const int y = static_cast<int>(rng.NextBelow(n));
      EXPECT_EQ(uf.Connected(x, y), label[x] == label[y]);
    }
  }
}

}  // namespace
}  // namespace ddc
