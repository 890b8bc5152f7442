#include "common/flat_hash.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"

namespace ddc {
namespace {

TEST(FlatHashMapTest, EmptyMap) {
  FlatHashMap<int, int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(42), nullptr);
  EXPECT_FALSE(m.Contains(42));
  EXPECT_FALSE(m.Erase(42));
  EXPECT_EQ(m.begin(), m.end());
  int visits = 0;
  m.ForEach([&](int, int) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(FlatHashMapTest, InsertFindErase) {
  FlatHashMap<int, std::string> m;
  auto [v, inserted] = m.Emplace(1, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, "one");
  // Emplace on an existing key leaves the stored value untouched.
  auto [v2, inserted2] = m.Emplace(1, "uno");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, "one");
  m[2] = "two";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.Find(1), "one");
  EXPECT_EQ(*m.Find(2), "two");
  EXPECT_EQ(m.Find(3), nullptr);

  EXPECT_TRUE(m.Erase(1));
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(2), "two");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMapTest, OperatorBracketDefaultConstructs) {
  FlatHashMap<int, int> m;
  EXPECT_EQ(m[7], 0);
  m[7] += 5;
  EXPECT_EQ(m[7], 5);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMapTest, GrowthRehashPreservesEntries) {
  FlatHashMap<int, int> m;
  const int n = 10000;
  for (int i = 0; i < n; ++i) m[i] = i * i;
  EXPECT_EQ(m.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ASSERT_NE(m.Find(i), nullptr) << i;
    EXPECT_EQ(*m.Find(i), i * i);
  }
  EXPECT_EQ(m.Find(n), nullptr);
}

TEST(FlatHashMapTest, ReserveAvoidsGrowth) {
  FlatHashMap<int, int> m;
  m.Reserve(1000);
  const size_t cap = m.capacity();
  EXPECT_GE(cap, 1000u);
  for (int i = 0; i < 1000; ++i) m[i] = i;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatHashMapTest, ClearResets) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Find(5), nullptr);
  m[5] = 50;
  EXPECT_EQ(*m.Find(5), 50);
}

/// All keys land on the same home slot: probing, erase and lookup must
/// handle maximal clustering (and, with home slot == capacity - 1, the
/// wraparound of every probe chain across the end of the table).
struct CollidingHash {
  size_t operator()(int) const { return static_cast<size_t>(-1); }
};

TEST(FlatHashMapTest, CollisionChainsAndWraparound) {
  FlatHashMap<int, int, CollidingHash> m;
  for (int i = 0; i < 20; ++i) m[i] = 100 + i;
  EXPECT_EQ(m.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(*m.Find(i), 100 + i);
  EXPECT_EQ(m.Find(99), nullptr);

  // Erase from the middle of the chain; the backward shift must keep every
  // remaining key reachable.
  for (int i = 0; i < 20; i += 2) EXPECT_TRUE(m.Erase(i));
  EXPECT_EQ(m.size(), 10u);
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(m.Find(i), nullptr) << i;
    } else {
      ASSERT_NE(m.Find(i), nullptr) << i;
      EXPECT_EQ(*m.Find(i), 100 + i);
    }
  }
  // Head-of-chain and tail-of-chain erases.
  EXPECT_TRUE(m.Erase(1));
  EXPECT_TRUE(m.Erase(19));
  for (int i = 3; i < 19; i += 2) EXPECT_EQ(*m.Find(i), 100 + i);
}

TEST(FlatHashMapTest, EraseDuringGrowthChurn) {
  // Interleaves erases with the inserts that trigger growth, so rehashes
  // run on tables whose chains have been compacted by backward shifts.
  FlatHashMap<int, int> m;
  std::unordered_map<int, int> ref;
  for (int i = 0; i < 5000; ++i) {
    m[i] = i;
    ref[i] = i;
    if (i % 3 == 0) {
      const int victim = i / 2;
      EXPECT_EQ(m.Erase(victim), ref.erase(victim) == 1) << victim;
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.Find(k), nullptr) << k;
    EXPECT_EQ(*m.Find(k), v);
  }
}

TEST(FlatHashMapTest, ForEachVisitsEveryEntryOnce) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 257; ++i) m[i] = -i;
  std::map<int, int> seen;
  m.ForEach([&](const int& k, int& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate visit of " << k;
  });
  EXPECT_EQ(seen.size(), 257u);
  for (const auto& [k, v] : seen) EXPECT_EQ(v, -k);
}

TEST(FlatHashMapTest, ForEachCanMutateValues) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 64; ++i) m[i] = i;
  m.ForEach([](const int&, int& v) { v *= 2; });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(*m.Find(i), 2 * i);
}

TEST(FlatHashMapTest, IteratorCoversAllEntries) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i + 1;
  std::map<int, int> seen;
  for (const auto& [k, v] : m) {
    EXPECT_TRUE(seen.emplace(k, v).second);
  }
  EXPECT_EQ(seen.size(), 100u);
  for (const auto& [k, v] : seen) EXPECT_EQ(v, k + 1);
}

TEST(FlatHashMapTest, HashedEntryPointsAgreeWithPlainOnes) {
  FlatHashMap<int, int> m;
  const int key = 1234;
  const uint64_t h = m.HashOf(key);
  EXPECT_TRUE(m.EmplaceHashed(h, key, 5).second);
  EXPECT_EQ(m.FindHashed(h, key), m.Find(key));
  EXPECT_EQ(*m.FindHashed(h, key), 5);
  EXPECT_TRUE(m.EraseHashed(h, key));
  EXPECT_EQ(m.Find(key), nullptr);
}

TEST(FlatHashMapTest, MoveOnlyishValuesSurviveRehash) {
  // Vector values exercise the move path of growth and backward shift.
  FlatHashMap<int, std::vector<int>> m;
  for (int i = 0; i < 1000; ++i) m[i] = std::vector<int>(3, i);
  for (int i = 0; i < 1000; i += 2) m.Erase(i);
  for (int i = 1; i < 1000; i += 2) {
    ASSERT_NE(m.Find(i), nullptr);
    EXPECT_EQ((*m.Find(i))[0], i);
    EXPECT_EQ(m.Find(i)->size(), 3u);
  }
}

TEST(FlatHashSetTest, InsertContainsErase) {
  FlatHashSet<int64_t> s;
  EXPECT_TRUE(s.Insert(10));
  EXPECT_FALSE(s.Insert(10));
  EXPECT_TRUE(s.Insert(20));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(10));
  EXPECT_FALSE(s.Contains(30));
  EXPECT_TRUE(s.Erase(10));
  EXPECT_FALSE(s.Erase(10));
  EXPECT_FALSE(s.Contains(10));
  EXPECT_TRUE(s.Contains(20));
}

TEST(FlatHashSetTest, IterationAndForEach) {
  FlatHashSet<int> s;
  for (int i = 0; i < 500; ++i) s.Insert(i * 3);
  std::unordered_set<int> via_foreach;
  s.ForEach([&](const int& k) { EXPECT_TRUE(via_foreach.insert(k).second); });
  std::unordered_set<int> via_iter(s.begin(), s.end());
  EXPECT_EQ(via_foreach.size(), 500u);
  EXPECT_EQ(via_foreach, via_iter);
}

TEST(FlatHashSetTest, WraparoundProbes) {
  FlatHashSet<int, CollidingHash> s;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.Insert(i));
  for (int i = 9; i >= 0; --i) EXPECT_TRUE(s.Contains(i));
  EXPECT_TRUE(s.Erase(0));  // Head of the wrapped chain.
  for (int i = 1; i < 10; ++i) EXPECT_TRUE(s.Contains(i));
}

TEST(FlatHashDifferentialTest, RandomOpsMatchStdUnorderedMap) {
  // Randomized differential run: every operation's result and, at regular
  // intervals, the full table contents must match std::unordered_map.
  Rng rng(20240727);
  FlatHashMap<uint32_t, int> flat;
  std::unordered_map<uint32_t, int> ref;
  for (int step = 0; step < 200000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(2048));
    switch (rng.NextBelow(4)) {
      case 0: {  // Insert-if-absent.
        const auto [it, ref_inserted] = ref.emplace(key, step);
        const auto [v, flat_inserted] = flat.Emplace(key, step);
        ASSERT_EQ(flat_inserted, ref_inserted);
        ASSERT_EQ(*v, it->second);
        break;
      }
      case 1: {  // Overwrite.
        ref[key] = step;
        flat[key] = step;
        break;
      }
      case 2: {  // Erase.
        ASSERT_EQ(flat.Erase(key), ref.erase(key) == 1);
        break;
      }
      case 3: {  // Lookup.
        const auto it = ref.find(key);
        int* v = flat.Find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
    if (step % 20000 == 0) {
      std::unordered_map<uint32_t, int> snapshot;
      flat.ForEach([&](const uint32_t& k, const int& v) {
        ASSERT_TRUE(snapshot.emplace(k, v).second);
      });
      ASSERT_EQ(snapshot.size(), ref.size());
      for (const auto& [k, v] : ref) {
        const auto it = snapshot.find(k);
        ASSERT_NE(it, snapshot.end()) << k;
        ASSERT_EQ(it->second, v);
      }
    }
  }
}

TEST(FlatHashDifferentialTest, SetMatchesStdUnorderedSet) {
  Rng rng(7);
  FlatHashSet<int> flat;
  std::unordered_set<int> ref;
  for (int step = 0; step < 100000; ++step) {
    const int key = static_cast<int>(rng.NextBelow(1024));
    switch (rng.NextBelow(3)) {
      case 0:
        ASSERT_EQ(flat.Insert(key), ref.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(flat.Erase(key), ref.erase(key) == 1);
        break;
      case 2:
        ASSERT_EQ(flat.Contains(key), ref.count(key) == 1);
        break;
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
}

}  // namespace
}  // namespace ddc
