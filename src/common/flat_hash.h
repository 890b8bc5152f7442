#ifndef DDC_COMMON_FLAT_HASH_H_
#define DDC_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ddc {

/// Header-only open-addressing hash containers for the hot paths.
///
/// Every table the update loop touches per operation (cell index,
/// grid-graph edges, HDT adjacency) was a node-based
/// std::unordered_map: one allocation per entry, a pointer chase per probe,
/// and a modulo per lookup. FlatHashMap/FlatHashSet store entries inline in
/// a single power-of-two array:
///
///   * linear probing — one cache line covers several probes;
///   * tombstone-free backward-shift erase — lookups never scan dead slots,
///     so probe sequences stay short under churn;
///   * the 64-bit hash is stored per slot — rehash never re-hashes keys, and
///     probes compare hashes before touching keys;
///   * heterogeneous lookup by precomputed hash (`FindHashed` & co.) — a
///     caller that already mixed the key (e.g. the grid, which threads one
///     CellKey hash through an entire operation) never pays for it twice.
///
/// Growth doubles the array at 7/8 load. References and iterators are
/// invalidated by any insert or erase (vector semantics, not node
/// semantics); none of the migrated call sites hold references across
/// mutations. Keys are exposed as const through iteration.
namespace flat_hash_internal {

inline uint64_t Mix64(uint64_t z) {
  // splitmix64 finalizer: full-avalanche mixing so that power-of-two masking
  // of the *low* bits is safe for any key distribution.
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Default hasher: integral keys get splitmix64 (std::hash is the identity
/// on libstdc++, which clusters catastrophically under linear probing);
/// everything else defers to the user-provided or std hasher.
template <typename K, typename Hash, typename = void>
struct DispatchHash {
  uint64_t operator()(const K& key) const {
    return static_cast<uint64_t>(Hash{}(key));
  }
};

template <typename K, typename Hash>
struct DispatchHash<K, Hash,
                    std::enable_if_t<std::is_integral_v<K> &&
                                     std::is_same_v<Hash, std::hash<K>>>> {
  uint64_t operator()(const K& key) const {
    return Mix64(static_cast<uint64_t>(key));
  }
};

/// One slot: the stored entry plus its cached hash. `used` makes the empty /
/// full distinction explicit (no reserved hash values).
template <typename Entry>
struct Slot {
  Entry entry;
  uint64_t hash = 0;
  bool used = false;
};

/// Shared open-addressing core. `Entry` is the stored value (K for sets,
/// std::pair<K, V> for maps); `GetKey` projects the key out of an entry.
template <typename Entry, typename Key, typename GetKey, typename HashFn>
class Table {
 public:
  Table() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void Clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Ensures `n` entries fit without growth.
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap - cap / 8 < n) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  uint64_t HashOf(const Key& key) const { return HashFn{}(key); }

  /// Index of the slot holding `key`, or npos. `h` must equal HashOf(key).
  size_t FindSlot(uint64_t h, const Key& key) const {
    if (slots_.empty()) return npos;
    size_t i = h & mask_;
    while (slots_[i].used) {
      if (slots_[i].hash == h && GetKey{}(slots_[i].entry) == key) return i;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  /// Finds or default-creates the slot for `key`; `*inserted` reports which.
  template <typename MakeEntry>
  size_t FindOrInsertSlot(uint64_t h, const Key& key, MakeEntry&& make,
                          bool* inserted) {
    if (slots_.empty()) Rehash(kMinCapacity);
    size_t i = h & mask_;
    while (slots_[i].used) {
      if (slots_[i].hash == h && GetKey{}(slots_[i].entry) == key) {
        if (inserted != nullptr) *inserted = false;
        return i;
      }
      i = (i + 1) & mask_;
    }
    if (size_ + 1 > slots_.size() - slots_.size() / 8) {
      Rehash(slots_.size() * 2);
      i = h & mask_;
      while (slots_[i].used) i = (i + 1) & mask_;
    }
    slots_[i].entry = make();
    slots_[i].hash = h;
    slots_[i].used = true;
    ++size_;
    if (inserted != nullptr) *inserted = true;
    return i;
  }

  /// Backward-shift erase: the probe chain after the hole is compacted so
  /// that no tombstone is ever left behind.
  bool EraseSlot(uint64_t h, const Key& key) {
    size_t i = FindSlot(h, key);
    if (i == npos) return false;
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) break;
      const size_t home = slots_[j].hash & mask_;
      // Entry at j may fill the hole iff its probe path passes through it:
      // cyclic distance home->hole must not exceed home->j.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].entry = std::move(slots_[j].entry);
        slots_[hole].hash = slots_[j].hash;
        hole = j;
      }
    }
    slots_[hole].entry = Entry();
    slots_[hole].used = false;
    --size_;
    return true;
  }

  /// First used slot at or after `i` (== capacity when none); the iteration
  /// primitive.
  size_t NextUsed(size_t i) const {
    while (i < slots_.size() && !slots_[i].used) ++i;
    return i;
  }

  Entry& entry(size_t i) { return slots_[i].entry; }
  const Entry& entry(size_t i) const { return slots_[i].entry; }

  static constexpr size_t npos = static_cast<size_t>(-1);

 private:
  static constexpr size_t kMinCapacity = 8;

  void Rehash(size_t new_cap) {
    std::vector<Slot<Entry>> old = std::move(slots_);
    slots_.assign(new_cap, Slot<Entry>{});
    mask_ = new_cap - 1;
    for (Slot<Entry>& s : old) {
      if (!s.used) continue;
      size_t i = s.hash & mask_;
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i].entry = std::move(s.entry);
      slots_[i].hash = s.hash;
      slots_[i].used = true;
    }
  }

  std::vector<Slot<Entry>> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

template <typename Table, typename Entry>
class Iterator {
 public:
  Iterator(const Table* table, size_t i) : table_(table), i_(i) {}

  const Entry& operator*() const { return table_->entry(i_); }
  const Entry* operator->() const { return &table_->entry(i_); }

  Iterator& operator++() {
    i_ = table_->NextUsed(i_ + 1);
    return *this;
  }

  friend bool operator==(const Iterator& a, const Iterator& b) {
    return a.i_ == b.i_;
  }
  friend bool operator!=(const Iterator& a, const Iterator& b) {
    return a.i_ != b.i_;
  }

 private:
  const Table* table_;
  size_t i_;
};

}  // namespace flat_hash_internal

/// Open-addressing hash map. See the file comment for the contract; the
/// *Hashed entry points take a caller-precomputed `HashOf(key)` value.
template <typename K, typename V, typename Hash = std::hash<K>>
class FlatHashMap {
  using HashFn = flat_hash_internal::DispatchHash<K, Hash>;
  struct GetKey {
    const K& operator()(const std::pair<K, V>& e) const { return e.first; }
  };
  using Table =
      flat_hash_internal::Table<std::pair<K, V>, K, GetKey, HashFn>;

 public:
  using value_type = std::pair<K, V>;
  using const_iterator = flat_hash_internal::Iterator<Table, value_type>;

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  void Clear() { table_.Clear(); }
  void Reserve(size_t n) { table_.Reserve(n); }

  uint64_t HashOf(const K& key) const { return table_.HashOf(key); }

  V* Find(const K& key) { return FindHashed(HashOf(key), key); }
  const V* Find(const K& key) const { return FindHashed(HashOf(key), key); }

  V* FindHashed(uint64_t h, const K& key) {
    const size_t i = table_.FindSlot(h, key);
    return i == Table::npos ? nullptr : &table_.entry(i).second;
  }
  const V* FindHashed(uint64_t h, const K& key) const {
    const size_t i = table_.FindSlot(h, key);
    return i == Table::npos ? nullptr : &table_.entry(i).second;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  V& operator[](const K& key) { return *EmplaceHashed(HashOf(key), key).first; }

  /// Inserts `value` under `key` unless present; returns {slot value
  /// pointer, inserted}. Like std::unordered_map::emplace, an existing entry
  /// is left untouched.
  template <typename... Args>
  std::pair<V*, bool> Emplace(const K& key, Args&&... args) {
    return EmplaceHashed(HashOf(key), key, std::forward<Args>(args)...);
  }

  template <typename... Args>
  std::pair<V*, bool> EmplaceHashed(uint64_t h, const K& key, Args&&... args) {
    bool inserted = false;
    const size_t i = table_.FindOrInsertSlot(
        h, key,
        [&] { return value_type(key, V(std::forward<Args>(args)...)); },
        &inserted);
    return {&table_.entry(i).second, inserted};
  }

  bool Erase(const K& key) { return EraseHashed(HashOf(key), key); }
  bool EraseHashed(uint64_t h, const K& key) {
    return table_.EraseSlot(h, key);
  }

  /// `fn(const K&, V&)` (or `(const K&, const V&)`) for every entry, in
  /// unspecified order. The table must not be mutated from inside.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = table_.NextUsed(0); i < table_.capacity();
         i = table_.NextUsed(i + 1)) {
      fn(static_cast<const K&>(table_.entry(i).first), table_.entry(i).second);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = table_.NextUsed(0); i < table_.capacity();
         i = table_.NextUsed(i + 1)) {
      fn(static_cast<const K&>(table_.entry(i).first), table_.entry(i).second);
    }
  }

  const_iterator begin() const {
    return const_iterator(&table_, table_.NextUsed(0));
  }
  const_iterator end() const {
    return const_iterator(&table_, table_.capacity());
  }

 private:
  Table table_;
};

/// Open-addressing hash set; same contract as FlatHashMap.
template <typename K, typename Hash = std::hash<K>>
class FlatHashSet {
  using HashFn = flat_hash_internal::DispatchHash<K, Hash>;
  struct GetKey {
    const K& operator()(const K& e) const { return e; }
  };
  using Table = flat_hash_internal::Table<K, K, GetKey, HashFn>;

 public:
  using value_type = K;
  using const_iterator = flat_hash_internal::Iterator<Table, K>;

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  void Clear() { table_.Clear(); }
  void Reserve(size_t n) { table_.Reserve(n); }

  uint64_t HashOf(const K& key) const { return table_.HashOf(key); }

  bool Contains(const K& key) const { return ContainsHashed(HashOf(key), key); }
  bool ContainsHashed(uint64_t h, const K& key) const {
    return table_.FindSlot(h, key) != Table::npos;
  }

  /// Returns true when the key was newly inserted.
  bool Insert(const K& key) { return InsertHashed(HashOf(key), key); }
  bool InsertHashed(uint64_t h, const K& key) {
    bool inserted = false;
    table_.FindOrInsertSlot(h, key, [&] { return key; }, &inserted);
    return inserted;
  }

  bool Erase(const K& key) { return EraseHashed(HashOf(key), key); }
  bool EraseHashed(uint64_t h, const K& key) {
    return table_.EraseSlot(h, key);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = table_.NextUsed(0); i < table_.capacity();
         i = table_.NextUsed(i + 1)) {
      fn(table_.entry(i));
    }
  }

  const_iterator begin() const {
    return const_iterator(&table_, table_.NextUsed(0));
  }
  const_iterator end() const {
    return const_iterator(&table_, table_.capacity());
  }

 private:
  Table table_;
};

}  // namespace ddc

#endif  // DDC_COMMON_FLAT_HASH_H_
