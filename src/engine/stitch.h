#ifndef DDC_ENGINE_STITCH_H_
#define DDC_ENGINE_STITCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "unionfind/union_find.h"

namespace ddc {

/// Identity of a cluster in the sharded engine. Shard-local component
/// labels that participate in cross-shard stitching are canonicalized to a
/// stitched root (shard == kStitchedShard); labels untouched by the stitch
/// keep their (shard, local cc) identity. Two labels compare equal iff they
/// name the same global cluster at the epoch they were resolved in.
struct ClusterLabel {
  static constexpr int32_t kStitchedShard = -1;

  /// kStitchedShard for stitched roots, else the owning shard of a purely
  /// shard-local component.
  int32_t shard = kStitchedShard;
  uint64_t id = 0;

  friend bool operator==(const ClusterLabel& a, const ClusterLabel& b) {
    return a.shard == b.shard && a.id == b.id;
  }
  friend bool operator!=(const ClusterLabel& a, const ClusterLabel& b) {
    return !(a == b);
  }
  friend bool operator<(const ClusterLabel& a, const ClusterLabel& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.id < b.id;
  }
};

/// Cross-shard cluster stitching (the engine's GUM complement): one epoch's
/// union-find over shard-local component labels, frozen. The sharded
/// engine fills a Builder from the epoch's frozen shard snapshots alone
/// (ShardedClusterer::RebuildLabels) and publishes the table it finishes.
/// Immutable once built and shared by reference with published snapshots,
/// so readers resolve labels of *their* epoch no matter how many rebuilds
/// happen afterwards.
class LabelTable {
 public:
  /// A shard-local component label: `cc` as frozen in shard `shard`'s
  /// snapshot of the table's epoch.
  struct Key {
    int32_t shard = 0;
    uint64_t cc = 0;

    friend bool operator==(const Key& a, const Key& b) {
      return a.shard == b.shard && a.cc == b.cc;
    }
  };

  /// Collects one epoch's unions and freezes them into that epoch's table.
  class Builder {
   public:
    Builder() : table_(std::make_shared<LabelTable>()) {}

    /// Identifies the clusters of labels `a` and `b`.
    void Union(const Key& a, const Key& b);

    /// Freezes the unions into a new table; the builder is spent.
    std::shared_ptr<const LabelTable> Finish() &&;

   private:
    int32_t Intern(const Key& key);

    std::shared_ptr<LabelTable> table_;
    UnionFind uf_;
  };

  /// Canonical label for shard-local component `cc` of `shard`: a stitched
  /// root when some union touched it, else the (shard, cc) identity itself.
  /// Thread-safe (pure lookup).
  ClusterLabel Resolve(int32_t shard, uint64_t cc) const {
    const int32_t* idx = index_.Find(Key{shard, cc});
    if (idx == nullptr) return ClusterLabel{shard, cc};
    return ClusterLabel{ClusterLabel::kStitchedShard,
                        static_cast<uint64_t>(root_[*idx])};
  }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix-style mix of both fields; shard in the high bits.
      uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(k.shard))
                    << 32) ^
                   (k.cc * 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  };

  /// Key -> union-find index, and the resolved root per index.
  FlatHashMap<Key, int32_t, KeyHash> index_;
  std::vector<int32_t> root_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_STITCH_H_
