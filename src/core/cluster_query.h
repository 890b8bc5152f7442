#ifndef DDC_CORE_CLUSTER_QUERY_H_
#define DDC_CORE_CLUSTER_QUERY_H_

#include <cstdint>

#include "common/flat_hash.h"
#include "core/clusterer.h"

namespace ddc {

/// Dedup set for the cluster labels of one query point. A non-core point
/// belongs to at most one cluster per ε-close core cell, and in practice to
/// one or two, so a fixed inline buffer with linear probing covers the hot
/// path without touching the heap; the rare point adjacent to more distinct
/// clusters spills into a FlatHashSet. The query that fills it is
/// GridSnapshot::ForEachMembershipLabel (core/cluster_snapshot.h).
class MembershipLabelSet {
 public:
  /// Records `label`; true when it was not seen before.
  bool Insert(uint64_t label) {
    if (count_ <= kInlineCapacity) {
      for (int i = 0; i < count_; ++i) {
        if (inline_[i] == label) return false;
      }
      if (count_ < kInlineCapacity) {
        inline_[count_++] = label;
        return true;
      }
      // Inline buffer full: migrate to the spill set.
      for (int i = 0; i < kInlineCapacity; ++i) spill_.Insert(inline_[i]);
      ++count_;
    }
    return spill_.Insert(label);
  }

 private:
  static constexpr int kInlineCapacity = 12;
  int count_ = 0;
  uint64_t inline_[kInlineCapacity];
  FlatHashSet<uint64_t> spill_;
};

}  // namespace ddc

#endif  // DDC_CORE_CLUSTER_QUERY_H_
