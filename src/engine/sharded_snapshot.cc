#include "engine/sharded_snapshot.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace ddc {

ShardedSnapshot::RouteTable::RouteTable(const std::vector<Route>& routes,
                                        const RouteTable* prev,
                                        const SnapshotDirtySet& dirty)
    : num_ids_(static_cast<int64_t>(routes.size())) {
  const int64_t num_pages = (num_ids_ + kPageSize - 1) >> kPageBits;
  // Global ids only ever grow, so the pages from the one holding `prev`'s
  // first unborn id on are the tail, new since `prev`; every page before
  // it is shared unless a delete dirtied it.
  int64_t tail = 0;
  pages_.reserve(static_cast<size_t>(num_pages));
  if (prev != nullptr) {
    DDC_DCHECK(prev->num_ids_ <= num_ids_);
    pages_.assign(prev->pages_.begin(), prev->pages_.end());
    tail = num_ids_ > prev->num_ids_ ? prev->num_ids_ >> kPageBits
                                     : num_pages;
  }
  pages_.resize(static_cast<size_t>(num_pages));
  int64_t rebuilt = 0;
  for (int64_t pg = 0; pg < num_pages; ++pg) {
    if (pg < tail && !dirty.page(pg)) continue;
    auto page = std::make_shared<RoutePage>();
    const int64_t first = pg << kPageBits;
    std::copy_n(routes.begin() + first,
                std::min<int64_t>(kPageSize, num_ids_ - first), page->routes);
    pages_[pg] = std::move(page);
    ++rebuilt;
  }
  DDC_COUNTER_ADD("engine.route_pages_rebuilt", rebuilt);
  DDC_COUNTER_ADD("engine.route_pages_reused", num_pages - rebuilt);
}

ShardedSnapshot::ShardedSnapshot(
    uint64_t epoch, std::shared_ptr<const RouteTable> routes, int64_t alive,
    std::vector<std::shared_ptr<const GridSnapshot>> shards,
    std::shared_ptr<const LabelTable> stitch)
    : ClusterSnapshot(epoch),
      routes_(std::move(routes)),
      alive_(alive),
      shards_(std::move(shards)),
      stitch_(std::move(stitch)) {
  DDC_CHECK(routes_ != nullptr && stitch_ != nullptr);
}

void ShardedSnapshot::Labels(PointId id,
                             std::vector<ClusterLabel>* out) const {
  const Route& rec = (*routes_)[id];
  const GridSnapshot& owner = *shards_[rec.owner];
  const PointId owner_local = rec.local_in(rec.owner);

  if (owner.is_core(owner_local)) {
    // Core status is owned by the owner shard — it alone sees the point's
    // full (1+ρ)ε neighborhood — and a core point belongs to exactly one
    // cluster: its owner-side component, canonicalized through the stitch.
    out->push_back(
        stitch_->Resolve(rec.owner, owner.CoreLabelOf(owner_local)));
    return;
  }

  // Owner-non-core: union of the memberships every holding shard computes.
  // Each holder sees a (possibly truncated) neighborhood, but every true
  // attachment (core point w within ε) is realized in owner(w)'s shard,
  // which also holds this point — so the union is complete; the stitch
  // collapses the per-shard labels of one cluster into one.
  for (int t = rec.first; t <= rec.last; ++t) {
    shards_[t]->ForEachMembershipLabel(rec.local_in(t), [&](uint64_t cc) {
      out->push_back(stitch_->Resolve(t, cc));
    });
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

CGroupByResult ShardedSnapshot::Query(const std::vector<PointId>& q) const {
  CGroupByResult result;
  std::map<ClusterLabel, std::vector<PointId>> buckets;
  std::vector<ClusterLabel> labels;
  for (const PointId gid : q) {
    if (!alive(gid)) continue;
    labels.clear();
    Labels(gid, &labels);
    if (labels.empty()) {
      result.noise.push_back(gid);
      continue;
    }
    for (const ClusterLabel& label : labels) {
      buckets[label].push_back(gid);
    }
  }
  result.groups.reserve(buckets.size());
  for (auto& [label, members] : buckets) {
    result.groups.push_back(std::move(members));
  }
  return result;
}

}  // namespace ddc
