#include "core/incremental_dbscan.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/flat_hash.h"

namespace ddc {

IncrementalDbscan::IncrementalDbscan(const DbscanParams& params)
    : params_(params), grid_(params.dim, params.eps) {
  params_.Validate();
  DDC_CHECK(params_.rho == 0 && "IncDBSCAN maintains exact DBSCAN clusters");
}

std::vector<PointId> IncrementalDbscan::RangeQuery(const Point& center) {
  ++range_queries_;
  std::vector<PointId> out;
  grid_.ForEachPointInRange(center, params_.eps,
                            [&](PointId p) { out.push_back(p); });
  return out;
}

int IncrementalDbscan::ClusterOf(PointId p) {
  DDC_DCHECK(is_core(p));
  return merge_history_.Find(cluster_id_[p]);
}

void IncrementalDbscan::LabelNewCore(PointId p,
                                     const std::vector<PointId>& neighbors) {
  int label = -1;
  for (const PointId r : neighbors) {
    if (r == p || !is_core(r) || cluster_id_[r] < 0) continue;
    const int other = ClusterOf(r);
    if (label < 0) {
      label = other;
    } else if (label != other) {
      merge_history_.Union(label, other);  // Merge, never relabel.
      label = merge_history_.Find(label);
    }
  }
  if (label < 0) {
    // A brand-new cluster is born.
    label = merge_history_.size();
    merge_history_.EnsureSize(label + 1);
  }
  cluster_id_[p] = label;
}

PointId IncrementalDbscan::Insert(const Point& p) {
  const Grid::InsertResult ins = grid_.Insert(p);
  neighbor_count_.push_back(0);
  cluster_id_.push_back(-1);
  snapshot_cache_.MarkPoint(ins.id);

  // Seed retrieval: one range query, exactly as in [8].
  const std::vector<PointId> seeds = RangeQuery(p);
  neighbor_count_[ins.id] = static_cast<int32_t>(seeds.size());

  // Bump neighbor counts; collect points that just became core.
  std::vector<PointId> new_cores;
  for (const PointId q : seeds) {
    if (q == ins.id) continue;
    if (++neighbor_count_[q] == params_.min_pts) new_cores.push_back(q);
  }
  if (is_core(ins.id)) new_cores.push_back(ins.id);

  // New core-graph edges are all incident to a new core point: label each
  // new core and merge with every surrounding core's cluster. Each new core
  // costs one more range query (IncDBSCAN's UpdSeed retrieval).
  for (const PointId q : new_cores) {
    snapshot_cache_.MarkCoreChange(q, grid_.cell_of(q));
    const std::vector<PointId> around =
        (q == ins.id) ? seeds : RangeQuery(grid_.point(q));
    LabelNewCore(q, around);
  }
  snapshot_cache_.BumpVersion();
  return ins.id;
}

void IncrementalDbscan::Delete(PointId id) {
  DDC_CHECK(grid_.alive(id));
  // Seed retrieval (includes the departing point itself).
  const std::vector<PointId> seeds = RangeQuery(grid_.point(id));

  // Decrement counts; demoted cores keep their stale cluster_id_ for a
  // moment — that is how they are recognized below.
  for (const PointId q : seeds) {
    if (q != id && --neighbor_count_[q] == params_.min_pts - 1) {
      snapshot_cache_.MarkCoreChange(q, grid_.cell_of(q));
    }
  }
  if (is_core(id)) {
    snapshot_cache_.MarkCoreChange(id, grid_.cell_of(id));
  } else {
    snapshot_cache_.MarkPoint(id);
  }
  grid_.Delete(id);
  neighbor_count_[id] = 0;
  cluster_id_[id] = -1;

  // Every core-graph edge that disappeared is incident to the deleted point
  // or to a demoted core. The surviving cores adjacent to those points seed
  // the split check; any split component must contain one of them.
  std::unordered_map<int, std::vector<PointId>> seeds_by_cluster;
  FlatHashSet<PointId> dedupe;
  auto add_seed = [&](PointId r) {
    if (!is_core(r)) return;
    if (!dedupe.Insert(r)) return;
    seeds_by_cluster[ClusterOf(r)].push_back(r);
  };
  for (const PointId q : seeds) {
    if (q == id) continue;
    if (is_core(q)) {
      add_seed(q);
    } else if (cluster_id_[q] >= 0) {
      // A demoted core: its former core neighbors are boundary seeds.
      for (const PointId r : RangeQuery(grid_.point(q))) add_seed(r);
      cluster_id_[q] = -1;  // Border/noise now; resolved at query time.
    }
  }

  for (auto& [cluster, cluster_seeds] : seeds_by_cluster) {
    if (cluster_seeds.size() >= 2) CheckSplit(cluster_seeds);
  }
  snapshot_cache_.BumpVersion();
}

void IncrementalDbscan::CheckSplit(const std::vector<PointId>& seeds) {
  // Alternating multi-source BFS over the core graph, one range query per
  // expansion. Threads that touch merge; a thread whose frontier drains has
  // swept a whole component and relabels it; when one thread remains, no
  // further split is possible and we stop — exactly the procedure of [8].
  const int k = static_cast<int>(seeds.size());
  std::vector<std::deque<PointId>> frontier(k);
  std::vector<std::vector<PointId>> visited_list(k);
  FlatHashMap<PointId, int> owner;
  UnionFind threads(k);
  std::vector<bool> finished(k, false);

  for (int t = 0; t < k; ++t) {
    frontier[t].push_back(seeds[t]);
    visited_list[t].push_back(seeds[t]);
    owner[seeds[t]] = t;
  }

  auto active_roots = [&]() {
    std::unordered_set<int> roots;
    for (int t = 0; t < k; ++t) {
      const int r = threads.Find(t);
      if (!finished[r]) roots.insert(r);
    }
    return roots;
  };

  for (;;) {
    std::unordered_set<int> roots = active_roots();
    if (roots.size() <= 1) break;  // No (further) split detectable.
    for (const int t : roots) {
      if (threads.Find(t) != t || finished[t]) continue;  // Merged meanwhile.
      if (frontier[t].empty()) {
        // Component fully swept: it split off — relabel with a fresh id.
        const int fresh = merge_history_.size();
        merge_history_.EnsureSize(fresh + 1);
        for (const PointId p : visited_list[t]) {
          if (is_core(p)) cluster_id_[p] = fresh;
        }
        finished[t] = true;
        continue;
      }
      const PointId x = frontier[t].front();
      frontier[t].pop_front();
      for (const PointId r : RangeQuery(grid_.point(x))) {
        if (!is_core(r)) continue;
        const int* owning_thread = owner.Find(r);
        if (owning_thread == nullptr) {
          owner[r] = t;
          frontier[t].push_back(r);
          visited_list[t].push_back(r);
          continue;
        }
        const int other = threads.Find(*owning_thread);
        if (other != t) {
          // Threads meet: coalesce into the surviving root.
          threads.Union(t, other);
          const int root = threads.Find(t);
          const int dead = root == t ? other : t;
          frontier[root].insert(frontier[root].end(), frontier[dead].begin(),
                                frontier[dead].end());
          frontier[dead].clear();
          visited_list[root].insert(visited_list[root].end(),
                                    visited_list[dead].begin(),
                                    visited_list[dead].end());
          visited_list[dead].clear();
          if (root != t) {
            // This thread id no longer exists; hand x's remaining neighbors
            // to the surviving root by re-queuing x for expansion.
            frontier[root].push_back(x);
            break;
          }
        }
      }
    }
  }
}

std::shared_ptr<const ClusterSnapshot> IncrementalDbscan::Snapshot() {
  // The frozen view reproduces IncDBSCAN's query semantics exactly: a core
  // point reports its cluster (through the merging history); a border point
  // reports the clusters of the core points in its ε-ball. The per-cell
  // formulation is equivalent because any two core points sharing a cell
  // (side ε/√d) are within ε of each other and hence share a cluster in
  // exact DBSCAN — one label per cell covers all of its core members.
  return snapshot_cache_.GetOrBuild(
      grid_, [this](PointId p) { return is_core(p); },
      [this](CellId, PointId member) {
        DDC_DCHECK(cluster_id_[member] >= 0);
        return static_cast<uint64_t>(
            merge_history_.FindReadOnly(cluster_id_[member]));
      },
      params_);
}

std::vector<PointId> IncrementalDbscan::AlivePoints() const {
  std::vector<PointId> ids;
  ids.reserve(grid_.size());
  for (PointId i = 0; i < grid_.total_inserted(); ++i) {
    if (grid_.alive(i)) ids.push_back(i);
  }
  return ids;
}

}  // namespace ddc
