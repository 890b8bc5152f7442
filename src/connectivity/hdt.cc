#include "connectivity/hdt.h"

#include "common/check.h"
#include "telemetry/metrics.h"

namespace ddc {

HdtConnectivity::HdtConnectivity() {
  forests_.push_back(std::make_unique<EulerTourForest>());
  nontree_.emplace_back();
}

uint64_t HdtConnectivity::Key(int u, int v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
}

EulerTourForest& HdtConnectivity::Forest(int level) {
  while (static_cast<int>(forests_.size()) <= level) {
    forests_.push_back(std::make_unique<EulerTourForest>());
    nontree_.emplace_back();
  }
  EulerTourForest& f = *forests_[level];
  f.EnsureVertices(n_);
  return f;
}

FlatHashSet<int>& HdtConnectivity::NontreeSet(int level, int v) {
  return nontree_[level][v];
}

void HdtConnectivity::EnsureVertices(int n) {
  if (n > n_) {
    n_ = n;
    forests_[0]->EnsureVertices(n_);
  }
}

void HdtConnectivity::AddNontree(int level, int u, int v) {
  EulerTourForest& f = Forest(level);
  // NB: the second NontreeSet call may grow the level's adjacency table and
  // invalidate the first reference, so each side is finished before the next
  // lookup.
  auto& su = NontreeSet(level, u);
  const bool u_was_empty = su.empty();
  su.Insert(v);
  if (u_was_empty) f.SetVertexFlag(u, true);
  auto& sv = NontreeSet(level, v);
  const bool v_was_empty = sv.empty();
  sv.Insert(u);
  if (v_was_empty) f.SetVertexFlag(v, true);
}

void HdtConnectivity::RemoveNontree(int level, int u, int v) {
  EulerTourForest& f = Forest(level);
  auto& su = NontreeSet(level, u);
  DDC_CHECK(su.Erase(v));
  if (su.empty()) f.SetVertexFlag(u, false);
  auto& sv = NontreeSet(level, v);
  DDC_CHECK(sv.Erase(u));
  if (sv.empty()) f.SetVertexFlag(v, false);
}

void HdtConnectivity::LinkTree(int u, int v, int level, EdgeInfo* info) {
  info->tree = true;
  info->level = level;
  info->arcs.clear();
  info->arcs.reserve(level + 1);
  for (int i = 0; i <= level; ++i) {
    info->arcs.push_back(Forest(i).Link(u, v));
  }
  Forest(level).SetArcFlag(info->arcs[level].uv, true);
}

void HdtConnectivity::AddEdge(int u, int v) {
  DDC_CHECK(u != v && u >= 0 && v >= 0 && u < n_ && v < n_);
  const uint64_t key = Key(u, v);
  DDC_CHECK(!edges_.Contains(key));
  EdgeInfo info;
  if (!forests_[0]->Connected(u, v)) {
    LinkTree(u, v, /*level=*/0, &info);
  } else {
    info.tree = false;
    info.level = 0;
    AddNontree(0, u, v);
  }
  edges_.Emplace(key, std::move(info));
}

void HdtConnectivity::RemoveEdge(int u, int v) {
  const uint64_t key = Key(u, v);
  EdgeInfo* stored = edges_.Find(key);
  DDC_CHECK(stored != nullptr);
  const EdgeInfo info = std::move(*stored);
  edges_.Erase(key);

  if (!info.tree) {
    RemoveNontree(info.level, u, v);
    return;
  }
  // Cut the tree edge out of every forest it participates in, top-down so
  // lower forests stay super-sets of higher ones throughout.
  for (int i = info.level; i >= 0; --i) {
    Forest(i).Cut(info.arcs[i]);
  }
  SearchReplacement(u, v, info.level);
}

void HdtConnectivity::SearchReplacement(int u, int v, int level) {
  DDC_COUNTER_INC("hdt.replacement_searches");
  int64_t edges_pushed = 0;
  for (int i = level; i >= 0; --i) {
    EulerTourForest& f = Forest(i);
    // Work on the smaller side; call it the u-side.
    int su = u, sv = v;
    if (f.TreeSize(su) > f.TreeSize(sv)) std::swap(su, sv);

    // 1. Push all level-i tree edges of the small tree to level i+1 — its
    // size is at most half the pre-cut tree, preserving the invariant.
    for (EttNode* arc = f.FindFlaggedArc(su); arc != nullptr;
         arc = f.FindFlaggedArc(su)) {
      const int a = arc->u;
      const int b = arc->v;
      EdgeInfo* found = edges_.Find(Key(a, b));
      DDC_CHECK(found != nullptr);
      EdgeInfo& e = *found;
      DDC_CHECK(e.tree && e.level == i);
      f.SetArcFlag(arc, false);
      e.level = i + 1;
      e.arcs.push_back(Forest(i + 1).Link(a, b));
      Forest(i + 1).SetArcFlag(e.arcs[i + 1].uv, true);
      ++edges_pushed;
    }

    // 2. Scan non-tree level-i edges incident to the small tree: a neighbor
    // on the v-side is a replacement; an internal edge is pushed up.
    for (int x = f.FindFlaggedVertex(su); x != -1;
         x = f.FindFlaggedVertex(su)) {
      auto& set = NontreeSet(i, x);
      DDC_CHECK(!set.empty());
      const int y = *set.begin();
      RemoveNontree(i, x, y);
      if (f.Connected(y, sv)) {
        // Replacement found: it becomes a tree edge at level i, restoring
        // connectivity in forests [0, i] (levels above i stay split — their
        // components legitimately shrank).
        EdgeInfo* replacement = edges_.Find(Key(x, y));
        DDC_CHECK(replacement != nullptr);
        DDC_CHECK(!replacement->tree && replacement->level == i);
        LinkTree(x, y, i, replacement);
        DDC_COUNTER_INC("hdt.replacements_found");
        DDC_COUNTER_ADD("hdt.edges_pushed", edges_pushed);
        return;
      }
      // Both endpoints inside the small tree: push to level i+1.
      EdgeInfo* pushed = edges_.Find(Key(x, y));
      DDC_CHECK(pushed != nullptr);
      pushed->level = i + 1;
      Forest(i + 1);  // Materialize before AddNontree touches its sets.
      AddNontree(i + 1, x, y);
      ++edges_pushed;
    }
  }
  // No replacement at any level: the component stays split.
  DDC_COUNTER_ADD("hdt.edges_pushed", edges_pushed);
}

bool HdtConnectivity::Connected(int u, int v) {
  DDC_CHECK(u >= 0 && v >= 0 && u < n_ && v < n_);
  return forests_[0]->Connected(u, v);
}

uint64_t HdtConnectivity::ComponentId(int v) const {
  DDC_CHECK(v >= 0 && v < n_);
  const EttNode* head = forests_[0]->Representative(v);
  if (head != nullptr) return reinterpret_cast<uint64_t>(head);
  // Never-touched singleton: synthesize an odd label — EttNode pointers are
  // aligned, so the two label families can't collide, and the value agrees
  // with itself across lookups until an edge first touches v.
  return (static_cast<uint64_t>(static_cast<uint32_t>(v)) << 1) | 1;
}

}  // namespace ddc
