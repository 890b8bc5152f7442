#include "connectivity/euler_tour_tree.h"

#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace ddc {
namespace {

void Update(EttNode* x) {
  const bool self = x->is_self();
  x->cnt_total = 1;
  x->cnt_vertices = self ? 1 : 0;
  x->cnt_nontree = (self && x->vertex_has_nontree) ? 1 : 0;
  x->cnt_level = (!self && x->edge_is_level) ? 1 : 0;
  for (EttNode* c : {x->left, x->right}) {
    if (c == nullptr) continue;
    x->cnt_total += c->cnt_total;
    x->cnt_vertices += c->cnt_vertices;
    x->cnt_nontree += c->cnt_nontree;
    x->cnt_level += c->cnt_level;
  }
}

/// Rotates x above its parent, keeping aggregates valid.
void RotateUp(EttNode* x) {
  EttNode* p = x->parent;
  EttNode* g = p->parent;
  if (p->left == x) {
    p->left = x->right;
    if (x->right != nullptr) x->right->parent = p;
    x->right = p;
  } else {
    p->right = x->left;
    if (x->left != nullptr) x->left->parent = p;
    x->left = p;
  }
  p->parent = x;
  x->parent = g;
  if (g != nullptr) {
    if (g->left == p) {
      g->left = x;
    } else {
      g->right = x;
    }
  }
  Update(p);
  Update(x);
}

void Splay(EttNode* x) {
  while (x->parent != nullptr) {
    EttNode* p = x->parent;
    EttNode* g = p->parent;
    if (g != nullptr) {
      const bool zigzig = (g->left == p) == (p->left == x);
      RotateUp(zigzig ? p : x);
    }
    RotateUp(x);
  }
}

/// Sequence position of x (0-based), splaying x to the root.
int PositionOf(EttNode* x) {
  Splay(x);
  return x->left == nullptr ? 0 : x->left->cnt_total;
}

/// Concatenates two tours (either may be null); returns the new root.
EttNode* Concat(EttNode* a, EttNode* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  DDC_DCHECK(a->parent == nullptr && b->parent == nullptr);
  // Splay the rightmost node of a; then b hangs off its right.
  EttNode* r = a;
  while (r->right != nullptr) r = r->right;
  Splay(r);
  r->right = b;
  b->parent = r;
  Update(r);
  return r;
}

/// Detaches everything before x; returns the detached prefix (x becomes the
/// head of its tree).
EttNode* DetachPrefix(EttNode* x) {
  Splay(x);
  EttNode* prefix = x->left;
  if (prefix != nullptr) {
    prefix->parent = nullptr;
    x->left = nullptr;
    Update(x);
  }
  return prefix;
}

/// Detaches everything after x; returns the detached suffix.
EttNode* DetachSuffix(EttNode* x) {
  Splay(x);
  EttNode* suffix = x->right;
  if (suffix != nullptr) {
    suffix->parent = nullptr;
    x->right = nullptr;
    Update(x);
  }
  return suffix;
}

void DeleteSubtree(EttNode* x) {
  if (x == nullptr) return;
  DeleteSubtree(x->left);
  DeleteSubtree(x->right);
  delete x;
}

}  // namespace

EulerTourForest::~EulerTourForest() {
  // Every node is reachable from some self-arc's root (each tree holds at
  // least one vertex).
  std::unordered_set<EttNode*> roots;
  for (EttNode* s : self_) {
    if (s == nullptr) continue;
    EttNode* r = s;
    while (r->parent != nullptr) r = r->parent;
    roots.insert(r);
  }
  for (EttNode* r : roots) DeleteSubtree(r);
}

void EulerTourForest::EnsureVertices(int n) {
  if (static_cast<int>(self_.size()) < n) self_.resize(n, nullptr);
}

EttNode* EulerTourForest::Self(int v) {
  DDC_DCHECK(v >= 0 && v < num_vertices());
  if (self_[v] == nullptr) {
    EttNode* s = new EttNode;
    s->u = s->v = v;
    Update(s);
    self_[v] = s;
  }
  return self_[v];
}

void EulerTourForest::Reroot(EttNode* self_node) {
  EttNode* prefix = DetachPrefix(self_node);
  Concat(self_node, prefix);
}

EulerTourForest::ArcPair EulerTourForest::Link(int u, int v) {
  DDC_DCHECK(!Connected(u, v));
  EttNode* su = Self(u);
  EttNode* sv = Self(v);
  Reroot(su);
  Reroot(sv);

  ArcPair arcs;
  arcs.uv = new EttNode;
  arcs.uv->u = u;
  arcs.uv->v = v;
  Update(arcs.uv);
  arcs.vu = new EttNode;
  arcs.vu->u = v;
  arcs.vu->v = u;
  Update(arcs.vu);

  // Tour(u-tree from u) + (u,v) + Tour(v-tree from v) + (v,u).
  Splay(su);
  Splay(sv);
  EttNode* t = Concat(su, arcs.uv);
  t = Concat(t, sv);
  Concat(t, arcs.vu);
  return arcs;
}

void EulerTourForest::Cut(const ArcPair& arcs) {
  EttNode* first = arcs.uv;
  EttNode* second = arcs.vu;
  if (PositionOf(first) > PositionOf(second)) std::swap(first, second);

  // Sequence = A first M second C. The subtree tour is M; the rest of the
  // tree keeps A + C.
  EttNode* a = DetachPrefix(first);
  EttNode* c = DetachSuffix(second);
  // Now the remaining sequence is: first M second.
  EttNode* m = DetachSuffix(first);  // m = M second
  delete first;
  Splay(second);
  DDC_DCHECK(second->right == nullptr);
  EttNode* middle = second->left;
  if (middle != nullptr) {
    middle->parent = nullptr;
    second->left = nullptr;
  }
  (void)m;
  delete second;
  Concat(a, c);
}

bool EulerTourForest::Connected(int u, int v) {
  if (u == v) return true;
  EttNode* su = Self(u);
  EttNode* sv = Self(v);
  Splay(su);
  Splay(sv);
  return su->parent != nullptr;
}

int EulerTourForest::TreeSize(int u) {
  EttNode* s = Self(u);
  Splay(s);
  return s->cnt_vertices;
}

const EttNode* EulerTourForest::Representative(int u) const {
  DDC_DCHECK(u >= 0 && u < num_vertices());
  const EttNode* node = self_[u];
  if (node == nullptr) return nullptr;  // Untouched singleton.
  while (node->parent != nullptr) node = node->parent;
  while (node->left != nullptr) node = node->left;
  return node;
}

void EulerTourForest::SetVertexFlag(int u, bool flag) {
  EttNode* s = Self(u);
  Splay(s);
  s->vertex_has_nontree = flag;
  Update(s);
}

void EulerTourForest::SetArcFlag(EttNode* arc, bool flag) {
  Splay(arc);
  arc->edge_is_level = flag;
  Update(arc);
}

int EulerTourForest::FindFlaggedVertex(int u) {
  EttNode* s = Self(u);
  Splay(s);
  if (s->cnt_nontree == 0) return -1;
  EttNode* x = s;
  for (;;) {
    if (x->left != nullptr && x->left->cnt_nontree > 0) {
      x = x->left;
    } else if (x->is_self() && x->vertex_has_nontree) {
      Splay(x);
      return x->u;
    } else {
      DDC_DCHECK(x->right != nullptr && x->right->cnt_nontree > 0);
      x = x->right;
    }
  }
}

EttNode* EulerTourForest::FindFlaggedArc(int u) {
  EttNode* s = Self(u);
  Splay(s);
  if (s->cnt_level == 0) return nullptr;
  EttNode* x = s;
  for (;;) {
    if (x->left != nullptr && x->left->cnt_level > 0) {
      x = x->left;
    } else if (!x->is_self() && x->edge_is_level) {
      Splay(x);
      return x;
    } else {
      DDC_DCHECK(x->right != nullptr && x->right->cnt_level > 0);
      x = x->right;
    }
  }
}

}  // namespace ddc
