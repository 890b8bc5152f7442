#ifndef DDC_CONNECTIVITY_EULER_TOUR_TREE_H_
#define DDC_CONNECTIVITY_EULER_TOUR_TREE_H_

#include <cstdint>
#include <vector>

namespace ddc {

/// One node of the Euler-tour sequence: either a vertex's self-arc (u == v,
/// exactly one per vertex per tree) or one of the two directed arcs of a
/// tree edge. Nodes form a splay tree keyed by tour position, with subtree
/// aggregates used by the HDT search routines.
struct EttNode {
  EttNode* left = nullptr;
  EttNode* right = nullptr;
  EttNode* parent = nullptr;

  int32_t u = -1;
  int32_t v = -1;

  /// Self-arc flag payloads (meaningful when u == v):
  bool vertex_has_nontree = false;
  /// Arc flag payload: this arc's edge is a tree edge whose HDT level equals
  /// this forest's level (set on one arc of the pair only).
  bool edge_is_level = false;

  /// Subtree aggregates.
  int32_t cnt_total = 0;     // all nodes in subtree (tour positions)
  int32_t cnt_vertices = 0;  // self-arcs in subtree
  int32_t cnt_nontree = 0;   // flagged self-arcs in subtree
  int32_t cnt_level = 0;     // flagged arcs in subtree

  bool is_self() const { return u == v; }
};

/// A forest of Euler-tour trees over dense vertex ids, supporting Link, Cut,
/// Connected, tree sizes, flag maintenance and flagged-node search — the
/// engine under HdtConnectivity. All operations are amortized O(log n).
///
/// Representation: each tree's Euler tour is a linear sequence of nodes in a
/// splay tree; the tour of a single vertex is just its self-arc. Linking
/// reroots both tours and concatenates them around the two new arcs.
class EulerTourForest {
 public:
  EulerTourForest() = default;
  ~EulerTourForest();

  EulerTourForest(const EulerTourForest&) = delete;
  EulerTourForest& operator=(const EulerTourForest&) = delete;

  /// Handle of a linked edge: its two arc nodes.
  struct ArcPair {
    EttNode* uv = nullptr;
    EttNode* vu = nullptr;
  };

  /// Makes vertex ids [0, n) valid; new vertices start as singletons with
  /// no self-arc materialized until first touched.
  void EnsureVertices(int n);

  int num_vertices() const { return static_cast<int>(self_.size()); }

  /// Links the trees of u and v with edge {u, v}; they must be in different
  /// trees. Returns the created arcs.
  ArcPair Link(int u, int v);

  /// Removes the edge whose arcs are `arcs`, splitting its tree in two.
  void Cut(const ArcPair& arcs);

  bool Connected(int u, int v);

  /// Number of vertices in u's tree.
  int TreeSize(int u);

  /// A canonical node of u's tree: the head of its tour sequence, stable
  /// between Link/Cut operations. A mutation-free walk — up to the splay
  /// root, then down its left spine, no splaying — so a frozen snapshot
  /// build may call it. A vertex whose self-arc was never materialized is
  /// an untouched singleton, reported as nullptr so the caller can
  /// synthesize a label without mutating the forest.
  const EttNode* Representative(int u) const;

  /// Marks whether u carries non-tree edges at this forest's level.
  void SetVertexFlag(int u, bool flag);

  /// Marks whether this arc's edge is a level tree edge.
  void SetArcFlag(EttNode* arc, bool flag);

  /// Some vertex in u's tree with the non-tree flag set, or -1.
  int FindFlaggedVertex(int u);

  /// Some arc in u's tree with the level flag set, or nullptr.
  EttNode* FindFlaggedArc(int u);

 private:
  EttNode* Self(int v);

  /// Rotates the tour of v's tree so it starts at Self(v).
  void Reroot(EttNode* self_node);

  std::vector<EttNode*> self_;
};

}  // namespace ddc

#endif  // DDC_CONNECTIVITY_EULER_TOUR_TREE_H_
