#ifndef DDC_CORE_ABCP_H_
#define DDC_CORE_ABCP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "core/emptiness.h"
#include "geom/point.h"
#include "grid/grid.h"

namespace ddc {

/// Per-cell state shared by all aBCP instances of that cell: the current
/// core members (with their emptiness structure) and the append-only log of
/// core arrivals. The log realizes the paper's remark after Lemma 3: the
/// conceptual de-listing list L is never materialized — every instance keeps
/// one cursor per side into this log, and "alive" entries are those whose
/// point is still a core member of the cell.
struct CellCoreState {
  std::unique_ptr<CellEmptiness> core_set;
  std::vector<PointId> log;

  /// ε-close core cells this cell currently runs an aBCP instance with,
  /// each with the instance's index in the owner's arena — the GUM cascades
  /// (every core arrival/departure feeds all peers) reach instances by
  /// direct index, no hashing.
  struct PeerLink {
    CellId peer;
    int32_t instance;
  };
  std::vector<PeerLink> instance_peers;

  /// Current core members live in core_set (membership, count, and
  /// proximity queries all go through it).
  bool is_core_cell() const { return core_set != nullptr && core_set->size() > 0; }
};

/// One instance of the approximate bichromatic close pair problem (Section
/// 7.1) between the core-point sets of two ε-close cells c1, c2. The
/// maintained witness pair (w1, w2) obeys Lemma 3's contract:
///   * when non-empty, dist(w1, w2) <= (1+ρ)ε;
///   * it is non-empty whenever some core pair is within ε.
/// The grid-graph edge {c1, c2} exists exactly while the witness is
/// non-empty (Section 7.2).
class AbcpInstance {
 public:
  /// Empty instance (flat-table slot filler); not usable until assigned.
  AbcpInstance() : c1_(kInvalidCell), c2_(kInvalidCell) {}

  AbcpInstance(CellId c1, CellId c2) : c1_(c1), c2_(c2) {}

  CellId c1() const { return c1_; }
  CellId c2() const { return c2_; }
  CellId other(CellId c) const { return c == c1_ ? c2_ : c1_; }

  bool has_witness() const { return w1_ != kInvalidPoint; }

  /// Current witness endpoints (kInvalidPoint when empty); w1 in c1, w2 in
  /// c2. Exposed for tests and diagnostics.
  PointId w1() const { return w1_; }
  PointId w2() const { return w2_; }

  /// Builds the initial witness by scanning the smaller member set against
  /// the other side's emptiness structure (O~(min(|S1|, |S2|)) queries), and
  /// fast-forwards both cursors past the current logs. Returns has_witness().
  bool Initialize(const Grid& grid, CellCoreState& s1, CellCoreState& s2);

  /// A core point arrived on either side (already appended to that side's
  /// log). One de-listing if the witness is empty. Returns has_witness().
  bool OnCoreInsert(const Grid& grid, CellCoreState& s1, CellCoreState& s2);

  /// Core point `p` left side `cell` (already removed from members). If `p`
  /// was a witness endpoint, re-establish: first ask the surviving endpoint
  /// against p's side, then de-list until a witness is found or both logs
  /// are exhausted (the amortized payment). Returns has_witness().
  bool OnCoreRemove(const Grid& grid, CellCoreState& s1, CellCoreState& s2,
                    CellId cell, PointId p);

 private:
  /// De-list alive log entries until a witness appears or both logs drain.
  void Refill(const Grid& grid, CellCoreState& s1, CellCoreState& s2);

  CellId c1_;
  CellId c2_;
  PointId w1_ = kInvalidPoint;  // Member of c1.
  PointId w2_ = kInvalidPoint;  // Member of c2.
  size_t cur1_ = 0;             // Log entries before cur are de-listed.
  size_t cur2_ = 0;
};

}  // namespace ddc

#endif  // DDC_CORE_ABCP_H_
