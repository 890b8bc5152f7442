#ifndef DDC_CORE_CLUSTER_SNAPSHOT_H_
#define DDC_CORE_CLUSTER_SNAPSHOT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/flat_hash.h"
#include "core/cluster_query.h"
#include "core/clusterer.h"
#include "core/params.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/simd_kernels.h"
#include "grid/grid.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ddc {

/// An immutable, epoch-versioned view of one clustering: the read side of
/// the read/write split. A snapshot is frozen at creation — it shares no
/// mutable state with the clusterer that produced it, only immutable blocks
/// with that clusterer's other snapshots — so any number of threads may
/// Query it concurrently while updates keep flowing into the live
/// structures. Lookups are const and mutation-free by construction
/// (labels are resolved at build time through the read-only find variants;
/// no path compression or splaying ever runs on the read path).
///
/// A snapshot answers queries about the dataset *as of its epoch*: ids
/// inserted later are unknown to it and are silently skipped, exactly as
/// dead ids are.
class ClusterSnapshot {
 public:
  virtual ~ClusterSnapshot() = default;

  /// The C-group-by query of Section 4.2 over the snapshot's dataset. Ids
  /// dead (or unborn) at the snapshot's epoch are ignored. Thread-safe.
  virtual CGroupByResult Query(const std::vector<PointId>& q) const = 0;

  /// True when `id` was alive at the snapshot's epoch.
  virtual bool alive(PointId id) const = 0;

  /// Number of alive points at the snapshot's epoch.
  virtual int64_t size() const = 0;

  /// The update-stream version this snapshot froze: the clusterer's update
  /// counter for the single-threaded clusterers, the stitch epoch for the
  /// sharded engine. Monotone per clusterer.
  uint64_t epoch() const { return epoch_; }

 protected:
  explicit ClusterSnapshot(uint64_t epoch) : epoch_(epoch) {}

 private:
  uint64_t epoch_;
};

/// What changed since a grid clusterer's last freeze: one bit per id and
/// one per grid cell, a sliver of the grid's own per-id and per-cell
/// tables. The clusterers mark on every update; GridSnapshot::Build reads
/// the bits and clears them. Ids are grouped into pages of kPageSize, the
/// unit a freeze shares or copies, and a page is one 64-bit word here: the
/// word is the page's dirty-id mask, so a mark is one `|=` and a freeze
/// patches exactly the slots the mask names.
class SnapshotDirtySet {
 public:
  /// Ids per page of frozen per-point state. A constant, not a knob: 64 ids
  /// keep the pages touched by ~1000 scattered updates below a tenth of the
  /// table at 100k+ points, where 1024-id pages are mostly dirty.
  static constexpr int kPageBits = 6;
  static constexpr int kPageSize = 1 << kPageBits;
  static_assert(kPageSize == 64, "a page's dirty-id mask is one word");

  /// Point `p` was inserted or deleted, or its core status flipped.
  void MarkPoint(PointId p) { Set(ids_, static_cast<size_t>(p)); }

  /// The core-member set of `cell` changed (one of its points was promoted
  /// or demoted, or a core point arrived or left).
  void MarkCell(CellId cell) { Set(cells_, static_cast<size_t>(cell)); }

  /// The dirty ids of page `page`: bit i stands for id page·kPageSize + i.
  uint64_t page_mask(int64_t page) const {
    return static_cast<size_t>(page) < ids_.size() ? ids_[page] : 0;
  }
  bool page(int64_t page) const { return page_mask(page) != 0; }
  bool cell(CellId cell) const { return Test(cells_, cell); }

  void Clear() {
    std::fill(ids_.begin(), ids_.end(), 0);
    std::fill(cells_.begin(), cells_.end(), 0);
  }

 private:
  static void Set(std::vector<uint64_t>& bits, size_t i) {
    const size_t word = i >> 6;
    if (word >= bits.size()) bits.resize(word + 1, 0);
    bits[word] |= uint64_t{1} << (i & 63);
  }
  static bool Test(const std::vector<uint64_t>& bits, int64_t i) {
    const size_t word = static_cast<size_t>(i) >> 6;
    return word < bits.size() && ((bits[word] >> (i & 63)) & 1) != 0;
  }

  std::vector<uint64_t> ids_;  // Word w: the dirty-id mask of page w.
  std::vector<uint64_t> cells_;
};

/// The frozen single-grid snapshot behind SemiDynamicClusterer,
/// FullyDynamicClusterer and IncrementalDbscan (and, per shard, behind the
/// sharded engine): per-point alive/core bits and packed coordinates, and
/// per-cell CC labels, packed core-member coordinates and ε-close core
/// neighbor lists. Membership follows the paper's query algorithm — a core
/// point takes its cell's CC label; a non-core point takes the label of
/// every ε-close core cell whose frozen emptiness query (brute-force scan
/// with the cell-box miss prefilter, radius (1+ρ)ε) certifies a proof —
/// which is conforming for the Theorem 3 sandwich and exact at rho == 0.
///
/// The state lives in immutable blocks that consecutive snapshots share:
/// per-point state in pages of kPageSize ids, per-cell state in one block
/// per cell that a query can read. A freeze writes, into fresh
/// allocations, only what its SnapshotDirtySet names, shares every other
/// block with the previous snapshot, and never writes to a block a
/// published snapshot holds:
///   * a page with dirty ids is a copy of the previous snapshot's page with
///     only those slots rewritten (a page the previous snapshot lacks is
///     built whole);
///   * a dirty or new cell gets its core members recopied, counted before
///     anything is allocated;
///   * the ε-close core-cell list is re-listed only for new cells and the
///     cells next to one whose core-cell status flipped; every other dirty
///     cell keeps its previous list.
/// A cell with no core member and no ε-close core cell cannot contribute a
/// membership, so it freezes to a null entry: a point homed there is noise.
/// Labels are the one per-cell fact that can change without any update to
/// the cell (a connectivity change elsewhere), so they are re-resolved for
/// every core cell on every freeze.
class GridSnapshot final : public ClusterSnapshot {
 public:
  static constexpr int kPageBits = SnapshotDirtySet::kPageBits;
  static constexpr int kPageSize = SnapshotDirtySet::kPageSize;

  /// Freezes the query-relevant state of `grid` at `epoch`, reusing every
  /// block of `prev` (the previous freeze of the same grid, or null) that
  /// `dirty` leaves clean, and clears `dirty`. `is_core(p)` is the
  /// clusterer's core bit; `cell_label(cell, p)` must return the CC label of
  /// core cell `cell`, where `p` is one of its core members (IncDBSCAN labels
  /// clusters through core points, the grid clusterers through cells), and
  /// must be a read-only lookup. `params` gives the membership radius
  /// (1+ρ)ε and MinPts. Runs on the clusterer's owning thread while the
  /// structures are quiescent. Costs O(pages + cells) pointer copies, one
  /// page copy per dirty page plus O(d) per dirty id, O(points) per dirty
  /// cell, O(ε-close cells) per re-listed cell, and one label lookup per
  /// core cell; the first freeze (null `prev`) builds every page and cell
  /// whole.
  template <typename IsCore, typename CellLabel>
  static std::shared_ptr<const GridSnapshot> Build(
      const Grid& grid, const IsCore& is_core, const CellLabel& cell_label,
      const DbscanParams& params, uint64_t epoch, const GridSnapshot* prev,
      SnapshotDirtySet* dirty);

  CGroupByResult Query(const std::vector<PointId>& q) const override;

  bool alive(PointId id) const override {
    return id >= 0 && id < num_points_ && page(id).cell[Slot(id)] >= 0;
  }
  int64_t size() const override { return alive_; }

  bool is_core(PointId id) const {
    DDC_DCHECK(alive(id));
    return page(id).core[Slot(id)] != 0;
  }

  /// CC label of core point `id` (its cell's frozen label).
  uint64_t CoreLabelOf(PointId id) const {
    DDC_DCHECK(is_core(id));
    return labels_[page(id).cell[Slot(id)]];
  }

  /// Invokes `fn(label)` once per distinct cluster containing alive point
  /// `pid` — nothing for noise: the per-point step of Section 4.2's
  /// C-group-by query, and its one implementation. A core point takes its
  /// cell's CC label; a non-core point takes the label of every ε-close
  /// core cell, its own cell included, whose emptiness probe certifies a
  /// proof. Thread-safe.
  template <typename Fn>
  void ForEachMembershipLabel(PointId pid, Fn&& fn) const {
    DDC_DCHECK(alive(pid));
    const PointPage& pg = page(pid);
    const int slot = Slot(pid);
    const int32_t c = pg.cell[slot];
    if (pg.core[slot] != 0) {
      fn(labels_[c]);
      return;
    }
    const CellBlock* home = cells_[c].get();
    if (home == nullptr) return;  // No core cell within reach: noise.
    Point p;
    const double* pc = pg.coords.data() + static_cast<size_t>(slot) * dim_;
    for (int k = 0; k < dim_; ++k) p[k] = pc[k];
    MembershipLabelSet assigned;
    auto consider = [&](int32_t cell, const CellBlock& b) {
      if (b.num_members == 0) return;  // Not a core cell.
      if (BoxMiss(b, p)) return;
      // Batched membership test over the frozen packed core members.
      if (!AnyWithinPacked(p, b.members.data(), b.num_members, dim_,
                           eps_outer_sq_)) {
        return;
      }
      if (assigned.Insert(labels_[cell])) fn(labels_[cell]);
    };
    consider(c, *home);
    for (const CellId nb : home->core_neighbors) consider(nb, *cells_[nb]);
  }

 private:
  /// Frozen state of ids [page * kPageSize, (page + 1) * kPageSize); a new
  /// page has every id dead and all coordinates zero.
  struct PointPage {
    explicit PointPage(int dim)
        : coords(static_cast<size_t>(kPageSize) * dim, 0.0) {
      std::fill_n(cell, kPageSize, -1);
      std::fill_n(core, kPageSize, 0);
    }

    int32_t cell[kPageSize];  // Home cell; -1 = dead or not yet inserted.
    uint8_t core[kPageSize];
    std::vector<double> coords;  // kPageSize rows of dim doubles.
  };

  /// Frozen state of one cell with a core member or an ε-close core cell.
  /// The fields a query reads first (is it a core cell, where are its
  /// members) lead; the 128-byte box, set for core cells, follows.
  struct CellBlock {
    int32_t num_members = 0;
    /// First core member at freeze time: the point label lookups go
    /// through. kInvalidPoint for a non-core cell.
    PointId rep = kInvalidPoint;
    std::vector<double> members;  // Core members, dim doubles each.
    std::vector<CellId> core_neighbors;  // ε-close core cells.
    Box box;
  };

  /// Build's out-of-line half: sharing the clean blocks, copying the dirty
  /// pages, allocating the dirty cells' blocks, re-linking the neighbors of
  /// cells whose core-cell status flipped, and the reuse counters. Build's
  /// template body runs only the per-point loops, so the clusterer's core
  /// bit is read inline.
  class Freezer;

  explicit GridSnapshot(uint64_t epoch) : ClusterSnapshot(epoch) {}

  static int Slot(PointId id) { return id & (kPageSize - 1); }
  const PointPage& page(PointId id) const { return *pages_[id >> kPageBits]; }

  /// The emptiness miss prefilter of the live structures, on the frozen
  /// cell box: O(d) certainty that no member of the cell is within (1+ρ)ε.
  /// Same formula and slack rule as CellEmptiness::Query's prefilter.
  bool BoxMiss(const CellBlock& b, const Point& p) const {
    return b.box.MinSquaredDistance(p, dim_) >
           eps_outer_sq_ * (1 + kBoxPrefilterSlack);
  }

  int dim_ = 0;
  double eps_outer_sq_ = 0;
  int64_t alive_ = 0;
  int64_t num_points_ = 0;  // Ids ever inserted at freeze time.

  std::vector<std::shared_ptr<const PointPage>> pages_;
  /// By CellId; null for a cell no query reads (see the class comment).
  std::vector<std::shared_ptr<const CellBlock>> cells_;
  std::vector<uint64_t> labels_;  // By CellId; 0 for non-core cells.
};

class GridSnapshot::Freezer {
 public:
  Freezer(const Grid& grid, double eps_outer, uint64_t epoch,
          const GridSnapshot* prev, const SnapshotDirtySet& dirty);

  /// A page to write and the slots to write in it.
  struct PagePatch {
    int64_t page;
    uint64_t slots;  // Bit i: id page·kPageSize + i.
  };
  /// The pages with a dirty id, each with its dirty-id mask, then the pages
  /// the previous snapshot lacks, each with every slot below the id count.
  const std::vector<PagePatch>& pages() const { return pages_; }
  /// Cells whose core members to recopy: dirty, or new since the previous
  /// snapshot.
  const std::vector<CellId>& cells() const { return cells_; }

  /// The page `patch.page`, installed in the snapshot: a copy of the
  /// previous snapshot's page, or a new page (every id dead, all
  /// coordinates zero) where it has none.
  PointPage& NewPage(const PagePatch& patch);

  /// Records that `cell` has `num_members` core members. For a core cell,
  /// a fresh block, installed in the snapshot, with its box set and room
  /// reserved for the members; for any other cell null, and Relink decides
  /// whether it needs a block.
  CellBlock* NewCell(CellId cell, int32_t num_members);

  /// Settles every entry the freeze writes: the cells of cells(), and each
  /// clean cell next to one whose core-cell status flipped, which it
  /// appends to cells(). New cells and the flips' neighbors re-list their
  /// ε-close core cells; every other entry keeps its previous list. A
  /// non-core cell whose list ends up empty freezes to null.
  void Relink();

  GridSnapshot& snapshot() { return *snap_; }

  /// Records the reuse counters, clears `dirty` and hands the snapshot out.
  std::shared_ptr<const GridSnapshot> Finish(SnapshotDirtySet* dirty);

 private:
  /// `cell`'s entry in the previous snapshot; null for a new cell too.
  const CellBlock* Previous(CellId cell) const {
    return cell < prev_cells_ ? prev_->cells_[cell].get() : nullptr;
  }

  /// Installs a fresh block for `cell`: a copy of `copy`, or empty.
  CellBlock& Own(CellId cell, const CellBlock* copy);

  const Grid& grid_;
  const GridSnapshot* prev_;
  CellId prev_cells_ = 0;  // Cells the previous snapshot froze.
  std::shared_ptr<GridSnapshot> snap_;
  std::vector<PagePatch> pages_;
  std::vector<CellId> cells_;
  /// Per cell: its fresh, not yet published block, or null.
  std::vector<CellBlock*> fresh_;
  /// Per cell: kMembers when in cells(), kRelist when its list is re-listed.
  std::vector<uint8_t> state_;
  static constexpr uint8_t kMembers = 1;
  static constexpr uint8_t kRelist = 2;
  std::vector<CellId> flipped_;  // Cells whose core-cell status flipped.
};

template <typename IsCore, typename CellLabel>
std::shared_ptr<const GridSnapshot> GridSnapshot::Build(
    const Grid& grid, const IsCore& is_core, const CellLabel& cell_label,
    const DbscanParams& params, uint64_t epoch, const GridSnapshot* prev,
    SnapshotDirtySet* dirty) {
  DDC_TRACE_SPAN("core.snapshot_build");
  DDC_HISTOGRAM_SCOPED("core.snapshot_build");
  DDC_COUNTER_INC("core.snapshot_builds");
  Freezer f(grid, params.eps_outer(), epoch, prev, *dirty);
  const int dim = grid.dim();

  // Pages: home cell, core bit and packed coordinates of each written id.
  for (const Freezer::PagePatch& patch : f.pages()) {
    PointPage& out = f.NewPage(patch);
    const PointId first = static_cast<PointId>(patch.page << kPageBits);
    for (uint64_t slots = patch.slots; slots != 0; slots &= slots - 1) {
      const int i = std::countr_zero(slots);
      const PointId p = first + i;
      if (!grid.alive(p)) {
        out.cell[i] = -1;
        out.core[i] = 0;
        continue;
      }
      out.cell[i] = grid.cell_of(p);
      out.core[i] = is_core(p) ? 1 : 0;
      const Point& pt = grid.point(p);
      std::copy_n(pt.data(), dim, out.coords.data() + i * dim);
    }
  }

  // Cells: core members' packed coordinates. A cell holding MinPts points
  // is dense: any two of its points are within ε, so every one of them is
  // core (under the exact, relaxed and IncDBSCAN predicates alike) and its
  // members are the grid's packed coordinates verbatim. Sparse cells are
  // filtered point by point, counted before anything is allocated.
  for (const CellId c : f.cells()) {
    const Cell& cell = grid.cell(c);
    if (cell.size() >= params.min_pts) {
      DDC_DCHECK(std::all_of(cell.points.begin(), cell.points.end(),
                             [&](PointId p) { return is_core(p); }));
      CellBlock* out = f.NewCell(c, cell.size());
      out->rep = cell.points[0];
      out->members.assign(cell.coords.begin(), cell.coords.end());
      continue;
    }
    int32_t num_members = 0;
    for (const PointId p : cell.points) num_members += is_core(p) ? 1 : 0;
    CellBlock* out = f.NewCell(c, num_members);
    if (out == nullptr) continue;
    for (size_t i = 0; i < cell.points.size(); ++i) {
      const PointId p = cell.points[i];
      if (!is_core(p)) continue;
      if (out->rep == kInvalidPoint) out->rep = p;
      const double* coords = cell.coords.data() + i * dim;
      out->members.insert(out->members.end(), coords, coords + dim);
    }
  }
  f.Relink();

  GridSnapshot& snap = f.snapshot();
  for (size_t c = 0; c < snap.cells_.size(); ++c) {
    const CellBlock* b = snap.cells_[c].get();
    if (b != nullptr && b->num_members > 0) {
      DDC_DCHECK(b->rep != kInvalidPoint);
      snap.labels_[c] = cell_label(static_cast<CellId>(c), b->rep);
    }
  }
  return f.Finish(dirty);
}

/// Publication slot for a shared_ptr: Store swaps the pointer in, Load
/// hands a reference-counted copy out, from any thread. The pointer copy
/// sits behind a plain mutex held for a handful of instructions and never
/// across user code — std::atomic<shared_ptr> would express the same
/// semantics (it is lock-based inside libstdc++ too), but its lock-bit
/// protocol is invisible to ThreadSanitizer (GCC PR 104366) and the CI
/// TSan job runs with halt_on_error.
template <typename T>
class SharedPtrSlot {
 public:
  std::shared_ptr<T> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  void Store(std::shared_ptr<T> p) {
    // Drop the previous value outside the lock (its destructor may do real
    // work).
    std::shared_ptr<T> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old.swap(ptr_);
      ptr_ = std::move(p);
    }
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
};

/// The publication slot of a grid clusterer's snapshot: a swapped
/// shared_ptr, an update counter, and the dirty bits the next freeze
/// rebuilds from. The update path pays one increment plus a bit-set or two
/// per update (invalidation is implicit — a cached snapshot whose epoch
/// trails the version is stale). Everything but the slot belongs to the
/// owning thread, the one that applies the clusterer's updates (a shard's
/// worker in the sharded engine): GetOrBuild runs there, and other threads
/// read only the slot, through Peek.
class SnapshotCache {
 public:
  /// Called once per applied update (owning thread).
  void BumpVersion() { ++version_; }

  /// Point `p` was inserted or deleted (owning thread).
  void MarkPoint(PointId p) { dirty_.MarkPoint(p); }

  /// Point `p` of `cell` was promoted to core or demoted (owning thread).
  void MarkCoreChange(PointId p, CellId cell) {
    dirty_.MarkPoint(p);
    dirty_.MarkCell(cell);
  }

  /// The cached snapshot when it is current, else a GridSnapshot::Build of
  /// `grid` over the cached one — published into the slot before returning.
  /// Owning thread only, with the structures quiescent.
  template <typename IsCore, typename CellLabel>
  std::shared_ptr<const ClusterSnapshot> GetOrBuild(
      const Grid& grid, const IsCore& is_core, const CellLabel& cell_label,
      const DbscanParams& params) {
    const uint64_t v = version_;
    std::shared_ptr<const GridSnapshot> cached = cached_.Load();
    if (cached != nullptr && cached->epoch() == v) return cached;
    std::shared_ptr<const GridSnapshot> fresh = GridSnapshot::Build(
        grid, is_core, cell_label, params, v, cached.get(), &dirty_);
    cached_.Store(fresh);
    return fresh;
  }

  /// Latest published snapshot, possibly stale or null; any thread.
  std::shared_ptr<const ClusterSnapshot> Peek() const {
    return cached_.Load();
  }

 private:
  uint64_t version_ = 0;
  SnapshotDirtySet dirty_;
  SharedPtrSlot<const GridSnapshot> cached_;
};

}  // namespace ddc

#endif  // DDC_CORE_CLUSTER_SNAPSHOT_H_
