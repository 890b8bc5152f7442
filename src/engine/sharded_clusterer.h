#ifndef DDC_ENGINE_SHARDED_CLUSTERER_H_
#define DDC_ENGINE_SHARDED_CLUSTERER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/params.h"
#include "engine/shard_map.h"
#include "engine/sharded_snapshot.h"
#include "engine/stitch.h"
#include "engine/thread_pool.h"
#include "telemetry/watchdog.h"

namespace ddc {

/// The multi-threaded engine: Theorem 4's fully-dynamic clusterer, sharded
/// over S spatial slabs with ghost-zone replication and cross-shard cluster
/// stitching, behind the ordinary Clusterer interface.
///
/// Ingest. Each update is routed to the owner slab of its point plus the
/// neighbor slab within the (1+ρ)ε halo, if any (ShardMap::HoldersOf: at
/// most two holders), accumulated into per-shard batches, and published to
/// per-shard MPSC queues consumed by a pinned thread-pool worker — one
/// FullyDynamicClusterer per shard, each applying its stream in submission
/// order. The ingest thread also assigns the point's local id in each
/// holder from a per-shard counter: a shard's grid hands out local ids
/// densely in the order it applies inserts, which is the routing order. So
/// the routing record (ShardedSnapshot::Route) holds every holder's local
/// id without asking a worker, and a delete carries it. Ghost replicas
/// contribute to their host shard's counts and core statuses (that is what
/// makes every owned point's core status exact) but are *labeled* by their
/// owner shard. The first `warmup` inserts are buffered to pick the
/// spread-maximizing split dimension before any work is forwarded; the
/// buffered prefix then replays in order, so shards=1 reproduces the
/// unsharded engine verbatim — same op stream, same structures, same
/// don't-care decisions.
///
/// Queries. A Flush publishes the open batches, then submits one freeze
/// task to the worker of each shard that received batches since its last
/// freeze: the task runs behind that shard's last batch (per-worker FIFO)
/// and leaves the shard's GridSnapshot, O(what changed since the shard's
/// previous freeze), in the shard. So the shards freeze in parallel. While
/// they apply and freeze, the ingest thread builds the epoch's routing
/// records (a RouteTable of copy-on-write pages, of which only those with a
/// delete or a new id since the last epoch are rebuilt) and drops the
/// epoch before last. The drain barrier then hands it the shards'
/// snapshots. When any shard changed, it rebuilds the stitch table from
/// those frozen snapshots alone — a union-find over shard-local component
/// labels (LabelTable), which joins the owner's label of every owner-core
/// two-holder point with each label the other holder's snapshot gives that
/// point — composes a ShardedSnapshot (the same per-shard snapshots + the
/// stitch label table + the routing records) and publishes it by an atomic
/// shared_ptr swap: one immutable epoch, readable lock-free from any number
/// of threads while further updates flow. The stitch keys and the labels
/// queries resolve are thus one set of frozen labels. Query is Flush + a resolve against the
/// published snapshot; CurrentSnapshot() is the wait-free read-side entry
/// point (the latest published epoch, no flush). An owner-core point
/// belongs exactly to its owner's component; a point that is non-core in
/// its owner shard takes the union of the memberships every holding shard
/// computes for it, which restores the cross-boundary attachments a single
/// truncated halo cannot see. The result satisfies the Theorem 3 sandwich
/// at every shard count and equals exact DBSCAN verbatim at rho == 0
/// (tests/conformance_test.cc).
///
/// Partition. The slab cuts are fixed once, from the warmup sample, and
/// never move afterwards. Skew is observed, not corrected: every dirty
/// Flush sets the engine.shard_imbalance gauge to max/mean owned occupancy.
///
/// Threading contract: one ingest thread at a time (like every Clusterer);
/// the engine's workers are internal; snapshot readers are unrestricted.
class ShardedClusterer : public Clusterer {
 public:
  struct Options {
    /// Slab count S in [1, kMaxShards].
    int shards = 4;
    /// Worker threads T in [0, kMaxShards]; 0 means one per shard. Shard k
    /// is pinned to worker k % T, preserving per-shard op order.
    int threads = 0;
    /// Updates accumulated per shard before a batch is published.
    int batch = 64;
    /// Inserts buffered before the slab partition is fixed from their
    /// spread. 0 fixes the partition at the first update.
    int warmup = 2048;
  };

  static constexpr int kMaxShards = 64;

  ShardedClusterer(const DbscanParams& params, const Options& options);
  ~ShardedClusterer() override;

  PointId Insert(const Point& p) override;
  void Delete(PointId id) override;

  /// Flush + the published snapshot of the resulting epoch.
  std::shared_ptr<const ClusterSnapshot> Snapshot() override;

  /// The latest published epoch: safe from any thread, concurrently with
  /// ingest and the workers; null before the first Flush.
  std::shared_ptr<const ClusterSnapshot> CurrentSnapshot() const override {
    return published_.Load();
  }

  /// Publishes pending batches, blocks until every shard applied its stream,
  /// and — when anything changed — publishes a new epoch: PublishSnapshot.
  void Flush() override;

  std::vector<PointId> AlivePoints() const override;
  const DbscanParams& params() const override { return params_; }
  int64_t size() const override { return alive_; }

  /// Monotone counter bumped by every stitch rebuild (written by the ingest
  /// thread, readable from any thread — e.g. the watchdog monitor).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Publishes per-shard occupancy/load gauges into the process metrics
  /// registry under ShardMetricName(slab, field) — worker, owned, ghosts,
  /// core, boundary_core, ops_applied, batches, busy_us, queue_hwm — plus
  /// the engine.shards count, engine.epoch and engine.shard_imbalance
  /// gauges. Implies Flush.
  void PublishShardMetrics();

  /// Registry name of one per-shard gauge: "engine.shard.NN.<field>",
  /// keyed by slab index (zero-padded so registry iteration orders shards
  /// numerically).
  static std::string ShardMetricName(int slab, const char* field);

  const ShardMap& shard_map() const { return map_; }
  /// Alive two-holder points core in their owner, and the cross-shard
  /// unions they made, at the last stitch rebuild (the engine.stitch_points
  /// and engine.stitch_edges gauges).
  int64_t num_boundary_points() const { return stitch_points_; }
  int64_t num_boundary_edges() const { return stitch_edges_; }

 private:
  /// One queued update. Inserts carry the point and routing decisions made
  /// once on the ingest thread; every holder receives the same Op but for
  /// `local`, the point's local id in that holder.
  struct Op {
    PointId gid;
    PointId local;
    bool is_insert;
    uint8_t owner;
    Point point;  // Insert only.
  };

  /// One slab's clusterer and queues. The fields sit on separate 64-byte
  /// cache lines by writer, so the ingest thread's per-op writes never
  /// invalidate the line the worker reads on every ApplyOp.
  struct Shard {
    // Ingest side (caller thread only): the open batch and the local-id
    // counter, written on every routed op, the stitch points owned here at
    // the last rebuild (the boundary_core gauge), and whether batches were
    // published since the last freeze task.
    alignas(64) std::vector<Op> open;
    PointId next_local = 0;  // Local id the next insert routed here gets.
    int64_t boundary_core = 0;
    bool dirty = false;

    // The MPSC batch queue. queue_hwm is the deepest `pending` has ever
    // been, sampled at publish time (ingest thread, under mu).
    alignas(64) std::mutex mu;
    std::vector<std::vector<Op>> pending;
    int64_t queue_hwm = 0;

    // Fixed at construction; the worker reads them on every ApplyOp.
    alignas(64) int index = 0;  // Slab index.
    int worker = 0;
    std::unique_ptr<FullyDynamicClusterer> clusterer;

    // Worker-side state. Safe for the caller to read after ThreadPool::
    // Drain(), which establishes the happens-before edge.
    std::vector<std::vector<Op>> applying;  // `pending`, swapped out.
    std::vector<PointId> global_of;   // local id -> global id
    std::vector<uint8_t> is_owned;    // local id -> owned here?
    int64_t owned_alive = 0;
    int64_t ghost_alive = 0;
    int64_t ops_applied = 0;
    int64_t batches_applied = 0;
    double busy_seconds = 0;
    /// The shard's latest freeze, left by its freeze task. Every Flush
    /// drains the tasks it submits, so the caller may also read it between
    /// Flushes.
    std::shared_ptr<const GridSnapshot> frozen;
  };

  void RouteInsert(PointId gid, const Point& p);
  void RouteDelete(PointId gid);
  void EnqueueOp(Shard& shard, const Op& op);
  void PublishShard(Shard& shard);
  void ProcessShard(Shard* shard);
  void ApplyOp(Shard& shard, const Op& op);
  /// Fixes the partition from the warmup buffer and replays it in order.
  void FinishWarmup();
  /// When `relabel`, rebuilds the stitch label table from the shards'
  /// frozen snapshots for a new epoch; then composes the ShardedSnapshot of
  /// the epoch from the same snapshots and `routes_`, publishes it, and
  /// retires the one it replaces. Requires quiescent workers and a freeze
  /// of every shard (call right after the drain barrier).
  void PublishSnapshot(bool relabel);
  /// Rebuilds the stitch label table from `shard_snaps` (one frozen
  /// snapshot per shard) alone, sets the stitch gauges, drops dead ids from
  /// the two-holder list, and bumps the epoch.
  void RebuildLabels(
      const std::vector<std::shared_ptr<const GridSnapshot>>& shard_snaps);

  DbscanParams params_;
  Options options_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  /// Heartbeat monitor over the pool workers; destroyed before the pool.
  std::unique_ptr<Watchdog> watchdog_;

  /// Routing record per global id (caller thread only), and the record
  /// pages a delete has touched since the last RouteTable was built.
  std::vector<ShardedSnapshot::Route> points_;
  SnapshotDirtySet route_dirty_;
  int64_t alive_ = 0;
  /// Global ids routed to two holders, alive or deleted since the last
  /// stitch rebuild (caller thread only).
  std::vector<PointId> two_holders_;

  /// Warmup buffer: the op stream before the partition is fixed.
  std::vector<Op> warmup_buffer_;
  int64_t warmup_inserts_ = 0;

  /// The stitch label table of the last rebuild (resolving every label to
  /// itself before the first), and the sizes behind num_boundary_points()
  /// and num_boundary_edges().
  std::shared_ptr<const LabelTable> stitch_;
  int64_t stitch_points_ = 0;
  int64_t stitch_edges_ = 0;
  std::atomic<uint64_t> epoch_{0};

  /// Last max/mean owned-occupancy imbalance, in milli-units (1500 =
  /// 1.5x); 1000 before the first dirty Flush.
  int64_t last_imbalance_milli_ = 1000;

  /// The read side: the latest composed epoch, swapped in by
  /// PublishSnapshot and loaded by readers (see SharedPtrSlot). Replaces
  /// the former reader-writer gate on the query path — no lock is ever
  /// held while a reader resolves labels.
  SharedPtrSlot<const ShardedSnapshot> published_;
  /// The routing records of the last epoch built (caller thread only).
  std::shared_ptr<const ShardedSnapshot::RouteTable> routes_;
  /// The epoch before the published one, held until the next Flush drops
  /// it while the workers apply and freeze, so its teardown overlaps
  /// theirs instead of following the drain.
  std::shared_ptr<const ShardedSnapshot> retired_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_SHARDED_CLUSTERER_H_
