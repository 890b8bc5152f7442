#ifndef DDC_ENGINE_SHARDED_CLUSTERER_H_
#define DDC_ENGINE_SHARDED_CLUSTERER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flat_hash.h"
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
/// Ingest. Each update is routed to the owner slab of its point plus every
/// neighbor slab within the (1+ρ)ε halo (ShardMap::HoldersOf), accumulated
/// into per-shard batches, and published to per-shard MPSC queues consumed
/// by a pinned thread-pool worker — one FullyDynamicClusterer per shard,
/// each applying its stream in submission order. Ghost replicas contribute
/// to their host shard's counts and core statuses (that is what makes every
/// owned point's core status exact) but are *labeled* by their owner shard.
/// The first `warmup` inserts are buffered to pick the spread-maximizing
/// split dimension before any work is forwarded; the buffered prefix then
/// replays in order, so shards=1 reproduces the unsharded engine verbatim —
/// same op stream, same structures, same don't-care decisions.
///
/// Queries. Every Flush that applied work rebuilds the stitch table — a
/// union-find over shard-local component labels, fed by the incrementally
/// maintained boundary core-core edge set (see BoundaryStitcher) — then
/// composes a ShardedSnapshot (per-shard frozen GridSnapshots + the stitch
/// label table + routing records) and publishes it by an atomic shared_ptr
/// swap: one immutable epoch, readable lock-free from any number of
/// threads while further updates flow. Query/ClusterIdOf/SameCluster are
/// Flush + a resolve against the published snapshot; CurrentSnapshot() is
/// the wait-free read-side entry point (the latest published epoch, no
/// flush). An owner-core point belongs exactly to its owner's component; a
/// point that is non-core in its owner shard takes the union of the
/// memberships every holding shard computes for it, which restores the
/// cross-boundary attachments a single truncated halo cannot see. The
/// result satisfies the Theorem 3 sandwich at every shard count and equals
/// exact DBSCAN verbatim at rho == 0 (tests/conformance_test.cc).
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
    /// Heartbeat watchdog deadline: a worker quiet this long with batches
    /// queued is reported as stalled (stderr + "watchdog.stalls" counter).
    /// 0 disables the monitor thread.
    int64_t watchdog_deadline_ms = 2000;
    /// Structure stack of the per-shard clusterers.
    FullyDynamicClusterer::Options inner;
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
  /// folds the boundary core deltas into the stitcher, and — when anything
  /// changed — rebuilds the stitch label table for a new epoch and publishes
  /// a fresh ShardedSnapshot.
  void Flush() override;

  std::vector<PointId> AlivePoints() const override;
  const DbscanParams& params() const override { return params_; }
  int64_t size() const override { return alive_; }

  /// Stitched global label of `id`'s cluster: an owner-core point's own
  /// component; for a non-core point, the least label of the clusters
  /// containing it (a DBSCAN border point may belong to several);
  /// kNoCluster for noise or dead ids. Labels are comparable between calls
  /// only within one epoch (i.e. until the next update batch is applied).
  /// Implies Flush.
  ClusterLabel ClusterIdOf(PointId id);

  /// True when some cluster contains both points. Implies Flush.
  bool SameCluster(PointId a, PointId b);

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
  int64_t num_boundary_points() const { return stitcher_.num_points(); }
  int64_t num_boundary_edges() const { return stitcher_.num_edges(); }

 private:
  /// One queued update. Inserts carry the point and routing decisions made
  /// once on the ingest thread; every holder receives the same Op.
  struct Op {
    PointId gid;
    bool is_insert;
    bool boundary;  // Insert only: NearBoundary(point, owner).
    uint8_t owner;
    Point point;  // Insert only.
  };

  /// An owner-shard core-status transition of a boundary point, recorded by
  /// the worker and folded into the stitcher at the next Flush.
  struct CoreDelta {
    PointId gid;
    bool now_core;
    Point point;
  };

  struct Shard {
    int index = 0;  // Slab index.
    int worker = 0;
    std::unique_ptr<FullyDynamicClusterer> clusterer;

    // Ingest side (caller thread only).
    std::vector<Op> open;

    // The MPSC batch queue. queue_hwm is the deepest `pending` has ever
    // been, sampled at publish time (ingest thread, under mu).
    std::mutex mu;
    std::vector<std::vector<Op>> pending;
    int64_t queue_hwm = 0;

    // Worker-side state. Safe for the caller to read after ThreadPool::
    // Drain(), which establishes the happens-before edge.
    std::vector<PointId> global_of;   // local id -> global id
    std::vector<uint8_t> is_owned;    // local id -> owned here?
    std::vector<uint8_t> is_boundary; // local id -> owned and near an edge?
    FlatHashMap<PointId, PointId> local_of;  // global id -> live local id
    std::vector<CoreDelta> deltas;
    int64_t owned_alive = 0;
    int64_t ghost_alive = 0;
    int64_t core_count = 0;
    int64_t ops_applied = 0;
    int64_t batches_applied = 0;
    double busy_seconds = 0;
    bool dirty = false;  // Applied ops since the last stitch rebuild.
  };

  /// Global per-point record (caller thread only).
  struct PointRec {
    uint8_t owner = 0;
    uint8_t first_holder = 0;
    uint8_t last_holder = 0;
    bool alive = false;
  };

  void RouteInsert(PointId gid, const Point& p);
  void RouteDelete(PointId gid);
  void EnqueueOp(Shard& shard, const Op& op);
  void PublishShard(Shard& shard);
  void ProcessShard(Shard* shard);
  void ApplyOp(Shard& shard, const Op& op);
  /// Fixes the partition from the warmup buffer and replays it in order.
  void FinishWarmup();
  /// Labels callback for BoundaryStitcher::Rebuild.
  void LabelsOf(PointId gid, std::vector<BoundaryStitcher::LabelKey>* out);
  /// Composes and publishes the ShardedSnapshot of the current epoch.
  /// Requires quiescent workers (call right after the drain barrier).
  void PublishSnapshot();
  /// Rebuilds the stitch label table and bumps the epoch.
  void RebuildLabels();

  DbscanParams params_;
  Options options_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  /// Heartbeat monitor over the pool workers; destroyed before the pool.
  std::unique_ptr<Watchdog> watchdog_;

  std::vector<PointRec> points_;
  int64_t alive_ = 0;

  /// Warmup buffer: the op stream before the partition is fixed.
  std::vector<Op> warmup_buffer_;
  int64_t warmup_inserts_ = 0;

  BoundaryStitcher stitcher_;
  std::atomic<uint64_t> epoch_{0};

  /// Last max/mean owned-occupancy imbalance, in milli-units (1500 =
  /// 1.5x); 1000 before the first dirty Flush.
  int64_t last_imbalance_milli_ = 1000;

  /// The read side: the latest composed epoch, swapped in by
  /// PublishSnapshot and loaded by readers (see SharedPtrSlot). Replaces
  /// the former reader-writer gate on the query path — no lock is ever
  /// held while a reader resolves labels.
  SharedPtrSlot<const ShardedSnapshot> published_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_SHARDED_CLUSTERER_H_
