#include "engine/sharded_clusterer.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ddc {

ShardedClusterer::ShardedClusterer(const DbscanParams& params,
                                   const Options& options)
    : params_(params),
      options_(options),
      map_(options.shards, params.dim, params.eps_outer()),
      stitcher_(params.dim, params.eps) {
  params_.Validate();
  DDC_CHECK(options_.shards >= 1 && options_.shards <= kMaxShards);
  DDC_CHECK(options_.threads >= 0 && options_.threads <= kMaxShards);
  DDC_CHECK(options_.batch >= 1);
  DDC_CHECK(options_.warmup >= 0);
  if (options_.threads == 0) options_.threads = options_.shards;

  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->worker = i % options_.threads;
    shard->clusterer =
        std::make_unique<FullyDynamicClusterer>(params_, options_.inner);
    // The observer runs on the shard's worker thread and only touches
    // worker-side state; Flush's drain hands it to the ingest thread.
    Shard* s = shard.get();
    shard->clusterer->set_core_observer([s](PointId local, bool now_core) {
      s->core_count += now_core ? 1 : -1;
      if (s->is_boundary[local]) {
        s->deltas.push_back(CoreDelta{s->global_of[local], now_core,
                                      s->clusterer->grid().point(local)});
      }
    });
    shards_.push_back(std::move(shard));
  }
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  if (options_.watchdog_deadline_ms <= 0) return;

  // One label per worker naming the shards pinned to it, so a stall report
  // points at the data, not just the thread.
  std::vector<const WorkerHealth*> health;
  std::vector<std::string> labels(options_.threads);
  for (int w = 0; w < options_.threads; ++w) {
    health.push_back(&pool_->health(w));
    std::string shard_list;
    for (int s = w; s < options_.shards; s += options_.threads) {
      if (!shard_list.empty()) shard_list += ",";
      shard_list += std::to_string(s);
    }
    labels[w] = "shard=" + shard_list;
  }
  Watchdog::Options wd;
  wd.deadline_ms = options_.watchdog_deadline_ms;
  watchdog_ = std::make_unique<Watchdog>(
      std::move(health), std::move(labels), wd,
      [this](const Watchdog::Stall& stall) {
        std::fprintf(stderr,
                     "[ddc watchdog] worker %d (%s) quiet %.1fs with %lld "
                     "batch(es) queued; %llu tasks done, epoch %" PRIu64 "\n",
                     stall.worker, stall.label.c_str(), stall.quiet_seconds,
                     static_cast<long long>(stall.queue_depth),
                     static_cast<unsigned long long>(stall.tasks_completed),
                     epoch());
      });
}

ShardedClusterer::~ShardedClusterer() {
  // The watchdog reads worker health cells, so it goes first; then stop the
  // workers before any shard state they touch goes away. The pool
  // destructor runs every queued batch first.
  watchdog_.reset();
  pool_.reset();
}

PointId ShardedClusterer::Insert(const Point& p) {
  const PointId gid = static_cast<PointId>(points_.size());
  points_.push_back(PointRec{});
  points_[gid].alive = true;
  ++alive_;

  if (!map_.initialized()) {
    warmup_buffer_.push_back(Op{gid, true, false, 0, p});
    ++warmup_inserts_;
    if (warmup_inserts_ >= options_.warmup) FinishWarmup();
    return gid;
  }
  RouteInsert(gid, p);
  return gid;
}

void ShardedClusterer::Delete(PointId id) {
  DDC_CHECK(id >= 0 && id < static_cast<PointId>(points_.size()) &&
            points_[id].alive);
  points_[id].alive = false;
  --alive_;

  if (!map_.initialized()) {
    warmup_buffer_.push_back(Op{id, false, false, 0, Point{}});
    return;
  }
  RouteDelete(id);
}

void ShardedClusterer::RouteInsert(PointId gid, const Point& p) {
  PointRec& rec = points_[gid];
  const int owner = map_.OwnerOf(p);
  const ShardMap::Range holders = map_.HoldersOf(p);
  DDC_DCHECK(holders.first <= owner && owner <= holders.last);
  rec.owner = static_cast<uint8_t>(owner);
  rec.first_holder = static_cast<uint8_t>(holders.first);
  rec.last_holder = static_cast<uint8_t>(holders.last);

  Op op;
  op.gid = gid;
  op.is_insert = true;
  op.boundary = map_.NearBoundary(p, owner);
  op.owner = static_cast<uint8_t>(owner);
  op.point = p;
  for (int t = holders.first; t <= holders.last; ++t) {
    EnqueueOp(*shards_[t], op);
  }
}

void ShardedClusterer::RouteDelete(PointId gid) {
  const PointRec& rec = points_[gid];
  Op op;
  op.gid = gid;
  op.is_insert = false;
  op.boundary = false;
  op.owner = rec.owner;
  for (int t = rec.first_holder; t <= rec.last_holder; ++t) {
    EnqueueOp(*shards_[t], op);
  }
}

void ShardedClusterer::EnqueueOp(Shard& shard, const Op& op) {
  shard.open.push_back(op);
  if (static_cast<int>(shard.open.size()) >= options_.batch) {
    PublishShard(shard);
  }
}

void ShardedClusterer::PublishShard(Shard& shard) {
  if (shard.open.empty()) return;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.pending.push_back(std::move(shard.open));
    const int64_t depth = static_cast<int64_t>(shard.pending.size());
    if (depth > shard.queue_hwm) shard.queue_hwm = depth;
  }
  shard.open.clear();
  pool_->Submit(shard.worker, [this, s = &shard] { ProcessShard(s); });
}

void ShardedClusterer::ProcessShard(Shard* shard) {
  // One task is submitted per published batch, so normally this pops exactly
  // one; the loop also mops up if a prior task consumed several.
  for (;;) {
    std::vector<Op> batch;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      if (shard->pending.empty()) return;
      batch = std::move(shard->pending.front());
      shard->pending.erase(shard->pending.begin());
    }
    DDC_TRACE_SPAN("engine.shard_batch");
    const auto t0 = std::chrono::steady_clock::now();
    for (const Op& op : batch) ApplyOp(*shard, op);
    const double batch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    shard->busy_seconds += batch_seconds;
    DDC_HISTOGRAM_RECORD("engine.shard_batch", batch_seconds * 1e6);
    shard->ops_applied += static_cast<int64_t>(batch.size());
    ++shard->batches_applied;
    shard->dirty = true;
  }
}

void ShardedClusterer::ApplyOp(Shard& shard, const Op& op) {
  if (op.is_insert) {
    const bool owned = static_cast<int>(op.owner) == shard.index;
    // The local id the grid will assign; registered before Insert so the
    // core observer can translate it the moment the new point promotes.
    const PointId local =
        static_cast<PointId>(shard.clusterer->grid().total_inserted());
    shard.global_of.push_back(op.gid);
    shard.is_owned.push_back(owned ? 1 : 0);
    shard.is_boundary.push_back(owned && op.boundary ? 1 : 0);
    const PointId got = shard.clusterer->Insert(op.point);
    DDC_CHECK(got == local);
    shard.local_of[op.gid] = local;
    (owned ? shard.owned_alive : shard.ghost_alive) += 1;
    return;
  }
  PointId* local = shard.local_of.Find(op.gid);
  DDC_CHECK(local != nullptr);
  (shard.is_owned[*local] ? shard.owned_alive : shard.ghost_alive) -= 1;
  shard.clusterer->Delete(*local);
  shard.local_of.Erase(op.gid);
}

void ShardedClusterer::FinishWarmup() {
  DDC_TRACE_SPAN("engine.warmup_replay");
  std::vector<Point> sample;
  sample.reserve(warmup_buffer_.size());
  for (const Op& op : warmup_buffer_) {
    if (op.is_insert) sample.push_back(op.point);
  }
  map_.InitFromSample(sample);

  // Replay the buffered prefix verbatim — same op order the caller issued,
  // so shards=1 reproduces the unsharded engine's history exactly.
  std::vector<Op> buffered;
  buffered.swap(warmup_buffer_);
  for (const Op& op : buffered) {
    if (op.is_insert) {
      RouteInsert(op.gid, op.point);
    } else {
      RouteDelete(op.gid);
    }
  }
}

void ShardedClusterer::Flush() {
  DDC_TRACE_SPAN("engine.flush");
  if (!map_.initialized()) FinishWarmup();
  for (auto& shard : shards_) PublishShard(*shard);
  pool_->Drain();

  // Workers are quiescent: fold their boundary transitions into the stitch
  // registry (per-shard order preserved; cross-shard order is irrelevant —
  // adds probe the current registry and removes purge their own edges).
  bool dirty = false;
  int64_t max_owned = 0;
  for (auto& shard : shards_) {
    for (const CoreDelta& d : shard->deltas) {
      if (d.now_core) {
        stitcher_.AddCore(shard->index, d.gid, d.point);
      } else {
        stitcher_.RemoveCore(d.gid);
      }
    }
    shard->deltas.clear();
    if (shard->dirty) {
      dirty = true;
      shard->dirty = false;
    }
    max_owned = std::max(max_owned, shard->owned_alive);
  }
  if (dirty) {
    RebuildLabels();
    const double mean =
        static_cast<double>(alive_) / static_cast<double>(shards_.size());
    const double imbalance =
        mean > 0 ? static_cast<double>(max_owned) / mean : 1.0;
    last_imbalance_milli_ = std::llround(imbalance * 1000.0);
    DDC_GAUGE_SET("engine.shard_imbalance", last_imbalance_milli_);
  }
  if (dirty || published_.Load() == nullptr) {
    PublishSnapshot();
  }
}

void ShardedClusterer::RebuildLabels() {
  // Shard-local component labels are stable only between updates, so any
  // applied batch invalidates the previous epoch's label table. The new
  // table goes into a fresh object — snapshots of older epochs keep
  // resolving against theirs.
  DDC_TRACE_SPAN("engine.stitch_rebuild");
  DDC_COUNTER_INC("engine.stitch_rebuilds");
  stitcher_.Rebuild(
      [this](PointId gid, std::vector<BoundaryStitcher::LabelKey>* out) {
        LabelsOf(gid, out);
      });
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedClusterer::PublishSnapshot() {
  DDC_TRACE_SPAN("engine.publish_snapshot");
  DDC_HISTOGRAM_SCOPED("engine.snapshot_publish");
  DDC_COUNTER_INC("engine.snapshot_publications");
  // Workers are quiescent (post-drain): freeze each shard's query state —
  // the per-shard snapshot caches make this cheap for shards that applied
  // nothing since their last freeze — plus this epoch's stitch table and
  // the routing records, and swap the composite in atomically.
  std::vector<std::shared_ptr<const GridSnapshot>> shard_snaps;
  std::vector<FlatHashMap<PointId, PointId>> local_of;
  shard_snaps.reserve(shards_.size());
  local_of.reserve(shards_.size());
  for (auto& shard : shards_) {
    shard_snaps.push_back(std::static_pointer_cast<const GridSnapshot>(
        shard->clusterer->Snapshot()));
    local_of.push_back(shard->local_of);
  }
  std::vector<ShardedSnapshot::GidRec> recs(points_.size());
  for (size_t gid = 0; gid < points_.size(); ++gid) {
    const PointRec& rec = points_[gid];
    recs[gid] = ShardedSnapshot::GidRec{rec.owner, rec.first_holder,
                                        rec.last_holder, rec.alive};
  }
  published_.Store(std::make_shared<const ShardedSnapshot>(
      epoch(), std::move(recs), alive_, std::move(shard_snaps),
      std::move(local_of), stitcher_.table()));
}

std::shared_ptr<const ClusterSnapshot> ShardedClusterer::Snapshot() {
  Flush();
  return published_.Load();
}

void ShardedClusterer::LabelsOf(PointId gid,
                                std::vector<BoundaryStitcher::LabelKey>* out) {
  const PointRec& rec = points_[gid];
  auto push = [&](int t) {
    Shard& s = *shards_[t];
    const PointId* local = s.local_of.Find(gid);
    DDC_CHECK(local != nullptr);
    if (s.clusterer->is_core(*local)) {
      out->push_back(BoundaryStitcher::LabelKey{
          t, s.clusterer->CoreLabelOf(*local)});
    }
  };
  push(rec.owner);  // Owner first; owner-core is the registration invariant.
  for (int t = rec.first_holder; t <= rec.last_holder; ++t) {
    if (t != rec.owner) push(t);
  }
}

ClusterLabel ShardedClusterer::ClusterIdOf(PointId id) {
  Flush();
  return published_.Load()->LabelOf(id);
}

bool ShardedClusterer::SameCluster(PointId a, PointId b) {
  Flush();
  return published_.Load()->SameCluster(a, b);
}

std::vector<PointId> ShardedClusterer::AlivePoints() const {
  std::vector<PointId> ids;
  ids.reserve(alive_);
  for (PointId gid = 0; gid < static_cast<PointId>(points_.size()); ++gid) {
    if (points_[gid].alive) ids.push_back(gid);
  }
  return ids;
}

std::string ShardedClusterer::ShardMetricName(int slab, const char* field) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "engine.shard.%02d.%s", slab, field);
  return std::string(buf);
}

void ShardedClusterer::PublishShardMetrics() {
  Flush();
  MetricsRegistry& registry = MetricsRegistry::Instance();
  auto set = [&](int slab, const char* field, int64_t value) {
    registry.GetOrCreate(ShardMetricName(slab, field), MetricKind::kGauge)
        .Set(value);
  };
  for (const auto& shard : shards_) {
    const int i = shard->index;
    set(i, "worker", shard->worker);
    set(i, "owned", shard->owned_alive);
    set(i, "ghosts", shard->ghost_alive);
    set(i, "core", shard->core_count);
    set(i, "boundary_core", stitcher_.boundary_count(i));
    set(i, "ops_applied", shard->ops_applied);
    set(i, "batches", shard->batches_applied);
    set(i, "busy_us", static_cast<int64_t>(shard->busy_seconds * 1e6));
    set(i, "queue_hwm", shard->queue_hwm);
  }
  DDC_GAUGE_SET("engine.shards", static_cast<int64_t>(shards_.size()));
  DDC_GAUGE_SET("engine.epoch", static_cast<int64_t>(epoch()));
  DDC_GAUGE_SET("engine.shard_imbalance", last_imbalance_milli_);
}

}  // namespace ddc
