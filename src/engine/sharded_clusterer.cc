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
      stitch_(std::make_shared<const LabelTable>()) {
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
    shard->clusterer = std::make_unique<FullyDynamicClusterer>(params_);
    shards_.push_back(std::move(shard));
  }
  pool_ = std::make_unique<ThreadPool>(options_.threads);

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
  watchdog_ = std::make_unique<Watchdog>(
      std::move(health), std::move(labels), Watchdog::Options{},
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
  points_.emplace_back().alive = true;
  ++alive_;

  if (!map_.initialized()) {
    warmup_buffer_.push_back(Op{gid, kInvalidPoint, true, 0, p});
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
  route_dirty_.MarkPoint(id);
  --alive_;

  if (!map_.initialized()) {
    warmup_buffer_.push_back(Op{id, kInvalidPoint, false, 0, Point{}});
    return;
  }
  RouteDelete(id);
}

void ShardedClusterer::RouteInsert(PointId gid, const Point& p) {
  ShardedSnapshot::Route& rec = points_[gid];
  const int owner = map_.OwnerOf(p);
  const ShardMap::Range holders = map_.HoldersOf(p);
  // The record has room for two holders; ShardMap guarantees no more.
  DDC_CHECK(holders.first <= owner && owner <= holders.last &&
            holders.last - holders.first <= 1);
  rec.owner = static_cast<uint8_t>(owner);
  rec.first = static_cast<uint8_t>(holders.first);
  rec.last = static_cast<uint8_t>(holders.last);
  if (holders.first != holders.last) two_holders_.push_back(gid);

  Op op;
  op.gid = gid;
  op.is_insert = true;
  op.owner = static_cast<uint8_t>(owner);
  op.point = p;
  for (int t = holders.first; t <= holders.last; ++t) {
    Shard& shard = *shards_[t];
    op.local = shard.next_local++;
    rec.local[t - holders.first] = op.local;
    EnqueueOp(shard, op);
  }
}

void ShardedClusterer::RouteDelete(PointId gid) {
  const ShardedSnapshot::Route& rec = points_[gid];
  Op op;
  op.gid = gid;
  op.is_insert = false;
  op.owner = rec.owner;
  for (int t = rec.first; t <= rec.last; ++t) {
    op.local = rec.local_in(t);
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
  // The move left `open` with no capacity; without the reserve the next
  // batch would regrow it op by op on the ingest thread.
  shard.open.clear();
  shard.open.reserve(options_.batch);
  shard.dirty = true;
  pool_->Submit(shard.worker, [this, s = &shard] { ProcessShard(s); });
}

void ShardedClusterer::ProcessShard(Shard* shard) {
  // One task is submitted per published batch, but each task takes every
  // batch queued so far, in order, by swapping the whole list out: O(1)
  // under the lock the ingest thread publishes through. Later tasks may
  // then find the list empty.
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->applying.swap(shard->pending);
  }
  for (const std::vector<Op>& batch : shard->applying) {
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
  }
  shard->applying.clear();
}

void ShardedClusterer::ApplyOp(Shard& shard, const Op& op) {
  if (op.is_insert) {
    const bool owned = static_cast<int>(op.owner) == shard.index;
    shard.global_of.push_back(op.gid);
    shard.is_owned.push_back(owned ? 1 : 0);
    const PointId got = shard.clusterer->Insert(op.point);
    DDC_CHECK(got == op.local);
    (owned ? shard.owned_alive : shard.ghost_alive) += 1;
    return;
  }
  DDC_CHECK(op.local >= 0 &&
            op.local < static_cast<PointId>(shard.global_of.size()) &&
            shard.global_of[op.local] == op.gid);
  (shard.is_owned[op.local] ? shard.owned_alive : shard.ghost_alive) -= 1;
  shard.clusterer->Delete(op.local);
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
  // Each changed shard freezes on its own worker, behind its last batch;
  // a shard never frozen yet freezes too, so the first epoch has them all.
  bool dirty = false;
  for (auto& shard : shards_) {
    PublishShard(*shard);
    if (!shard->dirty && shard->frozen != nullptr) continue;
    dirty |= shard->dirty;
    shard->dirty = false;
    pool_->Submit(shard->worker, [s = shard.get()] {
      s->frozen = std::static_pointer_cast<const GridSnapshot>(
          s->clusterer->Snapshot());
    });
  }
  // While the workers apply and freeze: drop the epoch before last and
  // compose this epoch's routing records, which only the ingest thread
  // writes.
  retired_.reset();
  if (dirty || routes_ == nullptr) {
    routes_ = std::make_shared<const ShardedSnapshot::RouteTable>(
        points_, routes_.get(), route_dirty_);
    route_dirty_.Clear();
  }
  pool_->Drain();

  // Workers are quiescent: their state is safe to read until the next
  // batch is published.
  int64_t max_owned = 0;
  for (auto& shard : shards_) {
    max_owned = std::max(max_owned, shard->owned_alive);
  }
  if (dirty) {
    const double mean =
        static_cast<double>(alive_) / static_cast<double>(shards_.size());
    const double imbalance =
        mean > 0 ? static_cast<double>(max_owned) / mean : 1.0;
    last_imbalance_milli_ = std::llround(imbalance * 1000.0);
    DDC_GAUGE_SET("engine.shard_imbalance", last_imbalance_milli_);
  }
  if (dirty || published_.Load() == nullptr) {
    PublishSnapshot(/*relabel=*/dirty);
  }
}

void ShardedClusterer::RebuildLabels(
    const std::vector<std::shared_ptr<const GridSnapshot>>& shard_snaps) {
  // Shard-local component labels are stable only between updates, so any
  // applied batch invalidates the previous epoch's label table. The new
  // table goes into a fresh object — snapshots of older epochs keep
  // resolving against theirs. Its keys are the frozen labels the epoch's
  // queries resolve, read from the very snapshots it is composed of.
  //
  // One rule: an alive two-holder point p that is core in its owner A
  // joins A's label of p with every label the other holder B gives p.
  // Sound: a shard only undercounts, so B's core points are core, and each
  // union joins two core points within (1+ρ)ε. Complete: a point core in
  // both holders reports its own label in B (the same-point rule), and for
  // core p owned by A and core q owned by B within ε, both lie within the
  // halo of their cut, so B holds p, and p's labels in B include q's
  // component: q's core cell certifies p's membership (the edge rule).
  DDC_TRACE_SPAN("engine.stitch_rebuild");
  DDC_HISTOGRAM_SCOPED("engine.stitch_rebuild");
  DDC_COUNTER_INC("engine.stitch_rebuilds");
  LabelTable::Builder builder;
  for (auto& shard : shards_) shard->boundary_core = 0;
  int64_t points = 0;
  int64_t edges = 0;
  size_t kept = 0;
  for (const PointId gid : two_holders_) {
    const ShardedSnapshot::Route& rec = points_[gid];
    if (!rec.alive) continue;
    two_holders_[kept++] = gid;
    const GridSnapshot& owner = *shard_snaps[rec.owner];
    const PointId owner_local = rec.local_in(rec.owner);
    if (!owner.is_core(owner_local)) continue;
    ++points;
    ++shards_[rec.owner]->boundary_core;
    const LabelTable::Key key{rec.owner, owner.CoreLabelOf(owner_local)};
    const int other = rec.first == rec.owner ? rec.last : rec.first;
    shard_snaps[other]->ForEachMembershipLabel(
        rec.local_in(other), [&](uint64_t cc) {
          builder.Union(key, LabelTable::Key{other, cc});
          ++edges;
        });
  }
  two_holders_.resize(kept);
  stitch_ = std::move(builder).Finish();
  stitch_points_ = points;
  stitch_edges_ = edges;
  DDC_GAUGE_SET("engine.stitch_points", points);
  DDC_GAUGE_SET("engine.stitch_edges", edges);
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedClusterer::PublishSnapshot(bool relabel) {
  DDC_TRACE_SPAN("engine.publish_snapshot");
  DDC_HISTOGRAM_SCOPED("engine.snapshot_publish");
  DDC_COUNTER_INC("engine.snapshot_publications");
  // Workers are quiescent (post-drain) and every shard's freeze is in:
  // key this epoch's stitch table on those frozen labels, and compose them
  // with the table and the epoch's routing records into one composite,
  // swapped in atomically.
  std::vector<std::shared_ptr<const GridSnapshot>> shard_snaps;
  shard_snaps.reserve(shards_.size());
  for (auto& shard : shards_) shard_snaps.push_back(shard->frozen);
  if (relabel) RebuildLabels(shard_snaps);
  retired_ = published_.Load();
  published_.Store(std::make_shared<const ShardedSnapshot>(
      epoch(), routes_, alive_, std::move(shard_snaps), stitch_));
}

std::shared_ptr<const ClusterSnapshot> ShardedClusterer::Snapshot() {
  Flush();
  return published_.Load();
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
    set(i, "core", shard->clusterer->num_core_points());
    set(i, "boundary_core", shard->boundary_core);
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
