#include "workload/runner.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/cluster_snapshot.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ddc {

namespace {

/// One published unit of read-side work: a frozen snapshot and the query
/// ids resolved for it. Readers pick up whatever is latest; the updater
/// swaps in a fresh one at every query operation.
struct ReaderWork {
  std::shared_ptr<const ClusterSnapshot> snapshot;
  std::vector<PointId> qids;
};

}  // namespace

RunStats RunWorkload(Clusterer& clusterer, const Workload& workload,
                     const RunOptions& options) {
  using Clock = std::chrono::steady_clock;
  DDC_TRACE_SPAN("runner.run");
  RunStats stats;
  stats.query_threads = options.query_threads;

  // The read side: N closed-loop readers over the latest published
  // {snapshot, qids}. Communication is one published shared_ptr slot —
  // readers never block the updater and vice versa, and no lock is held
  // while a query runs. Each reader times into its own histogram; a reader
  // that saw work runs at least one query before honoring the stop flag,
  // so reader stats are never silently empty.
  SharedPtrSlot<const ReaderWork> reader_work;
  std::atomic<bool> reader_stop{false};
  std::vector<std::thread> readers;
  std::vector<LatencyHistogram> reader_hist(
      std::max(options.query_threads, 0));
  std::vector<int64_t> reader_count(reader_hist.size(), 0);
  const bool concurrent_readers =
      options.query_threads > 0 && workload.num_queries > 0;
  if (concurrent_readers) {
    readers.reserve(options.query_threads);
    for (int r = 0; r < options.query_threads; ++r) {
      readers.emplace_back([&, r] {
        // Epoch of the previous queried snapshot: how far the published
        // stream advanced between two consecutive queries of this reader is
        // its lag (1 = kept up; more = epochs it never saw).
        uint64_t prev_epoch = 0;
        bool has_prev = false;
        for (;;) {
          const std::shared_ptr<const ReaderWork> w = reader_work.Load();
          if (w == nullptr) {
            if (reader_stop.load(std::memory_order_acquire)) break;
            std::this_thread::yield();
            continue;
          }
          const uint64_t epoch = w->snapshot->epoch();
          if (has_prev && epoch > prev_epoch) {
            DDC_GAUGE_MAX("runner.reader_epoch_lag",
                          static_cast<int64_t>(epoch - prev_epoch));
          }
          prev_epoch = epoch;
          has_prev = true;
          DDC_TRACE_SPAN("runner.reader_query");
          const Clock::time_point t0 = Clock::now();
          const CGroupByResult result = w->snapshot->Query(w->qids);
          const Clock::time_point t1 = Clock::now();
          // Keep the optimizer honest.
          DDC_CHECK(result.groups.size() + result.noise.size() + 1 > 0);
          reader_hist[r].Record(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          ++reader_count[r];
          if (reader_stop.load(std::memory_order_acquire)) break;
        }
      });
    }
  }
  const int64_t total_ops = static_cast<int64_t>(workload.ops.size());
  const int64_t checkpoint_stride =
      options.num_checkpoints > 0
          ? std::max<int64_t>(1, total_ops / options.num_checkpoints)
          : total_ops + 1;

  // Insertion index -> live PointId.
  std::vector<PointId> id_of(workload.points.size(), kInvalidPoint);
  std::vector<PointId> query_ids;

  double total_cost_us = 0;
  double update_cost_us = 0;
  double query_cost_us = 0;
  const Clock::time_point run_start = Clock::now();

  int64_t until_checkpoint = checkpoint_stride;
  for (const Operation& op : workload.ops) {
    // Resolve query insertion indices to live PointIds *before* starting the
    // clock: this loop is runner overhead, and timing it would bias
    // avg_query_cost_us by O(|Q|) per query. The per-type histogram is also
    // picked here, outside the timed window.
    LatencyHistogram* hist;
    if (op.type == Operation::Type::kQuery) {
      query_ids.clear();
      for (const int64_t idx : op.query) {
        if (id_of[idx] != kInvalidPoint) query_ids.push_back(id_of[idx]);
      }
      hist = &stats.query_latency_us;
    } else {
      hist = op.type == Operation::Type::kInsert ? &stats.insert_latency_us
                                                 : &stats.delete_latency_us;
    }

    // Durability record of this op, filled by the update cases below.
    WalOp logged;
    const bool is_update = op.type != Operation::Type::kQuery;

    const Clock::time_point t0 = Clock::now();
    switch (op.type) {
      case Operation::Type::kInsert: {
        const PointId id = clusterer.Insert(workload.points[op.target]);
        id_of[op.target] = id;
        logged.type = WalOp::Type::kInsert;
        logged.id = id;
        logged.dim = workload.dim;
        logged.point = workload.points[op.target];
        break;
      }
      case Operation::Type::kDelete:
        DDC_CHECK(id_of[op.target] != kInvalidPoint);
        logged.type = WalOp::Type::kDelete;
        logged.id = id_of[op.target];
        clusterer.Delete(id_of[op.target]);
        id_of[op.target] = kInvalidPoint;
        break;
      case Operation::Type::kQuery: {
        if (concurrent_readers) {
          // Publish: freeze the clustering as of this operation and hand
          // {snapshot, qids} to the readers. The timed cost is snapshot
          // construction + the pointer swap — the updater's entire query
          // bill in concurrent mode.
          DDC_TRACE_SPAN("runner.publish");
          auto work = std::make_shared<ReaderWork>();
          work->snapshot = clusterer.Snapshot();
          work->qids = query_ids;
          reader_work.Store(std::move(work));
          break;
        }
        const CGroupByResult r = clusterer.Query(query_ids);
        // Keep the optimizer honest.
        DDC_CHECK(r.groups.size() + r.noise.size() + 1 > 0);
        break;
      }
    }
    // Durability before acknowledgment: the record is appended (and synced,
    // per the writer's policy) inside the timed window, so an update only
    // counts as done once it would survive a crash. A WAL failure aborts —
    // silently continuing would acknowledge ops recovery cannot replay.
    if (is_update && options.wal != nullptr && !options.wal->Append(logged)) {
      std::fprintf(stderr, "runner: wal append failed: %s\n",
                   options.wal->error().c_str());
      std::abort();
    }
    // One timestamp ends the op measurement *and* feeds the budget check
    // below — the runner pays two clock reads per op, not three.
    const Clock::time_point t1 = Clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    total_cost_us += us;
    ++stats.ops_executed;
    hist->Record(us);
    if (op.type == Operation::Type::kQuery) {
      query_cost_us += us;
      ++stats.queries_executed;
    } else {
      update_cost_us += us;
      ++stats.updates_executed;
      stats.max_update_cost_us = std::max(stats.max_update_cost_us, us);
    }

    if (--until_checkpoint == 0 || stats.ops_executed == total_ops) {
      until_checkpoint = checkpoint_stride;
      stats.checkpoint_ops.push_back(stats.ops_executed);
      stats.avg_cost_us.push_back(total_cost_us /
                                  static_cast<double>(stats.ops_executed));
      stats.max_upd_cost_us.push_back(stats.max_update_cost_us);
    }

    if (options.time_budget_seconds > 0 &&
        std::chrono::duration<double>(t1 - run_start).count() >
            options.time_budget_seconds) {
      stats.timed_out = true;
      break;
    }
    if (options.stop_requested != nullptr && *options.stop_requested != 0) {
      stats.interrupted = true;
      break;
    }
  }

  // Asynchronous engines may still hold enqueued updates; the barrier keeps
  // them inside the timing window so throughput reflects applied work.
  clusterer.Flush();

  // Stop the read side inside the timing window too — reader throughput is
  // measured against the same wall clock as the update stream.
  if (concurrent_readers) {
    reader_stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    for (size_t r = 0; r < reader_hist.size(); ++r) {
      stats.reader_query_latency_us.MergeFrom(reader_hist[r]);
      stats.reader_queries_executed += reader_count[r];
    }
  }

  // A truncated run still ends with a terminal checkpoint at ops_executed,
  // so the series covers exactly the executed prefix.
  if (stats.ops_executed > 0 &&
      (stats.checkpoint_ops.empty() ||
       stats.checkpoint_ops.back() != stats.ops_executed)) {
    stats.checkpoint_ops.push_back(stats.ops_executed);
    stats.avg_cost_us.push_back(total_cost_us /
                                static_cast<double>(stats.ops_executed));
    stats.max_upd_cost_us.push_back(stats.max_update_cost_us);
  }

  stats.total_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  // Leave everything logged durable at run end, whatever the group-commit
  // cadence was mid-run. This one sync lies outside the timed window: a
  // single fsync's latency is the disk's, and on a short run it would swamp
  // the ops it follows. Appends, and the syncs the writer's policy asks
  // for, stay inside (see RunOptions::wal).
  if (options.wal != nullptr) {
    if (!options.wal->Sync()) {
      std::fprintf(stderr, "runner: final wal sync failed: %s\n",
                   options.wal->error().c_str());
      std::abort();
    }
    stats.wal_last_seq = options.wal->next_seq() - 1;
  }

  if (stats.ops_executed > 0) {
    stats.avg_workload_cost_us =
        total_cost_us / static_cast<double>(stats.ops_executed);
  }
  if (stats.updates_executed > 0) {
    stats.avg_update_cost_us =
        update_cost_us / static_cast<double>(stats.updates_executed);
  }
  if (stats.queries_executed > 0) {
    stats.avg_query_cost_us =
        query_cost_us / static_cast<double>(stats.queries_executed);
  }
  if (stats.total_seconds > 0) {
    stats.reader_queries_per_sec =
        static_cast<double>(stats.reader_queries_executed) /
        stats.total_seconds;
  }
  return stats;
}

}  // namespace ddc
