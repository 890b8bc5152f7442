#ifndef DDC_WORKLOAD_RUNNER_H_
#define DDC_WORKLOAD_RUNNER_H_

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "persist/wal.h"
#include "telemetry/histogram.h"
#include "workload/workload.h"

namespace ddc {

/// Metrics of one workload execution, matching Section 8.2's definitions:
/// avgcost(t) averages over all operations (updates and queries) up to t;
/// maxupdcost(t) maximizes over updates only.
struct RunStats {
  /// Checkpoint positions (operation counts) and the two time series. A run
  /// that hits its time budget still ends with a terminal checkpoint at
  /// ops_executed, so truncated series stay aligned with the aggregates.
  std::vector<int64_t> checkpoint_ops;
  std::vector<double> avg_cost_us;
  std::vector<double> max_upd_cost_us;

  /// Full latency distributions per operation type (microseconds). Only the
  /// clusterer call is timed — runner bookkeeping (query-id resolution,
  /// checkpointing) stays outside the measured window. With query_threads
  /// > 0 the main thread publishes a snapshot instead of executing query
  /// ops, and query_latency_us records that publication cost.
  LatencyHistogram insert_latency_us;
  LatencyHistogram delete_latency_us;
  LatencyHistogram query_latency_us;

  /// Concurrent read side (populated when RunOptions::query_threads > 0):
  /// the merged latency distribution of every closed-loop reader query,
  /// their total count, and the aggregate reader throughput over the run.
  int query_threads = 0;
  LatencyHistogram reader_query_latency_us;
  int64_t reader_queries_executed = 0;
  double reader_queries_per_sec = 0;

  /// Final aggregates: "average workload cost" = avgcost(W).
  double avg_workload_cost_us = 0;
  double max_update_cost_us = 0;
  double avg_update_cost_us = 0;
  double avg_query_cost_us = 0;

  int64_t ops_executed = 0;
  int64_t updates_executed = 0;
  int64_t queries_executed = 0;
  double total_seconds = 0;

  /// True when the run hit the time budget before finishing (the paper
  /// terminated IncDBSCAN after 3 hours in 5D/7D; we do the same, scaled).
  bool timed_out = false;

  /// True when RunOptions::stop_requested fired mid-run (SIGINT/SIGTERM in
  /// the driver): the stats cover the executed prefix, exactly like a
  /// timeout, but the two causes are reported apart.
  bool interrupted = false;

  /// Durability accounting (zero unless RunOptions wires a WAL): the WAL
  /// seq of the last logged update.
  uint64_t wal_last_seq = 0;
};

struct RunOptions {
  /// Record avgcost/maxupdcost at this many evenly spaced checkpoints.
  int num_checkpoints = 10;
  /// Abort the run when it exceeds this budget (<= 0: unlimited).
  double time_budget_seconds = 0;
  /// Closed-loop snapshot reader threads. 0 (the default) replays queries
  /// on the main thread, exactly as before. N > 0 moves the read side off
  /// the update path: the main thread drives the update stream and, at
  /// every query operation, publishes a fresh ClusterSnapshot plus that
  /// operation's resolved query ids; the N readers loop over the latest
  /// published work, each timing its own queries into a local histogram
  /// (merged into RunStats at the end). Readers never synchronize with the
  /// updater beyond the atomic work handle — the measurement of the
  /// lock-free read path.
  int query_threads = 0;
  /// When non-null, checked once per operation: a non-zero value ends the
  /// run cleanly (terminal checkpoint, aggregates over the executed prefix,
  /// stats.interrupted = true). sig_atomic_t so a signal handler may be the
  /// writer.
  const volatile std::sig_atomic_t* stop_requested = nullptr;

  /// When non-null, every applied update is appended to this WAL *inside
  /// the timed window*, between the clusterer call and the closing
  /// timestamp: the op is durable (per the writer's fsync policy) before it
  /// counts as done, so measured update cost includes the durability bill.
  /// The one sync at run end, which leaves the whole log durable whatever
  /// the policy, runs after the timed window closes.
  /// A WAL write error aborts the run (durability is not best-effort).
  WalWriter* wal = nullptr;
};

/// Replays `workload` against `clusterer`, timing every operation.
RunStats RunWorkload(Clusterer& clusterer, const Workload& workload,
                     const RunOptions& options);

}  // namespace ddc

#endif  // DDC_WORKLOAD_RUNNER_H_
