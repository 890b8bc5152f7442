// Unified benchmark driver: runs --methods × --scenario combinations under a
// time budget and writes one machine-readable BENCH_<scenario>_<method>.json
// per pair — the repo's perf-trajectory format (schema_version'd; see the
// "Benchmark driver" section of README.md).
//
// Usage:
//   ddc_driver                                # all scenarios × default methods
//   ddc_driver --scenario='burst:n=200000,dup=0.3;zipf'
//              --methods=double-approx,inc-dbscan
//              --rho=0.001 --minpts=10 --budget=30 --seed=1 --out-dir=bench-out
//   ddc_driver --list                         # print the scenario library
//
// Flags (a flag the chosen mode does not read aborts the run, naming it):
//   --scenario    ';'-separated scenario specs (grammar: name[:k=v,k=v...],
//                 read by ddc::Spec). A malformed or non-finite value, or a
//                 key the scenario does not read, aborts naming it.
//                 Default: every registered scenario with default parameters.
//   --methods     ';'- or ','-separated method specs from
//                 core/method_registry.h (same grammar as scenarios, e.g.
//                 sharded-double-approx:shards=8,threads=8). ';' is the
//                 outer separator when any spec carries knobs.
//                 Default: double-approx,inc-dbscan (the fully-dynamic pair;
//                 semi-dynamic methods are skipped on workloads with deletes).
//   --query-threads
//                 Closed-loop snapshot reader threads (default 0 = queries
//                 run on the main thread). With N > 0 the main thread
//                 publishes a snapshot at each query op and N readers hammer
//                 the latest one; BENCH records reader count, query total
//                 and aggregate reader throughput (run.reader_*).
//   --eps-over-d  Epsilon per dimension: eps = eps-over-d * dim (default
//                 100, the paper's).
//   --minpts      MinPts (default 10).
//   --rho         Approximation slack (default 0.001; exact methods force 0).
//   --budget      Per-run time budget in seconds (default 30; <= 0 unlimited).
//   --checkpoints Number of avgcost/maxupdcost checkpoints (default 10).
//   --seed        Workload seed (default 1; a spec's seed= key wins).
//   --out-dir     Output directory for BENCH_*.json (default ".").
//   --metrics-out Write a standalone dump of the full metrics registry
//                 (counters + gauges, absolute values) to this path at exit.
//   --trace-out   Enable span tracing for the whole invocation and write the
//                 Chrome trace_event JSON to this path at exit (load it in
//                 chrome://tracing or ui.perfetto.dev).
//
// Live monitoring (see the "Monitoring" section of README.md):
//   --stats-port  Serve GET /metrics (Prometheus text), /varz (JSON) and
//                 /healthz on 127.0.0.1:<port>. 0 binds an ephemeral port;
//                 the chosen port is printed as
//                 "stats: listening on 127.0.0.1:<port>". Unset = no
//                 listener, no overhead beyond the metrics themselves.
//   --stats-interval-ms
//                 Background sampler tick (default 250): every tick the
//                 registry delta lands in a bounded in-memory ring.
//   --stats-ring-out
//                 Write the sampled ring as a JSON time series to this path
//                 at exit/SIGINT (implies the sampler even without
//                 --stats-port).
//
// Durability (see the "Durability" section of README.md):
//   --wal-dir     Log every applied update to a write-ahead log before it
//                 leaves the timing window: appends, and the syncs
//                 --wal-sync asks for, are timed. The one sync at run end
//                 that leaves the whole log durable is not. Each
//                 scenario×method run logs into its own subdirectory
//                 <wal-dir>/<scenario>_<method>/ (RUNMETA.json +
//                 wal-*.log); a directory that already holds a log is
//                 refused, never appended to.
//   --wal-sync    fsync policy: 0 = never (default; a SIGKILL still loses
//                 nothing — only power failure can), 1 = every record,
//                 N > 1 = group commit every N records.
//   --recover     Recover from a --wal-dir run subdirectory: replay the
//                 whole log into a fresh clusterer of the logged method
//                 (truncating a torn tail, refusing corruption or a gap
//                 anywhere else), report, and exit.
//   --recover-verify
//                 After --recover, rebuild the scenario from RUNMETA and
//                 check the recovered clustering is bit-identical to an
//                 uncrashed in-process replay of the same logged prefix.
//
// SIGINT/SIGTERM end the current run at the next operation boundary: the
// truncated run still writes a valid BENCH file (run.interrupted=true,
// terminal checkpoint included), remaining runs are skipped, and the
// metrics/trace dumps are flushed before exit (status 130).

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/io.h"
#include "common/json.h"
#include "core/method_registry.h"
#include "engine/sharded_clusterer.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "scenario/scenario.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/resource.h"
#include "telemetry/sampler.h"
#include "telemetry/stats_server.h"
#include "telemetry/trace.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int sig) {
  g_stop = 1;
  // Second signal: default disposition, i.e. die immediately.
  std::signal(sig, SIG_DFL);
}

/// Writes `text` + newline to `path` (truncating) through the error-checked
/// io helper; best-effort, complains on stderr with the failing call's
/// errno.
bool WriteFileOrWarn(const std::string& path, const std::string& text) {
  std::string error;
  if (!ddc::WriteFile(path, text + "\n", &error)) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

/// Standalone metrics dump: the full registry, absolute values.
std::string MetricsDumpJson() {
  ddc::JsonWriter j;
  j.BeginObject();
  j.Key("tool").String("ddc_driver");
  j.Key("kind").String("metrics_dump");
  j.Key("metrics");
  ddc::WriteMetrics(j, ddc::MetricsRegistry::Instance().Snapshot());
  j.EndObject();
  return j.str();
}

/// The --recover entry point: reassemble the clustering from a durability
/// directory, optionally cross-check it against an uncrashed in-process
/// replay, report, and exit.
int RunRecover(const std::string& dir, bool verify) {
  ddc::RecoveryResult result;
  ddc::RunMeta meta;
  std::string error;
  if (!ddc::RecoverFromDir(dir, &result, &meta, &error)) {
    std::fprintf(stderr, "recovery failed: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& note : result.notes) {
    std::printf("[recover] %s\n", note.c_str());
  }
  std::printf(
      "[recover] method=%s scenario=%s seed=%llu -> %lld alive points\n",
      meta.method.c_str(), meta.scenario.c_str(),
      static_cast<unsigned long long>(meta.seed),
      static_cast<long long>(result.clusterer->size()));
  if (!verify) return 0;

  // Rebuild the scenario the log came from and replay its update stream —
  // queries skipped — op for op against the log. The recovered clusterer
  // must (a) have logged exactly this prefix and (b) answer QueryAll
  // bit-identically to the uncrashed reference.
  const ddc::Workload workload =
      ddc::BuildScenarioWorkload(meta.scenario, meta.seed);
  if (workload.dim != meta.params.dim) {
    std::fprintf(stderr,
                 "recover-verify: scenario %s builds dim %d but RUNMETA says"
                 " dim %d\n",
                 meta.scenario.c_str(), workload.dim, meta.params.dim);
    return 1;
  }
  std::unique_ptr<ddc::Clusterer> reference =
      ddc::MakeMethod(meta.method, meta.params);
  std::vector<ddc::PointId> id_of(workload.points.size(), ddc::kInvalidPoint);
  size_t applied = 0;
  for (const ddc::Operation& op : workload.ops) {
    if (applied == result.ops.size()) break;
    if (op.type == ddc::Operation::Type::kQuery) continue;
    const ddc::WalOp& logged = result.ops[applied];
    ++applied;
    if (op.type == ddc::Operation::Type::kInsert) {
      const ddc::PointId id = reference->Insert(workload.points[op.target]);
      id_of[op.target] = id;
      if (logged.type != ddc::WalOp::Type::kInsert || logged.id != id ||
          !(logged.point == workload.points[op.target])) {
        std::fprintf(stderr,
                     "recover-verify: wal seq %llu does not match the"
                     " scenario's update %zu (insert id %d)\n",
                     static_cast<unsigned long long>(logged.seq), applied,
                     id);
        return 1;
      }
    } else {
      if (logged.type != ddc::WalOp::Type::kDelete ||
          logged.id != id_of[op.target]) {
        std::fprintf(stderr,
                     "recover-verify: wal seq %llu does not match the"
                     " scenario's update %zu (delete id %d)\n",
                     static_cast<unsigned long long>(logged.seq), applied,
                     id_of[op.target]);
        return 1;
      }
      reference->Delete(id_of[op.target]);
      id_of[op.target] = ddc::kInvalidPoint;
    }
  }
  if (applied != result.ops.size()) {
    std::fprintf(stderr,
                 "recover-verify: log holds %zu updates but the scenario"
                 " only has %zu\n",
                 result.ops.size(), applied);
    return 1;
  }
  reference->Flush();
  ddc::CGroupByResult expected = reference->QueryAll();
  ddc::CGroupByResult recovered = result.clusterer->QueryAll();
  expected.Canonicalize();
  recovered.Canonicalize();
  if (!(expected == recovered)) {
    std::fprintf(stderr,
                 "recover-verify: recovered clustering differs from the"
                 " uncrashed replay (%zu vs %zu groups)\n",
                 recovered.groups.size(), expected.groups.size());
    return 1;
  }
  std::printf(
      "[recover] verify OK: %zu replayed updates, clustering bit-identical"
      " (%zu groups, %zu noise)\n",
      applied, expected.groups.size(), expected.noise.size());
  return 0;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

// Method lists split on ';' (the outer separator once specs carry ,-joined
// knobs); a ';'-piece without knobs still splits on ',' so the historical
// --methods=double-approx,inc-dbscan form keeps working.
std::vector<std::string> SplitMethods(const std::string& text) {
  std::vector<std::string> methods;
  for (const std::string& piece : Split(text, ';')) {
    if (piece.find(':') == std::string::npos) {
      for (const std::string& m : Split(piece, ',')) methods.push_back(m);
    } else {
      methods.push_back(piece);
    }
  }
  return methods;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);

  if (flags.GetBool("list", false)) {
    flags.CheckAllRead();
    std::printf("Scenarios (spec grammar: name[:key=value,key=value...]):\n%s",
                ddc::ScenarioHelp().c_str());
    std::printf("%s", ddc::MethodHelp().c_str());
    return 0;
  }

  const std::string recover_dir = flags.GetString("recover", "");
  if (!recover_dir.empty()) {
    const bool verify = flags.GetBool("recover-verify", false);
    flags.CheckAllRead();
    return RunRecover(recover_dir, verify);
  }

  std::string default_scenarios;
  for (const auto& s : ddc::AllScenarios()) {
    if (!default_scenarios.empty()) default_scenarios += ';';
    default_scenarios += s->name();
  }
  const std::vector<std::string> specs =
      Split(flags.GetString("scenario", default_scenarios), ';');
  const std::vector<std::string> methods =
      SplitMethods(flags.GetString("methods", "double-approx,inc-dbscan"));
  DDC_CHECK(!specs.empty() && !methods.empty());

  for (const std::string& m : methods) {
    std::string why;
    if (!ddc::ValidateMethodSpec(m, &why)) {
      std::fprintf(stderr, "bad method spec '%s': %s\n%s\n(see --list)\n",
                   m.c_str(), why.c_str(), ddc::MethodHelp().c_str());
      return 1;
    }
  }

  const double budget = flags.GetDouble("budget", 30.0);
  const int checkpoints = static_cast<int>(flags.GetInt("checkpoints", 10));
  const int query_threads =
      static_cast<int>(flags.GetInt("query-threads", 0));
  DDC_CHECK(query_threads >= 0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string out_dir = flags.GetString("out-dir", ".");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");

  const std::string wal_dir = flags.GetString("wal-dir", "");
  const int wal_sync = static_cast<int>(flags.GetInt("wal-sync", 0));

  // Live monitoring: the sampler runs whenever anything consumes it — a
  // ring dump or the stats server; the server additionally needs a port.
  const bool has_stats_port = flags.Has("stats-port");
  const int stats_port = static_cast<int>(flags.GetInt("stats-port", 0));
  const int stats_interval_ms =
      static_cast<int>(flags.GetInt("stats-interval-ms", 250));
  const std::string stats_ring_out = flags.GetString("stats-ring-out", "");

  // Clustering parameters; eps follows each scenario's dimension.
  const double eps_over_d = flags.GetDouble("eps-over-d", 100.0);
  const int min_pts = static_cast<int>(flags.GetInt("minpts", 10));
  const double rho = flags.GetDouble("rho", 0.001);
  flags.CheckAllRead();

  std::filesystem::create_directories(out_dir);
  if (!trace_out.empty()) ddc::Trace::Enable();

  std::unique_ptr<ddc::StatsSampler> sampler;
  if (has_stats_port || !stats_ring_out.empty()) {
    ddc::StatsSampler::Options sampler_options;
    sampler_options.interval_ms = stats_interval_ms;
    sampler = std::make_unique<ddc::StatsSampler>(sampler_options);
    sampler->Start();
  }
  std::unique_ptr<ddc::StatsServer> stats_server;
  if (has_stats_port) {
    ddc::StatsServer::Options server_options;
    server_options.port = stats_port;
    server_options.build_info = "ddc_driver";
    stats_server =
        std::make_unique<ddc::StatsServer>(server_options, sampler.get());
    if (!stats_server->Start()) {
      std::fprintf(stderr, "stats: %s\n", stats_server->error().c_str());
      return 1;
    }
    std::printf("stats: listening on 127.0.0.1:%d\n", stats_server->port());
    std::fflush(stdout);
  }

  // A first Ctrl-C ends the current run at the next operation boundary and
  // still flushes every output; a second one gets the default disposition
  // (set by the handler itself) and kills the process.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  int written = 0;
  std::set<std::string> written_paths;
  for (const std::string& spec : specs) {
    if (g_stop != 0) break;
    const ddc::Workload workload = ddc::BuildScenarioWorkload(spec, seed);
    ddc::Spec parsed;
    std::string parse_error;  // None: the spec just built a workload.
    DDC_CHECK(ddc::Spec::Parse(spec, &parsed, &parse_error));
    const std::string& scenario = parsed.name();

    ddc::DbscanParams params;
    params.dim = workload.dim;
    params.eps = eps_over_d * workload.dim;
    params.min_pts = min_pts;
    params.rho = rho;
    params.Validate();

    for (const std::string& method : methods) {
      if (workload.num_deletes > 0 && !ddc::MethodSupportsDeletes(method)) {
        std::fprintf(stderr,
                     "[skip] %s on %s: insert-only method, workload has %lld"
                     " deletes\n",
                     method.c_str(), scenario.c_str(),
                     static_cast<long long>(workload.num_deletes));
        continue;
      }
      std::printf("[run ] %s on %s (N=%lld ops=%zu)...\n", method.c_str(),
                  spec.c_str(), static_cast<long long>(workload.num_updates),
                  workload.ops.size());
      std::fflush(stdout);

      // Best-effort HWM reset so peak_rss_bytes is per-run, not the
      // cumulative maximum across everything this process ran before.
      // Gauges likewise start the run at zero: this run's BENCH file must
      // not report what an earlier run in the same invocation left there.
      ddc::ResetPeakRss();
      ddc::MetricsRegistry::Instance().ResetGauges();
      std::unique_ptr<ddc::Clusterer> clusterer =
          ddc::MakeMethod(method, params);
      ddc::RunOptions options;
      options.num_checkpoints = checkpoints;
      options.time_budget_seconds = budget;
      options.query_threads = query_threads;
      options.stop_requested = &g_stop;

      // Durability side: each run logs into its own subdirectory so one
      // invocation's scenario×method sweep leaves one recoverable directory
      // per run. RUNMETA goes down before the first logged op — recovery
      // must never find a log it cannot interpret.
      std::unique_ptr<ddc::WalWriter> wal;
      if (!wal_dir.empty()) {
        const std::string run_dir = wal_dir + "/" +
                                    ddc::SanitizeForFilename(scenario) + "_" +
                                    ddc::SanitizeForFilename(method);
        std::filesystem::create_directories(run_dir);
        ddc::RunMeta run_meta;
        run_meta.method = method;
        run_meta.scenario = spec;
        run_meta.seed = workload.seed;
        run_meta.params = ddc::EffectiveParams(method, params);
        std::string error;
        if (!ddc::WriteRunMeta(run_dir, run_meta, &error)) {
          std::fprintf(stderr, "cannot write RUNMETA: %s\n", error.c_str());
          return 1;
        }
        ddc::WalWriter::Options wal_options;
        wal_options.sync_every = wal_sync;
        wal = std::make_unique<ddc::WalWriter>(run_dir, wal_options);
        if (!wal->ok()) {
          std::fprintf(stderr, "cannot open wal: %s\n", wal->error().c_str());
          return 1;
        }
        options.wal = wal.get();
      }

      const std::vector<ddc::MetricSample> metrics_before =
          ddc::MetricsRegistry::Instance().Snapshot();
      const ddc::RunStats stats =
          ddc::RunWorkload(*clusterer, workload, options);
      if (wal != nullptr && !wal->Close()) {
        std::fprintf(stderr, "wal close failed: %s\n", wal->error().c_str());
        return 1;
      }

      // Per-shard occupancy telemetry for the sharded engine: imbalance and
      // replication overhead are invisible in aggregate throughput. The
      // gauges land in the registry (and thus in this run's BENCH metrics);
      // the console echo keeps them visible in interactive runs.
      if (auto* sharded =
              dynamic_cast<ddc::ShardedClusterer*>(clusterer.get())) {
        sharded->PublishShardMetrics();
        ddc::PrintMetrics("engine.");
      }

      ddc::BenchRecord record;
      record.scenario = scenario;
      record.scenario_spec = spec;
      record.method = method;
      // Provenance must match the executed run: exact methods force rho to
      // 0, and a spec seed= key beats --seed.
      record.params = ddc::EffectiveParams(method, params);
      record.seed = workload.seed;
      record.peak_rss_bytes = ddc::PeakRssBytes();
      record.workload = &workload;
      record.stats = &stats;
      // Counters as deltas over this run, gauges as point-in-time values.
      record.metrics = ddc::DeltaSince(
          metrics_before, ddc::MetricsRegistry::Instance().Snapshot());
      const std::string json = ddc::BenchJson(record);

      // Never ship a document this build can't read back.
      std::string why;
      if (!ddc::ValidateBenchJson(json, &why)) {
        std::fprintf(stderr, "BENCH JSON self-validation failed: %s\n",
                     why.c_str());
        return 1;
      }

      const std::string path = out_dir + "/BENCH_" +
                               ddc::SanitizeForFilename(scenario) + "_" +
                               ddc::SanitizeForFilename(method) + ".json";
      if (!written_paths.insert(path).second) {
        // Filenames key on (scenario, method) only; two specs of the same
        // scenario would silently clobber each other — refuse instead.
        std::fprintf(stderr,
                     "refusing to overwrite %s already written by this"
                     " invocation; run same-name scenario specs with"
                     " separate --out-dir\n",
                     path.c_str());
        return 1;
      }
      std::string write_error;
      if (!ddc::WriteFile(path, json + "\n", &write_error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     write_error.c_str());
        return 1;
      }
      ++written;

      char readers[96] = "";
      if (stats.query_threads > 0) {
        std::snprintf(readers, sizeof(readers),
                      " readers=%d qps=%.0f p99=%.1fus", stats.query_threads,
                      stats.reader_queries_per_sec,
                      stats.reader_query_latency_us.Quantile(0.99));
      }
      std::printf(
          "[done] %s  avg=%.2fus maxupd=%.1fus thru=%.0f ops/s%s%s -> %s\n",
          method.c_str(), stats.avg_workload_cost_us, stats.max_update_cost_us,
          stats.total_seconds > 0
              ? static_cast<double>(stats.ops_executed) / stats.total_seconds
              : 0,
          readers,
          stats.interrupted ? " [INTERRUPTED]"
                            : (stats.timed_out ? " [TIMEOUT]" : ""),
          path.c_str());
      std::fflush(stdout);

      if (g_stop != 0) break;
    }
    if (g_stop != 0) break;
  }

  // Terminal flush: both dumps are written even (especially) when a signal
  // truncated the sweep, so an interrupted invocation still leaves valid
  // observability artifacts behind.
  bool flush_ok = true;
  if (stats_server != nullptr) stats_server->Stop();
  if (sampler != nullptr) {
    // One last tick so the ring always covers the run's tail, then dump.
    sampler->SampleNow();
    sampler->Stop();
    if (!stats_ring_out.empty()) {
      flush_ok &= WriteFileOrWarn(stats_ring_out, sampler->RingJson());
    }
  }
  if (!metrics_out.empty()) {
    flush_ok &= WriteFileOrWarn(metrics_out, MetricsDumpJson());
  }
  if (!trace_out.empty()) {
    flush_ok &= WriteFileOrWarn(trace_out, ddc::Trace::ChromeTraceJson());
  }

  std::printf("wrote %d BENCH file(s) to %s%s\n", written, out_dir.c_str(),
              g_stop != 0 ? " [interrupted]" : "");
  if (g_stop != 0) return 130;
  if (!flush_ok) return 1;
  return written > 0 ? 0 : 1;
}
