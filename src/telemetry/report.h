#ifndef DDC_TELEMETRY_REPORT_H_
#define DDC_TELEMETRY_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/params.h"
#include "telemetry/histogram.h"
#include "telemetry/metrics.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace ddc {

/// Run-report rendering: the schema-versioned BENCH JSON document that
/// `ddc_driver` writes per run, its validator, and the JSON pieces
/// (metrics, latency summaries) the stats server and sampler reuse.

/// Sanitizes a scenario/method spec for use in a BENCH filename: every
/// character outside [A-Za-z0-9._-] becomes '-'. Whitelisting (rather than
/// rewriting the known spec punctuation ':,=') keeps future knob values
/// containing '/', ';', spaces, or shell metacharacters from producing
/// broken or path-escaping filenames.
std::string SanitizeForFilename(const std::string& text);

/// Writes `{"count":..,"mean":..,"p50":..,"p90":..,"p99":..,"p999":..,
/// "max":..}` (microseconds) as the next value of `w`.
void WriteLatencySummary(JsonWriter& w, const LatencyHistogram& h);

/// Writes `{"<name>": <value>, ...}` as the next value of `w` — one flat
/// object, metric names as keys (samples are already name-sorted when they
/// come from MetricsRegistry::Snapshot or DeltaSince).
void WriteMetrics(JsonWriter& w, const std::vector<MetricSample>& samples);

/// Everything identifying one (scenario, method) bench run. The caller owns
/// all measurement: `params` should be the parameters the run actually
/// executed with (EffectiveParams) and `peak_rss_bytes` the caller's RSS
/// capture (0 = unknown) — BenchJson renders, it does not sample state.
struct BenchRecord {
  std::string scenario;       // Registry name, e.g. "burst".
  std::string scenario_spec;  // Full spec string, e.g. "burst:n=1000".
  std::string method;
  DbscanParams params;
  uint64_t seed = 0;
  int64_t peak_rss_bytes = 0;
  const Workload* workload = nullptr;
  const RunStats* stats = nullptr;
  /// Per-run metrics view (counters as deltas over the run, gauges as-is);
  /// rendered as the v3 `metrics` section. See DeltaSince.
  std::vector<MetricSample> metrics;
};

/// Version of the BENCH JSON schema below. Bump on any breaking change to
/// field names, nesting, or units.
///   v2: concurrent read side — run.query_threads, run.reader_queries,
///       run.reader_queries_per_sec, latency_us.reader_query.
///   v3: observability — top-level `metrics` object (per-run counter
///       deltas + gauges from the metrics registry), run.interrupted
///       (true when a signal truncated the run).
inline constexpr int kBenchSchemaVersion = 3;

/// Renders the schema-stable BENCH document: schema_version, scenario,
/// method, params, workload shape, run aggregates (throughput, timed_out,
/// peak RSS), per-op-type latency quantiles, and the checkpoint series.
/// All durations are microseconds unless the key says otherwise.
std::string BenchJson(const BenchRecord& record);

/// Structural check of a BENCH document: parses and verifies the
/// schema_version, which must be kBenchSchemaVersion, and every required
/// key. `ddc_driver` runs this on its own output before writing, so an
/// emitted file is a validated file. On failure returns false and
/// describes the problem in `*why`.
bool ValidateBenchJson(const std::string& json, std::string* why);

}  // namespace ddc

#endif  // DDC_TELEMETRY_REPORT_H_
