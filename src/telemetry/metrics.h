#ifndef DDC_TELEMETRY_METRICS_H_
#define DDC_TELEMETRY_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/histogram.h"

namespace ddc {

/// \file
/// Process-wide metrics registry: named monotonic counters, set/max gauges,
/// and latency histograms, cheap enough to leave on in hot paths. A counter
/// increment is a single relaxed fetch_add on one of a small set of
/// cache-line-padded cells (the cell is picked per thread, round-robin, so
/// concurrent incrementers do not ping-pong one line); aggregation sums the
/// cells on read. Registration happens once per call site through a
/// function-local static reference, so the steady-state cost of
/// `DDC_COUNTER_INC` is the static-init guard check plus the atomic add.
///
/// Counters only ever go up (deltas between two snapshots are meaningful);
/// gauges are point-in-time values written with last-wins `Set` or
/// monotone `UpdateMax` (high-water marks). Values are int64 — the
/// reporters convert units, not the hot paths.
///
/// Histograms record microsecond durations into per-thread-striped cells of
/// log-spaced buckets (the LatencyHistogram bucket math, 2^(1/8) spacing);
/// merging on read yields exact count/sum/min/max plus quantiles with ≤ one
/// bucket (≈ 9%) of relative error. A record is a handful of relaxed atomic
/// ops — an order heavier than a counter bump, so histograms belong on
/// coarse operations (an fsync, a snapshot build, a batch apply), never on
/// per-point hot paths.

/// What a metric's value means; fixed at registration.
enum class MetricKind {
  kCounter = 0,    ///< Monotonic sum; report deltas between snapshots.
  kGauge = 1,      ///< Point-in-time value; Set (last wins) or UpdateMax.
  kHistogram = 2,  ///< Distribution of recorded durations (microseconds).
};

/// Merged read-side view of one histogram metric: exact count/sum/min/max
/// over every recorded sample plus the log-spaced bucket counts (indexed
/// exactly like LatencyHistogram — bucket i covers values up to
/// BucketUpperEdge(i) microseconds). Durations are stored in integer
/// nanoseconds so concurrent recording can use plain fetch_add; the
/// accessors convert back to microseconds, the registry's reporting unit.
struct HistogramData {
  int64_t count = 0;
  int64_t sum_ns = 0;
  int64_t min_ns = 0;  ///< Meaningful only when count > 0.
  int64_t max_ns = 0;  ///< Meaningful only when count > 0.
  /// Per-bucket sample counts, trimmed after the last non-empty bucket
  /// (empty vector when count == 0).
  std::vector<int64_t> buckets;

  double sum_us() const { return static_cast<double>(sum_ns) / 1000.0; }
  double min_us() const {
    return count > 0 ? static_cast<double>(min_ns) / 1000.0 : 0;
  }
  double max_us() const {
    return count > 0 ? static_cast<double>(max_ns) / 1000.0 : 0;
  }
  double mean_us() const { return count > 0 ? sum_us() / count : 0; }

  /// The q-quantile in microseconds, same semantics as
  /// LatencyHistogram::Quantile: the upper edge of the bucket holding the
  /// ceil(q * count)-th smallest sample, capped at the recorded maximum.
  double Quantile(double q) const;
};

/// Short name ("counter" / "gauge" / "histogram") for reports.
const char* MetricKindName(MetricKind kind);

/// One named metric. Never constructed directly — obtained from
/// MetricsRegistry::GetOrCreate, which guarantees a stable address for the
/// process lifetime (the macros below cache the reference in a static).
class Metric {
 public:
  /// Sharded counter cells; threads map onto them round-robin, so up to
  /// kCells incrementers proceed without sharing a cache line.
  static constexpr int kCells = 16;

  /// Histogram stripes: each is a full bucket array (~2.7 KB), so fewer of
  /// them than counter cells — histogram records sit on coarse operations
  /// where modest sharing is invisible next to the work being measured.
  static constexpr int kHistCells = 8;

  Metric(const Metric&) = delete;
  Metric& operator=(const Metric&) = delete;

  /// Counter: adds `delta` (relaxed) to this thread's cell.
  void Add(int64_t delta) {
    cells_[ThreadCellIndex()].value.fetch_add(delta,
                                              std::memory_order_relaxed);
  }

  /// Gauge: last write wins.
  void Set(int64_t value) { gauge_.store(value, std::memory_order_relaxed); }

  /// Gauge: raises the value to `value` if it is higher (high-water mark).
  void UpdateMax(int64_t value) {
    int64_t cur = gauge_.load(std::memory_order_relaxed);
    while (cur < value && !gauge_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  /// Histogram: records one duration (microseconds; sub-microsecond values
  /// keep full bucket resolution down to 1 ns) into this thread's stripe.
  /// A handful of relaxed atomic ops, lock-free and allocation-free.
  void Record(double us);

  /// Aggregated value: sum of the cells for counters, the stored value for
  /// gauges, the total sample count for histograms. Concurrent writers make
  /// this a momentary approximation; after the writers are joined it is
  /// exact.
  int64_t Value() const;

  /// Merged view of a histogram metric's stripes (empty when nothing was
  /// recorded). Same momentary-approximation caveat as Value().
  HistogramData HistogramValue() const;

  const std::string& name() const { return name_; }
  MetricKind kind() const { return kind_; }

 private:
  friend class MetricsRegistry;

  Metric(std::string name, MetricKind kind);

  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };

  /// One histogram stripe: bucket counts plus exact count/sum/min/max.
  struct alignas(64) HistCell {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum_ns{0};
    std::atomic<int64_t> min_ns{INT64_MAX};
    std::atomic<int64_t> max_ns{INT64_MIN};
    std::atomic<int64_t> buckets[LatencyHistogram::kNumBuckets]{};
  };

  /// This thread's counter cell, assigned once per thread round-robin.
  static int ThreadCellIndex() {
    static thread_local const int index = NextCellIndex();
    return index;
  }
  static int NextCellIndex();

  std::string name_;
  MetricKind kind_;
  Cell cells_[kCells];
  std::atomic<int64_t> gauge_{0};
  /// kHistCells stripes, allocated only for kHistogram metrics (a counter
  /// stays ~1 KB; a histogram costs ~22 KB once, at registration).
  std::unique_ptr<HistCell[]> hist_cells_;
};

/// One metric's name, kind, and aggregated value at snapshot time. For
/// histograms `value` is the sample count and `hist` holds the merged
/// distribution; for counters and gauges `hist` stays empty.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;
  HistogramData hist;
};

/// The process-wide registry. Thread-safe; metrics are never removed, so
/// references returned by GetOrCreate stay valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// The metric registered under `name`, created on first use. Aborts when
  /// `name` is already registered with a different kind — a name means one
  /// thing process-wide.
  Metric& GetOrCreate(std::string_view name, MetricKind kind);

  /// Every registered metric, sorted by name — the order is stable across
  /// snapshots (the registry only grows, and names sort the same way every
  /// time).
  std::vector<MetricSample> Snapshot() const;

  /// Aggregated value of `name`, or `fallback` when nothing is registered
  /// under it (reporters and tests; hot paths use the macros).
  int64_t ValueOf(std::string_view name, int64_t fallback = 0) const;

  /// Sets every gauge to 0, so that gauges read afterwards hold only what
  /// was written since this call (e.g. since the start of one benchmark
  /// run), not values left behind by earlier work in the process. Counters
  /// and histograms are untouched; runs read those as deltas.
  void ResetGauges();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  /// Name -> metric; unique_ptr keeps addresses stable, std::less<> lets
  /// string_view probe without allocating.
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> metrics_;
};

/// Per-run view between two snapshots: counters report `after - before`
/// (metrics absent from `before` count from zero), gauges report their
/// `after` value unchanged (a gauge is point-in-time, not a rate).
/// Histograms subtract like counters — count/sum/buckets become the
/// interval's own distribution, so quantiles of a delta describe just that
/// window. The stripes keep no per-interval extrema, so min/max are the
/// interval's own to within one bucket: an extreme that moved since
/// `before` is exact (it was recorded in the interval); one that did not
/// reads as the upper edge of the interval's first (min) or last (max)
/// non-empty bucket, capped at the maximum like a quantile. The sampler's
/// per-tick extremes come from here too.
std::vector<MetricSample> DeltaSince(const std::vector<MetricSample>& before,
                                     const std::vector<MetricSample>& after);

/// Prints "name<TAB>value" lines to stdout for metrics whose name starts
/// with `prefix` (empty prefix prints everything).
void PrintMetrics(std::string_view prefix);

/// Registers (first use) and bumps the named counter. `name` must be a
/// string literal or otherwise immortal; the resolved metric reference is
/// cached in a function-local static, so the hot cost is one relaxed add.
#define DDC_COUNTER_ADD(name, delta)                                        \
  do {                                                                      \
    static ::ddc::Metric& ddc_metric_static =                               \
        ::ddc::MetricsRegistry::Instance().GetOrCreate(                     \
            (name), ::ddc::MetricKind::kCounter);                           \
    ddc_metric_static.Add(delta);                                           \
  } while (0)

#define DDC_COUNTER_INC(name) DDC_COUNTER_ADD(name, 1)

/// Gauge write-through macros, same caching scheme as DDC_COUNTER_ADD.
#define DDC_GAUGE_SET(name, value)                                          \
  do {                                                                      \
    static ::ddc::Metric& ddc_metric_static =                               \
        ::ddc::MetricsRegistry::Instance().GetOrCreate(                     \
            (name), ::ddc::MetricKind::kGauge);                             \
    ddc_metric_static.Set(value);                                           \
  } while (0)

#define DDC_GAUGE_MAX(name, value)                                          \
  do {                                                                      \
    static ::ddc::Metric& ddc_metric_static =                               \
        ::ddc::MetricsRegistry::Instance().GetOrCreate(                     \
            (name), ::ddc::MetricKind::kGauge);                             \
    ddc_metric_static.UpdateMax(value);                                     \
  } while (0)

/// Records one duration (microseconds) into the named histogram, same
/// caching scheme as DDC_COUNTER_ADD. Meant for coarse operations — a
/// record is several relaxed atomic ops, not one.
#define DDC_HISTOGRAM_RECORD(name, us)                                      \
  do {                                                                      \
    static ::ddc::Metric& ddc_metric_static =                               \
        ::ddc::MetricsRegistry::Instance().GetOrCreate(                     \
            (name), ::ddc::MetricKind::kHistogram);                         \
    ddc_metric_static.Record(us);                                           \
  } while (0)

/// RAII helper for DDC_HISTOGRAM_SCOPED: records the scope's elapsed
/// microseconds into `metric` on destruction.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Metric& metric)
      : metric_(metric), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    metric_.Record(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Metric& metric_;
  std::chrono::steady_clock::time_point start_;
};

#define DDC_METRICS_CONCAT_INNER(a, b) a##b
#define DDC_METRICS_CONCAT(a, b) DDC_METRICS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing block into the named histogram (two
/// steady-clock reads plus one Record).
#define DDC_HISTOGRAM_SCOPED(name)                                          \
  static ::ddc::Metric& DDC_METRICS_CONCAT(ddc_hist_metric_, __LINE__) =    \
      ::ddc::MetricsRegistry::Instance().GetOrCreate(                       \
          (name), ::ddc::MetricKind::kHistogram);                           \
  ::ddc::ScopedHistogramTimer DDC_METRICS_CONCAT(ddc_hist_timer_,           \
                                                 __LINE__)(                 \
      DDC_METRICS_CONCAT(ddc_hist_metric_, __LINE__))

}  // namespace ddc

#endif  // DDC_TELEMETRY_METRICS_H_
