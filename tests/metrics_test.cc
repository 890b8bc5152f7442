#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace ddc {
namespace {

// The registry is process-global and never shrinks, so every test uses
// names unique to itself — isolation by namespace, not by reset.

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  Metric& counter = MetricsRegistry::Instance().GetOrCreate(
      "test.metrics.concurrent", MetricKind::kCounter);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Relaxed per-cell adds must still never lose an increment.
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, MacroRegistersOnceAndAccumulates) {
  for (int i = 0; i < 5; ++i) DDC_COUNTER_INC("test.metrics.macro");
  DDC_COUNTER_ADD("test.metrics.macro", 10);
  EXPECT_EQ(MetricsRegistry::Instance().ValueOf("test.metrics.macro"), 15);
}

TEST(MetricsTest, GaugeSetIsLastWins) {
  DDC_GAUGE_SET("test.metrics.gauge_set", 42);
  DDC_GAUGE_SET("test.metrics.gauge_set", 7);
  EXPECT_EQ(MetricsRegistry::Instance().ValueOf("test.metrics.gauge_set"), 7);
}

TEST(MetricsTest, GaugeUpdateMaxIsMonotone) {
  DDC_GAUGE_MAX("test.metrics.gauge_max", 5);
  DDC_GAUGE_MAX("test.metrics.gauge_max", 9);
  DDC_GAUGE_MAX("test.metrics.gauge_max", 3);  // Lower: must not regress.
  EXPECT_EQ(MetricsRegistry::Instance().ValueOf("test.metrics.gauge_max"), 9);
}

TEST(MetricsTest, ConcurrentUpdateMaxKeepsTheMaximum) {
  Metric& gauge = MetricsRegistry::Instance().GetOrCreate(
      "test.metrics.concurrent_max", MetricKind::kGauge);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 1000; ++i) gauge.UpdateMax(t * 1000 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), (kThreads - 1) * 1000 + 999);
}

TEST(MetricsTest, SnapshotIsNameSortedAndStable) {
  DDC_COUNTER_INC("test.metrics.sorted.b");
  DDC_COUNTER_INC("test.metrics.sorted.a");
  DDC_COUNTER_INC("test.metrics.sorted.c");
  const std::vector<MetricSample> snap = MetricsRegistry::Instance().Snapshot();
  ASSERT_FALSE(snap.empty());
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  // Registering nothing new between snapshots keeps the order identical.
  const std::vector<MetricSample> again =
      MetricsRegistry::Instance().Snapshot();
  ASSERT_EQ(snap.size(), again.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].name, again[i].name);
  }
}

TEST(MetricsTest, ValueOfUnknownNameReturnsFallback) {
  EXPECT_EQ(MetricsRegistry::Instance().ValueOf("test.metrics.absent", -7),
            -7);
}

TEST(MetricsTest, DeltaSinceSubtractsCountersAndPassesGaugesThrough) {
  DDC_COUNTER_ADD("test.metrics.delta.counter", 10);
  DDC_GAUGE_SET("test.metrics.delta.gauge", 100);
  const std::vector<MetricSample> before =
      MetricsRegistry::Instance().Snapshot();
  DDC_COUNTER_ADD("test.metrics.delta.counter", 5);
  DDC_GAUGE_SET("test.metrics.delta.gauge", 50);
  DDC_COUNTER_ADD("test.metrics.delta.fresh", 3);  // Absent from `before`.
  const std::vector<MetricSample> delta =
      DeltaSince(before, MetricsRegistry::Instance().Snapshot());

  auto value_of = [&delta](const std::string& name) -> int64_t {
    for (const MetricSample& s : delta) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "missing sample " << name;
    return -1;
  };
  EXPECT_EQ(value_of("test.metrics.delta.counter"), 5);
  EXPECT_EQ(value_of("test.metrics.delta.fresh"), 3);
  // Gauges are point-in-time, not rates: the after value, even when lower.
  EXPECT_EQ(value_of("test.metrics.delta.gauge"), 50);
}

TEST(MetricsTest, ResetGaugesZeroesGaugesOnly) {
  DDC_GAUGE_SET("test.metrics.reset.gauge", 42);
  DDC_GAUGE_MAX("test.metrics.reset.hwm", 9);
  DDC_COUNTER_ADD("test.metrics.reset.counter", 5);
  DDC_HISTOGRAM_RECORD("test.metrics.reset.hist", 3.0);
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetGauges();
  EXPECT_EQ(registry.ValueOf("test.metrics.reset.gauge", -1), 0);
  EXPECT_EQ(registry.ValueOf("test.metrics.reset.hwm", -1), 0);
  // Counters and histograms keep their totals; runs read them as deltas.
  EXPECT_EQ(registry.ValueOf("test.metrics.reset.counter"), 5);
  EXPECT_EQ(registry.ValueOf("test.metrics.reset.hist"), 1);
  // A high-water mark restarts from zero, so a lower value now sticks.
  DDC_GAUGE_MAX("test.metrics.reset.hwm", 3);
  EXPECT_EQ(registry.ValueOf("test.metrics.reset.hwm"), 3);
}

TEST(MetricsTest, ConcurrentHistogramRecordsSumExactly) {
  Metric& hist = MetricsRegistry::Instance().GetOrCreate(
      "test.metrics.hist_concurrent", MetricKind::kHistogram);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(1.0 + (t * kPerThread + i) % 100);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const HistogramData data = hist.HistogramValue();
  EXPECT_EQ(data.count, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist.Value(), data.count);  // Value() == sample count.
  // Every sample was in [1, 100] µs, integer-valued, so the merged sum,
  // min and max are exact regardless of interleaving.
  int64_t expect_sum_ns = 0;
  for (int s = 0; s < kThreads * kPerThread; ++s) {
    expect_sum_ns += (1 + s % 100) * 1000;
  }
  EXPECT_EQ(data.sum_ns, expect_sum_ns);
  EXPECT_DOUBLE_EQ(data.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(data.max_us(), 100.0);
  int64_t bucket_total = 0;
  for (const int64_t b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, data.count);
}

TEST(MetricsTest, HistogramQuantilesWithinOneBucketOfExact) {
  Metric& hist = MetricsRegistry::Instance().GetOrCreate(
      "test.metrics.hist_quantile", MetricKind::kHistogram);
  // 1..1000 µs once each: the exact q-quantile is q*1000.
  for (int v = 1; v <= 1000; ++v) hist.Record(static_cast<double>(v));
  const HistogramData data = hist.HistogramValue();
  ASSERT_EQ(data.count, 1000);
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = q * 1000;
    const double approx = data.Quantile(q);
    // Log buckets are 2^(1/8) wide: the reported value sits at most one
    // bucket's relative width above the exact quantile, never below it.
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * std::pow(2.0, 2.0 / 8)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(data.Quantile(1.0), 1000.0);  // Capped at the max.
}

TEST(MetricsTest, HistogramMacroAndScopedTimerRecord) {
  DDC_HISTOGRAM_RECORD("test.metrics.hist_macro", 5.0);
  DDC_HISTOGRAM_RECORD("test.metrics.hist_macro", 7.0);
  {
    DDC_HISTOGRAM_SCOPED("test.metrics.hist_scoped");
  }
  EXPECT_EQ(MetricsRegistry::Instance().ValueOf("test.metrics.hist_macro"),
            2);
  EXPECT_EQ(MetricsRegistry::Instance().ValueOf("test.metrics.hist_scoped"),
            1);
}

TEST(MetricsTest, DeltaSinceSubtractsHistograms) {
  Metric& hist = MetricsRegistry::Instance().GetOrCreate(
      "test.metrics.hist_delta", MetricKind::kHistogram);
  hist.Record(10.0);
  hist.Record(20.0);
  const std::vector<MetricSample> before =
      MetricsRegistry::Instance().Snapshot();
  hist.Record(40.0);
  const std::vector<MetricSample> delta =
      DeltaSince(before, MetricsRegistry::Instance().Snapshot());

  const MetricSample* sample = nullptr;
  for (const MetricSample& s : delta) {
    if (s.name == "test.metrics.hist_delta") sample = &s;
  }
  ASSERT_NE(sample, nullptr);
  // The interval saw exactly one 40µs record; min/max stay cumulative.
  EXPECT_EQ(sample->hist.count, 1);
  EXPECT_EQ(sample->value, 1);
  EXPECT_DOUBLE_EQ(sample->hist.sum_us(), 40.0);
  EXPECT_DOUBLE_EQ(sample->hist.min_us(), 10.0);
  EXPECT_DOUBLE_EQ(sample->hist.max_us(), 40.0);
  int64_t bucket_total = 0;
  for (const int64_t b : sample->hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 1);
}

TEST(MetricsDeathTest, HistogramKindMismatchAborts) {
  MetricsRegistry::Instance().GetOrCreate("test.metrics.hist_kind_clash",
                                          MetricKind::kHistogram);
  EXPECT_DEATH(MetricsRegistry::Instance().GetOrCreate(
                   "test.metrics.hist_kind_clash", MetricKind::kCounter),
               "DDC_CHECK failed");
}

TEST(MetricsDeathTest, KindMismatchAborts) {
  MetricsRegistry::Instance().GetOrCreate("test.metrics.kind_clash",
                                          MetricKind::kCounter);
  EXPECT_DEATH(MetricsRegistry::Instance().GetOrCreate(
                   "test.metrics.kind_clash", MetricKind::kGauge),
               "DDC_CHECK failed");
}

}  // namespace
}  // namespace ddc
