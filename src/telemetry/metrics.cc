#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace ddc {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count))));
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      return std::min(
          LatencyHistogram::BucketUpperEdge(static_cast<int>(i)), max_us());
    }
  }
  return max_us();  // Unreachable: every sample is in some bucket.
}

Metric::Metric(std::string name, MetricKind kind)
    : name_(std::move(name)), kind_(kind) {
  if (kind_ == MetricKind::kHistogram) {
    hist_cells_ = std::make_unique<HistCell[]>(kHistCells);
  }
}

int Metric::NextCellIndex() {
  static std::atomic<uint32_t> next{0};
  return static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<uint32_t>(kCells));
}

void Metric::Record(double us) {
  DDC_DCHECK(kind_ == MetricKind::kHistogram);
  HistCell& cell = hist_cells_[ThreadCellIndex() % kHistCells];
  const int bucket = LatencyHistogram::BucketIndex(us);
  const int64_t ns = std::llround(us * 1000.0);
  cell.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  int64_t cur = cell.min_ns.load(std::memory_order_relaxed);
  while (ns < cur && !cell.min_ns.compare_exchange_weak(
                         cur, ns, std::memory_order_relaxed)) {
  }
  cur = cell.max_ns.load(std::memory_order_relaxed);
  while (ns > cur && !cell.max_ns.compare_exchange_weak(
                         cur, ns, std::memory_order_relaxed)) {
  }
}

HistogramData Metric::HistogramValue() const {
  DDC_CHECK(kind_ == MetricKind::kHistogram);
  HistogramData out;
  int last_nonzero = -1;
  std::vector<int64_t> buckets(LatencyHistogram::kNumBuckets, 0);
  for (int c = 0; c < kHistCells; ++c) {
    const HistCell& cell = hist_cells_[c];
    if (cell.count.load(std::memory_order_relaxed) == 0) continue;
    const int64_t lo = cell.min_ns.load(std::memory_order_relaxed);
    const int64_t hi = cell.max_ns.load(std::memory_order_relaxed);
    if (out.count == 0 || lo < out.min_ns) out.min_ns = lo;
    if (out.count == 0 || hi > out.max_ns) out.max_ns = hi;
    out.sum_ns += cell.sum_ns.load(std::memory_order_relaxed);
    // The count is the sum of the buckets as read, not the cell's count
    // field: a Record racing this merge can land between the two reads,
    // and the count (Prometheus' +Inf bucket) must bound every cumulative
    // bucket.
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      const int64_t b = cell.buckets[i].load(std::memory_order_relaxed);
      if (b == 0) continue;
      buckets[i] += b;
      out.count += b;
      if (i > last_nonzero) last_nonzero = i;
    }
  }
  buckets.resize(last_nonzero + 1);
  out.buckets = std::move(buckets);
  return out;
}

int64_t Metric::Value() const {
  if (kind_ == MetricKind::kGauge) {
    return gauge_.load(std::memory_order_relaxed);
  }
  if (kind_ == MetricKind::kHistogram) {
    int64_t n = 0;
    for (int c = 0; c < kHistCells; ++c) {
      n += hist_cells_[c].count.load(std::memory_order_relaxed);
    }
    return n;
  }
  int64_t sum = 0;
  for (const Cell& cell : cells_) {
    sum += cell.value.load(std::memory_order_relaxed);
  }
  return sum;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never freed.
  return *registry;
}

Metric& MetricsRegistry::GetOrCreate(std::string_view name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    std::string key(name);
    it = metrics_
             .emplace(key, std::unique_ptr<Metric>(new Metric(key, kind)))
             .first;
  }
  DDC_CHECK(it->second->kind() == kind);  // One meaning per name.
  return *it->second;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = metric->kind();
    if (metric->kind() == MetricKind::kHistogram) {
      sample.hist = metric->HistogramValue();
      sample.value = sample.hist.count;
    } else {
      sample.value = metric->Value();
    }
    out.push_back(std::move(sample));
  }
  return out;  // std::map iteration order == sorted by name.
}

int64_t MetricsRegistry::ValueOf(std::string_view name,
                                 int64_t fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? fallback : it->second->Value();
}

void MetricsRegistry::ResetGauges() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, metric] : metrics_) {
    if (metric->kind() == MetricKind::kGauge) metric->Set(0);
  }
}

std::vector<MetricSample> DeltaSince(const std::vector<MetricSample>& before,
                                     const std::vector<MetricSample>& after) {
  std::map<std::string_view, const MetricSample*> base;
  for (const MetricSample& s : before) {
    if (s.kind != MetricKind::kGauge) base.emplace(s.name, &s);
  }
  std::vector<MetricSample> out;
  out.reserve(after.size());
  for (const MetricSample& s : after) {
    MetricSample d = s;
    const auto it = base.find(s.name);
    if (it != base.end()) {
      if (s.kind == MetricKind::kCounter) {
        d.value -= it->second->value;
      } else if (s.kind == MetricKind::kHistogram) {
        const HistogramData& b = it->second->hist;
        d.hist.count -= b.count;
        d.hist.sum_ns -= b.sum_ns;
        d.value = d.hist.count;
        for (size_t i = 0; i < b.buckets.size() && i < d.hist.buckets.size();
             ++i) {
          d.hist.buckets[i] -= b.buckets[i];
        }
        if (d.hist.count == 0) {
          d.hist = HistogramData{};  // An empty interval reports all zeros.
        } else if (b.count > 0) {
          // An extreme that moved was recorded in the interval, so it is
          // exact. Otherwise bound it by the interval's last (max) or first
          // (min) non-empty bucket, capped like a quantile: within one
          // bucket of the interval's own extreme.
          if (d.hist.max_ns <= b.max_ns) {
            d.hist.max_ns = std::llround(d.hist.Quantile(1) * 1000.0);
          }
          if (d.hist.min_ns >= b.min_ns) {
            d.hist.min_ns = std::llround(d.hist.Quantile(0) * 1000.0);
          }
        }
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

void PrintMetrics(std::string_view prefix) {
  for (const MetricSample& s : MetricsRegistry::Instance().Snapshot()) {
    if (s.name.size() < prefix.size() ||
        std::string_view(s.name).substr(0, prefix.size()) != prefix) {
      continue;
    }
    if (s.kind == MetricKind::kHistogram) {
      std::printf(
          "  %-44s %12lld  p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus\n",
          s.name.c_str(), static_cast<long long>(s.value),
          s.hist.Quantile(0.50), s.hist.Quantile(0.95), s.hist.Quantile(0.99),
          s.hist.max_us());
    } else {
      std::printf("  %-44s %12lld\n", s.name.c_str(),
                  static_cast<long long>(s.value));
    }
  }
}

}  // namespace ddc
