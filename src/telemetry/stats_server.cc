#include "telemetry/stats_server.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"
#include "telemetry/report.h"
#include "telemetry/resource.h"

namespace ddc {

namespace {

/// "wal.fsync" -> "ddc_wal_fsync".
std::string PrometheusName(const std::string& name) {
  std::string out = "ddc_";
  for (const char c : name) {
    const bool allowed = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9');
    out.push_back(allowed ? c : '_');
  }
  return out;
}

void AppendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

const char* HealthStateName(HealthReport::State state) {
  switch (state) {
    case HealthReport::State::kOk:
      return "ok";
    case HealthReport::State::kDegraded:
      return "degraded";
    case HealthReport::State::kStalled:
      return "stalled";
  }
  return "unknown";
}

HealthReport EvaluateHealth() {
  const MetricsRegistry& reg = MetricsRegistry::Instance();
  HealthReport report;
  char cause[160];

  // Stalled beats degraded: a worker stuck *right now* is the actionable
  // emergency regardless of what else is latched.
  const int64_t stalled_now = reg.ValueOf("watchdog.stalled_workers");
  if (stalled_now > 0) {
    report.state = HealthReport::State::kStalled;
    std::snprintf(cause, sizeof(cause),
                  "%" PRId64 " worker(s) quiet past deadline with backlog",
                  stalled_now);
    report.cause = cause;
    return report;
  }

  const int64_t wal_errors = reg.ValueOf("wal.errors");
  const int64_t io_failures = reg.ValueOf("io.write_failures");
  const int64_t stall_episodes = reg.ValueOf("watchdog.stalls");
  const int64_t epoch_lag = reg.ValueOf("runner.reader_epoch_lag");
  if (wal_errors > 0) {
    std::snprintf(cause, sizeof(cause), "wal latched %" PRId64 " error(s)",
                  wal_errors);
  } else if (io_failures > 0) {
    std::snprintf(cause, sizeof(cause),
                  "%" PRId64 " file write failure(s) latched", io_failures);
  } else if (stall_episodes > 0) {
    std::snprintf(cause, sizeof(cause),
                  "%" PRId64 " past watchdog stall episode(s)",
                  stall_episodes);
  } else if (epoch_lag > kMaxHealthyEpochLag) {
    std::snprintf(cause, sizeof(cause),
                  "reader snapshot %" PRId64 " epochs behind (max healthy %"
                  PRId64 ")",
                  epoch_lag, kMaxHealthyEpochLag);
  } else {
    return report;  // ok
  }
  report.state = HealthReport::State::kDegraded;
  report.cause = cause;
  return report;
}

std::string PrometheusText(const std::vector<MetricSample>& samples) {
  std::string out;
  out.reserve(4096);
  for (const MetricSample& s : samples) {
    const std::string name = PrometheusName(s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(s.value) + "\n";
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + std::to_string(s.value) + "\n";
        break;
      case MetricKind::kHistogram: {
        const std::string hist_name = name + "_us";
        out += "# TYPE " + hist_name + " histogram\n";
        int64_t cumulative = 0;
        for (size_t i = 0; i < s.hist.buckets.size(); ++i) {
          if (s.hist.buckets[i] == 0) continue;  // le stays cumulative.
          cumulative += s.hist.buckets[i];
          out += hist_name + "_bucket{le=\"";
          AppendDouble(out,
                       LatencyHistogram::BucketUpperEdge(static_cast<int>(i)));
          out += "\"} " + std::to_string(cumulative) + "\n";
        }
        out += hist_name + "_bucket{le=\"+Inf\"} " +
               std::to_string(s.hist.count) + "\n";
        out += hist_name + "_sum ";
        AppendDouble(out, s.hist.sum_us());
        out += "\n";
        out += hist_name + "_count " + std::to_string(s.hist.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string HealthJson(const HealthReport& report) {
  const MetricsRegistry& reg = MetricsRegistry::Instance();
  JsonWriter j;
  j.BeginObject();
  j.Key("state").String(HealthStateName(report.state));
  j.Key("cause").String(report.cause);
  j.Key("inputs").BeginObject();
  j.Key("watchdog.stalled_workers")
      .Int(reg.ValueOf("watchdog.stalled_workers"));
  j.Key("watchdog.stalls").Int(reg.ValueOf("watchdog.stalls"));
  j.Key("wal.errors").Int(reg.ValueOf("wal.errors"));
  j.Key("io.write_failures").Int(reg.ValueOf("io.write_failures"));
  j.Key("runner.reader_epoch_lag")
      .Int(reg.ValueOf("runner.reader_epoch_lag"));
  j.EndObject();
  j.EndObject();
  return j.str();
}

StatsServer::StatsServer(const Options& options, const StatsSampler* sampler)
    : options_(options), sampler_(sampler) {}

StatsServer::~StatsServer() { Stop(); }

bool StatsServer::Start() {
  return listener_.Start(options_.port, [this](std::string_view request) {
    return HandleRequest(request);
  });
}

void StatsServer::Stop() { listener_.Stop(); }

std::string StatsServer::VarzJson() const {
  JsonWriter j;
  j.BeginObject();
  j.Key("build_info").String(options_.build_info);
  j.Key("process").BeginObject();
  j.Key("rss_bytes").Int(PeakRssBytes());
  j.Key("uptime_ms").Int(sampler_ != nullptr ? sampler_->UptimeMs() : 0);
  j.Key("stats_port").Int(listener_.port());
  j.Key("connections_handled").Int(listener_.connections_handled());
  j.EndObject();
  if (sampler_ != nullptr) {
    j.Key("sampler").BeginObject();
    j.Key("ring_size").Int(sampler_->size());
    j.Key("dropped").Int(sampler_->dropped());
    j.EndObject();
  }
  j.Key("metrics");
  WriteMetrics(j, MetricsRegistry::Instance().Snapshot());
  j.EndObject();
  return j.str();
}

std::string StatsServer::HandleRequest(std::string_view request) const {
  // Just enough HTTP: "GET <path> ..." on the first line; everything else
  // in the request is ignored.
  std::string_view path;
  if (request.substr(0, 4) == "GET ") {
    const std::string_view rest = request.substr(4);
    const size_t end = rest.find_first_of(" \r\n?");
    path = rest.substr(0, end);
  }

  int status = 200;
  const char* status_text = "OK";
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    // The exposition format's version suffix is part of the contract
    // Prometheus scrapers negotiate on.
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = PrometheusText(MetricsRegistry::Instance().Snapshot());
  } else if (path == "/varz") {
    content_type = "application/json";
    body = VarzJson();
  } else if (path == "/healthz") {
    content_type = "application/json";
    const HealthReport report = EvaluateHealth();
    if (report.state == HealthReport::State::kStalled) {
      status = 503;
      status_text = "Service Unavailable";
    }
    body = HealthJson(report);
    body.push_back('\n');
  } else {
    status = 404;
    status_text = "Not Found";
    body = "404: try /metrics, /varz or /healthz\n";
  }

  std::string response = "HTTP/1.1 " + std::to_string(status) + " " +
                         status_text + "\r\n";
  response += "Content-Type: " + std::string(content_type) + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

}  // namespace ddc
