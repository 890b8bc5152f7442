#ifndef DDC_TELEMETRY_STATS_SERVER_H_
#define DDC_TELEMETRY_STATS_SERVER_H_

#include <string>
#include <string_view>
#include <vector>

#include "net/listener.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"

namespace ddc {

/// \file
/// Read-only stats/health endpoint over the metrics registry. Three routes:
///
///   GET /metrics   Prometheus text exposition (counters, gauges, and
///                  histograms with cumulative le-buckets in microseconds)
///   GET /varz      JSON snapshot: registry + process/run info
///   GET /healthz   HealthReport: ok / degraded / stalled + one-line cause
///                  (HTTP 503 when stalled, 200 otherwise)
///
/// The health report rolls raw registry values into issues: a live watchdog
/// stall means "stalled", latched write failures or past stall episodes or
/// excessive reader lag mean "degraded". Thresholds live in one place here,
/// not in the collector.

/// Rolled-up process health, derived purely from registry values.
struct HealthReport {
  enum class State {
    kOk = 0,        ///< Nothing latched, nobody stalled.
    kDegraded = 1,  ///< Something went wrong but progress continues.
    kStalled = 2,   ///< A worker is quiet past its deadline with backlog.
  };
  State state = State::kOk;
  std::string cause;  ///< One line; empty when ok.
};

/// "ok" / "degraded" / "stalled".
const char* HealthStateName(HealthReport::State state);

/// Evaluates the health rules against the current registry:
/// stalled   iff watchdog.stalled_workers > 0 (a worker is stuck right now);
/// degraded  iff wal.errors or io.write_failures latched, a past watchdog
///           stall episode was recorded, or runner.reader_epoch_lag exceeds
///           kMaxHealthyEpochLag;
/// ok        otherwise.
HealthReport EvaluateHealth();

/// Reader snapshots older than this many engine epochs count as degraded.
inline constexpr int64_t kMaxHealthyEpochLag = 64;

/// The registry snapshot as Prometheus text exposition. Metric names are
/// mangled ('.' -> '_') and prefixed with "ddc_"; histogram durations keep
/// the registry's microsecond unit, made explicit with a "_us" name suffix.
/// Empty histogram buckets are skipped (cumulative values stay correct).
std::string PrometheusText(const std::vector<MetricSample>& samples);

/// {"state":"...","cause":"..."} plus the raw inputs the verdict came from.
std::string HealthJson(const HealthReport& report);

/// The HTTP front door: a TcpListener whose handler routes the three GET
/// paths. Start/Stop owns the listener thread.
class StatsServer {
 public:
  struct Options {
    int port = 0;             ///< 0 = ephemeral, read back via port().
    std::string build_info;   ///< Free-form, surfaced in /varz.
  };

  /// `sampler` may be null: /varz then omits the sampler block. Not owned.
  StatsServer(const Options& options, const StatsSampler* sampler);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds and starts serving; false + error() on failure.
  bool Start();
  void Stop();

  int port() const { return listener_.port(); }
  const std::string& error() const { return listener_.error(); }

  /// Routes one raw HTTP request to a full HTTP response — the listener
  /// handler, exposed so tests can exercise routing without sockets.
  std::string HandleRequest(std::string_view request) const;

 private:
  std::string VarzJson() const;

  const Options options_;
  const StatsSampler* sampler_;
  TcpListener listener_;
};

}  // namespace ddc

#endif  // DDC_TELEMETRY_STATS_SERVER_H_
