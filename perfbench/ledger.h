#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace perfbench {

/// Steady-clock nanoseconds: the clock the program's own trace spans use, so
/// benchmark spans and program spans share one time base.
uint64_t NowNs();

/// The public calls the benchmark times on its ingest thread, one layer
/// each. Every call into a layer is timed; the sums close the ledger against
/// the timed wall.
enum Layer : int {
  kCoreUpdate,      ///< Clusterer::Insert / Delete (unsharded)
  kWalAppend,       ///< WalWriter::Append
  kSnapshotFreeze,  ///< Clusterer::Snapshot
  kSnapshotQuery,   ///< ClusterSnapshot::Query
  kEngineIngest,    ///< Insert / Delete on the sharded engine
  kEngineFlush,     ///< ShardedClusterer::Flush
  kNumLayers
};

/// Span and metric name of a layer ("core.update", "persist.wal_append", ...).
const char* LayerName(Layer layer);

/// One benchmark span: a timed call into a layer. `op` is the index of the
/// workload operation it served (a reader's own query count for reader
/// spans; -1 for none); `parent` indexes the
/// benchmark's span log (-1 for a root); `thread` is 0 for the ingest
/// thread and 1 + the reader's index for a reader.
struct Span {
  const char* name = nullptr;
  int64_t op = -1;
  int32_t parent = -1;
  int32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// A program span drained from the library's trace rings.
struct ProgramSpan {
  std::string name;
  int tid = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Drains the library's trace rings (Chrome trace JSON) into spans and clears
/// them. Returns false when the document does not parse.
bool DrainProgramTrace(std::vector<ProgramSpan>* out);

/// Per-name self time over one thread's spans in [window_start, window_end]:
/// each span's duration minus the part of it its direct children cover
/// (children found by interval containment, benchmark and program spans
/// alike). Spans named in `scale` have their self time multiplied by the
/// given factor (per-update spans are sampled).
std::map<std::string, double> SelfSeconds(
    const std::vector<Span>& bench, const std::vector<ProgramSpan>& program,
    const std::map<std::string, double>& scale);

/// Exact q-quantile (nearest rank) of `v`; reorders `v`. 0 when empty.
double Quantile(std::vector<float>& v, double q);
/// Median of `v` (mean of the two middle values when even). 0 when empty.
double Median(std::vector<double> v);

/// 64-bit FNV-1a digest of a generated workload: dimension, every point's
/// coordinate bits, every operation's type, target and query ids.
uint64_t DigestWorkload(const ddc::Workload& w);

/// What a result says about the host it ran on.
struct HostRecord {
  int nproc = 0;          ///< CPUs this process may run on (as nproc).
  std::string cpu_model;  ///< /proc/cpuinfo "model name".
  std::string simd_tier;  ///< The library's dispatched batch-kernel tier.
};
HostRecord ReadHost();

/// Current resident set (VmRSS) in bytes; 0 when unknown.
int64_t CurrentRssBytes();

/// Registry values keyed by metric name: counters and gauges by their name,
/// histograms as "<name>.count" and "<name>.sum_us".
using MetricValues = std::map<std::string, double>;

/// Counter and histogram increase from `before` to `after`; gauges take
/// their `after` value.
MetricValues Delta(const std::vector<ddc::MetricSample>& before,
                   const std::vector<ddc::MetricSample>& after);

/// Writes `bench` and `program` spans as one Chrome trace_event document.
bool WriteTraceFile(const std::string& path, const std::vector<Span>& bench,
                    const std::vector<ProgramSpan>& program,
                    std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
