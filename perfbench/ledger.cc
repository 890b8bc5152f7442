#include "ledger.h"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>

#include "common/io.h"
#include "common/json.h"
#include "geom/simd_kernels.h"
#include "telemetry/trace.h"

namespace perfbench {

uint64_t NowNs() { return ddc::trace_internal::NowNs(); }

const char* LayerName(Layer layer) {
  switch (layer) {
    case kCoreUpdate:
      return "core.update";
    case kWalAppend:
      return "persist.wal_append";
    case kSnapshotFreeze:
      return "core.snapshot_freeze";
    case kSnapshotQuery:
      return "core.snapshot_query";
    case kEngineIngest:
      return "engine.ingest";
    case kEngineFlush:
      return "engine.flush";
    case kNumLayers:
      break;
  }
  return "?";
}

bool DrainProgramTrace(std::vector<ProgramSpan>* out) {
  const std::string json = ddc::Trace::ChromeTraceJson();
  ddc::Trace::ClearForTest();
  std::string error;
  const std::optional<ddc::JsonValue> doc = ddc::JsonParse(json, &error);
  if (!doc.has_value()) return false;
  const ddc::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || events->type != ddc::JsonValue::Type::kArray) {
    return false;
  }
  for (const ddc::JsonValue& e : events->items) {
    const ddc::JsonValue* name = e.Find("name");
    const ddc::JsonValue* ts = e.Find("ts");
    const ddc::JsonValue* dur = e.Find("dur");
    const ddc::JsonValue* tid = e.Find("tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr) {
      return false;
    }
    // The document carries steady-clock microseconds with every digit of
    // the nanosecond stamps.
    ProgramSpan s;
    s.name = name->string_value;
    s.tid = static_cast<int>(tid->number_value);
    s.start_ns = static_cast<uint64_t>(std::llround(ts->number_value * 1e3));
    s.end_ns = s.start_ns +
               static_cast<uint64_t>(std::llround(dur->number_value * 1e3));
    out->push_back(std::move(s));
  }
  return true;
}

std::map<std::string, double> SelfSeconds(
    const std::vector<Span>& bench, const std::vector<ProgramSpan>& program,
    const std::map<std::string, double>& scale) {
  struct Interval {
    std::string_view name;
    uint64_t start;
    uint64_t end;
    double child_ns = 0;
  };
  std::vector<Interval> all;
  all.reserve(bench.size() + program.size());
  for (const Span& s : bench) all.push_back({s.name, s.start_ns, s.end_ns});
  for (const ProgramSpan& s : program) {
    all.push_back({s.name, s.start_ns, s.end_ns});
  }
  // Parents sort before the spans they contain.
  std::sort(all.begin(), all.end(), [](const Interval& a, const Interval& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::vector<size_t> stack;
  for (size_t i = 0; i < all.size(); ++i) {
    while (!stack.empty() && all[stack.back()].end < all[i].end) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      all[stack.back()].child_ns += static_cast<double>(all[i].end -
                                                        all[i].start);
    }
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (const Interval& s : all) {
    const double own = static_cast<double>(s.end - s.start) - s.child_ns;
    self[std::string(s.name)] += own * 1e-9;
  }
  for (auto& [name, seconds] : self) {
    const auto it = scale.find(name);
    if (it != scale.end()) seconds *= it->second;
  }
  return self;
}

double Quantile(std::vector<float>& v, double q) {
  if (v.empty()) return 0;
  // Nearest rank: the ceil(q * n)-th smallest sample.
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

}  // namespace

uint64_t DigestWorkload(const ddc::Workload& w) {
  Fnv1a f;
  f.Add(static_cast<uint64_t>(w.dim));
  f.Add(w.points.size());
  for (const ddc::Point& p : w.points) {
    for (int k = 0; k < w.dim; ++k) f.Add(std::bit_cast<uint64_t>(p[k]));
  }
  f.Add(w.ops.size());
  for (const ddc::Operation& op : w.ops) {
    f.Add(static_cast<uint64_t>(op.type));
    f.Add(static_cast<uint64_t>(op.target));
    f.Add(op.query.size());
    for (const int64_t idx : op.query) f.Add(static_cast<uint64_t>(idx));
  }
  return f.h;
}

HostRecord ReadHost() {
  HostRecord host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                            : 1;
  std::string cpuinfo;
  std::string error;
  if (ddc::ReadFileToString("/proc/cpuinfo", &cpuinfo, &error)) {
    const size_t at = cpuinfo.find("model name");
    if (at != std::string::npos) {
      const size_t colon = cpuinfo.find(':', at);
      const size_t eol = cpuinfo.find('\n', at);
      if (colon != std::string::npos && colon < eol) {
        host.cpu_model = cpuinfo.substr(colon + 2, eol - colon - 2);
      }
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.simd_tier = ddc::SimdLevelName(ddc::ActiveSimdLevel());
  return host;
}

int64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long long kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<int64_t>(kib) * 1024;
}

MetricValues Delta(const std::vector<ddc::MetricSample>& before,
                   const std::vector<ddc::MetricSample>& after) {
  MetricValues out;
  for (const ddc::MetricSample& s : ddc::DeltaSince(before, after)) {
    if (s.kind == ddc::MetricKind::kHistogram) {
      out[s.name + ".count"] = static_cast<double>(s.hist.count);
      out[s.name + ".sum_us"] = s.hist.sum_us();
    } else {
      out[s.name] = static_cast<double>(s.value);
    }
  }
  return out;
}

bool WriteTraceFile(const std::string& path, const std::vector<Span>& bench,
                    const std::vector<ProgramSpan>& program,
                    std::string* error) {
  ddc::JsonWriter j;
  j.BeginObject();
  j.Key("traceEvents").BeginArray();
  for (const Span& s : bench) {
    j.BeginObject();
    j.Key("name").String(s.name);
    j.Key("cat").String("bench");
    j.Key("ph").String("X");
    j.Key("ts").Double(static_cast<double>(s.start_ns) / 1e3);
    j.Key("dur").Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    j.Key("pid").Int(1);
    j.Key("tid").Int(1000 + s.thread);
    j.Key("args").BeginObject();
    j.Key("op").Int(s.op);
    j.Key("parent").Int(s.parent);
    j.EndObject();
    j.EndObject();
  }
  for (const ProgramSpan& s : program) {
    j.BeginObject();
    j.Key("name").String(s.name);
    j.Key("cat").String("ddc");
    j.Key("ph").String("X");
    j.Key("ts").Double(static_cast<double>(s.start_ns) / 1e3);
    j.Key("dur").Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    j.Key("pid").Int(1);
    j.Key("tid").Int(s.tid);
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  return ddc::WriteFile(path, j.str(), error);
}

}  // namespace perfbench
