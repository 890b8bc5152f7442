#include "telemetry/report.h"

#include "common/check.h"

namespace ddc {

std::string SanitizeForFilename(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    const bool allowed = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                         c == '-';
    if (!allowed) c = '-';
  }
  return out;
}

void WriteLatencySummary(JsonWriter& w, const LatencyHistogram& h) {
  w.BeginObject();
  w.Key("count").Int(h.count());
  w.Key("mean").Double(h.mean());
  w.Key("p50").Double(h.Quantile(0.5));
  w.Key("p90").Double(h.Quantile(0.9));
  w.Key("p99").Double(h.Quantile(0.99));
  w.Key("p999").Double(h.Quantile(0.999));
  w.Key("max").Double(h.max());
  w.EndObject();
}

void WriteMetrics(JsonWriter& w, const std::vector<MetricSample>& samples) {
  w.BeginObject();
  for (const MetricSample& s : samples) {
    if (s.kind == MetricKind::kHistogram) {
      // Flattened to dotted numeric keys so the object stays a flat
      // name -> number map (the schema v3 contract bench_compare relies on).
      w.Key(s.name + ".count").Int(s.hist.count);
      w.Key(s.name + ".sum_us").Double(s.hist.sum_us());
      w.Key(s.name + ".min_us").Double(s.hist.min_us());
      w.Key(s.name + ".max_us").Double(s.hist.max_us());
      w.Key(s.name + ".p50_us").Double(s.hist.Quantile(0.50));
      w.Key(s.name + ".p95_us").Double(s.hist.Quantile(0.95));
      w.Key(s.name + ".p99_us").Double(s.hist.Quantile(0.99));
    } else {
      w.Key(s.name).Int(s.value);
    }
  }
  w.EndObject();
}

std::string BenchJson(const BenchRecord& record) {
  DDC_CHECK(record.workload != nullptr && record.stats != nullptr);
  const Workload& w = *record.workload;
  const RunStats& s = *record.stats;

  JsonWriter j;
  j.BeginObject();
  j.Key("schema_version").Int(kBenchSchemaVersion);
  j.Key("tool").String("ddc_driver");
  j.Key("scenario").String(record.scenario);
  j.Key("scenario_spec").String(record.scenario_spec);
  j.Key("method").String(record.method);
  j.Key("seed").Int(static_cast<int64_t>(record.seed));

  j.Key("params").BeginObject();
  j.Key("dim").Int(record.params.dim);
  j.Key("eps").Double(record.params.eps);
  j.Key("min_pts").Int(record.params.min_pts);
  j.Key("rho").Double(record.params.rho);
  j.EndObject();

  j.Key("workload").BeginObject();
  j.Key("num_updates").Int(w.num_updates);
  j.Key("num_inserts").Int(w.num_inserts);
  j.Key("num_deletes").Int(w.num_deletes);
  j.Key("num_queries").Int(w.num_queries);
  j.Key("num_ops").Int(static_cast<int64_t>(w.ops.size()));
  j.EndObject();

  j.Key("run").BeginObject();
  j.Key("ops_executed").Int(s.ops_executed);
  j.Key("updates_executed").Int(s.updates_executed);
  j.Key("queries_executed").Int(s.queries_executed);
  j.Key("total_seconds").Double(s.total_seconds);
  j.Key("throughput_ops_per_sec")
      .Double(s.total_seconds > 0
                  ? static_cast<double>(s.ops_executed) / s.total_seconds
                  : 0);
  j.Key("timed_out").Bool(s.timed_out);
  j.Key("interrupted").Bool(s.interrupted);
  j.Key("avg_workload_cost_us").Double(s.avg_workload_cost_us);
  j.Key("avg_update_cost_us").Double(s.avg_update_cost_us);
  j.Key("avg_query_cost_us").Double(s.avg_query_cost_us);
  j.Key("max_update_cost_us").Double(s.max_update_cost_us);
  j.Key("peak_rss_bytes").Int(record.peak_rss_bytes);
  j.Key("query_threads").Int(s.query_threads);
  j.Key("reader_queries").Int(s.reader_queries_executed);
  j.Key("reader_queries_per_sec").Double(s.reader_queries_per_sec);
  j.EndObject();

  j.Key("latency_us").BeginObject();
  j.Key("insert");
  WriteLatencySummary(j, s.insert_latency_us);
  j.Key("delete");
  WriteLatencySummary(j, s.delete_latency_us);
  j.Key("query");
  WriteLatencySummary(j, s.query_latency_us);
  j.Key("reader_query");
  WriteLatencySummary(j, s.reader_query_latency_us);
  j.EndObject();

  j.Key("metrics");
  WriteMetrics(j, record.metrics);

  j.Key("checkpoints").BeginObject();
  j.Key("ops").BeginArray();
  for (const int64_t t : s.checkpoint_ops) j.Int(t);
  j.EndArray();
  j.Key("avg_cost_us").BeginArray();
  for (const double v : s.avg_cost_us) j.Double(v);
  j.EndArray();
  j.Key("max_upd_cost_us").BeginArray();
  for (const double v : s.max_upd_cost_us) j.Double(v);
  j.EndArray();
  j.EndObject();

  j.EndObject();
  return j.str();
}

bool ValidateBenchJson(const std::string& json, std::string* why) {
  auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonParse(json, &parse_error);
  if (!doc.has_value()) return fail("not parseable: " + parse_error);
  if (doc->type != JsonValue::Type::kObject) return fail("not an object");

  const JsonValue* version = doc->Find("schema_version");
  if (version == nullptr || version->type != JsonValue::Type::kNumber) {
    return fail("missing schema_version");
  }
  if (version->number_value != kBenchSchemaVersion) {
    return fail("unexpected schema_version");
  }
  for (const char* key : {"tool", "scenario", "scenario_spec", "method"}) {
    const JsonValue* v = doc->Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kString) {
      return fail(std::string("missing string key '") + key + "'");
    }
  }
  for (const char* key : {"params", "workload", "run", "latency_us",
                          "checkpoints"}) {
    const JsonValue* v = doc->Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kObject) {
      return fail(std::string("missing object key '") + key + "'");
    }
  }
  const JsonValue* run = doc->Find("run");
  for (const char* key :
       {"ops_executed", "total_seconds", "throughput_ops_per_sec",
        "avg_workload_cost_us", "max_update_cost_us", "peak_rss_bytes",
        "query_threads", "reader_queries", "reader_queries_per_sec"}) {
    const JsonValue* v = run->Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) {
      return fail(std::string("run missing numeric key '") + key + "'");
    }
  }
  const JsonValue* timed_out = run->Find("timed_out");
  if (timed_out == nullptr || timed_out->type != JsonValue::Type::kBool) {
    return fail("run missing bool key 'timed_out'");
  }
  const JsonValue* interrupted = run->Find("interrupted");
  if (interrupted == nullptr || interrupted->type != JsonValue::Type::kBool) {
    return fail("run missing bool key 'interrupted'");
  }
  const JsonValue* metrics = doc->Find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
    return fail("missing object key 'metrics'");
  }
  for (const auto& [name, value] : metrics->members) {
    if (value.type != JsonValue::Type::kNumber) {
      return fail("metrics." + name + " is not a number");
    }
  }
  const JsonValue* latency = doc->Find("latency_us");
  for (const char* op : {"insert", "delete", "query", "reader_query"}) {
    const JsonValue* h = latency->Find(op);
    if (h == nullptr || h->type != JsonValue::Type::kObject) {
      return fail(std::string("latency_us missing op '") + op + "'");
    }
    for (const char* key : {"count", "mean", "p50", "p90", "p99", "p999",
                            "max"}) {
      const JsonValue* v = h->Find(key);
      if (v == nullptr || v->type != JsonValue::Type::kNumber) {
        return fail(std::string("latency_us.") + op + " missing '" + key +
                    "'");
      }
    }
  }
  const JsonValue* checkpoints = doc->Find("checkpoints");
  for (const char* key : {"ops", "avg_cost_us", "max_upd_cost_us"}) {
    const JsonValue* v = checkpoints->Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kArray) {
      return fail(std::string("checkpoints missing array '") + key + "'");
    }
  }
  return true;
}

}  // namespace ddc
