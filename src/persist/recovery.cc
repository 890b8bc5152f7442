#include "persist/recovery.h"

#include <bit>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/io.h"
#include "common/json.h"
#include "core/method_registry.h"
#include "telemetry/metrics.h"

namespace ddc {

namespace {

constexpr char kRunMetaName[] = "RUNMETA.json";

/// Largest integer below which every integer is exactly a double: an older
/// RUNMETA's numeric seed is trusted only under it.
constexpr double kExactDoubleInts = 9007199254740992.0;  // 2^53

std::string HexBits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, std::bit_cast<uint64_t>(v));
  return buf;
}

bool ParseHexBits(const JsonValue* v, double* out) {
  uint64_t bits = 0;
  if (v == nullptr || v->type != JsonValue::Type::kString) return false;
  const std::string& s = v->string_value;
  if (s.rfind("0x", 0) != 0 ||
      std::sscanf(s.c_str() + 2, "%16" SCNx64, &bits) != 1) {
    return false;
  }
  *out = std::bit_cast<double>(bits);
  return true;
}

/// The seed is written as a decimal string, so all 64 bits survive JSON's
/// doubles. A numeric seed from an older RUNMETA is still read while a
/// double holds it exactly.
bool ParseSeed(const JsonValue* v, uint64_t* out) {
  if (v == nullptr) return false;
  if (v->type == JsonValue::Type::kNumber) {
    const double d = v->number_value;
    if (!(d >= 0 && d < kExactDoubleInts) || d != std::floor(d)) return false;
    *out = static_cast<uint64_t>(d);
    return true;
  }
  if (v->type != JsonValue::Type::kString) return false;
  const std::string& s = v->string_value;
  // strtoull skips blanks and negates a leading '-'; only digits pass.
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = seed;
  return true;
}

bool ParseInt(const JsonValue* v, int* out) {
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return false;
  const double d = v->number_value;
  if (!(d >= INT_MIN && d <= INT_MAX) || d != std::floor(d)) return false;
  *out = static_cast<int>(d);
  return true;
}

}  // namespace

bool WriteRunMeta(const std::string& dir, const RunMeta& meta,
                  std::string* error) {
  JsonWriter j;
  j.BeginObject();
  j.Key("method").String(meta.method);
  j.Key("scenario").String(meta.scenario);
  j.Key("seed").String(std::to_string(meta.seed));
  j.Key("params");
  j.BeginObject();
  j.Key("dim").Int(meta.params.dim);
  j.Key("min_pts").Int(meta.params.min_pts);
  j.Key("eps_bits").String(HexBits(meta.params.eps));
  j.Key("rho_bits").String(HexBits(meta.params.rho));
  // Readability duplicates; the bit patterns above are authoritative.
  j.Key("eps").Double(meta.params.eps);
  j.Key("rho").Double(meta.params.rho);
  j.EndObject();
  j.EndObject();
  return WriteFileAtomic(dir + "/" + kRunMetaName, j.str(), error);
}

bool ReadRunMeta(const std::string& dir, RunMeta* meta, std::string* error) {
  const std::string path = dir + "/" + kRunMetaName;
  std::string text;
  if (!ReadFileToString(path, &text, error)) return false;
  std::string parse_error;
  std::optional<JsonValue> doc = JsonParse(text, &parse_error);
  if (!doc.has_value()) {
    *error = "unparsable " + path + ": " + parse_error;
    return false;
  }
  auto bad = [&](const char* field) {
    *error = path + " has a missing or malformed \"" + field + "\" field";
    return false;
  };
  const JsonValue* method = doc->Find("method");
  const JsonValue* scenario = doc->Find("scenario");
  const JsonValue* params = doc->Find("params");
  if (method == nullptr || method->type != JsonValue::Type::kString) {
    return bad("method");
  }
  if (scenario == nullptr || scenario->type != JsonValue::Type::kString) {
    return bad("scenario");
  }
  if (!ParseSeed(doc->Find("seed"), &meta->seed)) return bad("seed");
  if (params == nullptr || params->type != JsonValue::Type::kObject) {
    return bad("params");
  }
  if (!ParseInt(params->Find("dim"), &meta->params.dim)) return bad("dim");
  if (!ParseInt(params->Find("min_pts"), &meta->params.min_pts)) {
    return bad("min_pts");
  }
  if (!ParseHexBits(params->Find("eps_bits"), &meta->params.eps)) {
    return bad("eps_bits");
  }
  if (!ParseHexBits(params->Find("rho_bits"), &meta->params.rho)) {
    return bad("rho_bits");
  }
  meta->method = method->string_value;
  meta->scenario = scenario->string_value;
  const std::string range = meta->params.RangeError();
  if (!range.empty()) {
    *error = path + " has out-of-range params: " + range;
    return false;
  }
  return true;
}

bool Recover(const std::string& dir, const RunMeta& meta,
             RecoveryResult* result, std::string* error) {
  result->clusterer.reset();
  result->ops.clear();
  result->notes.clear();
  std::string why;
  if (!ValidateMethodSpec(meta.method, &why)) {
    *error = "cannot recover " + dir + ": RUNMETA names method \"" +
             meta.method + "\" this build rejects: " + why;
    return false;
  }

  // Collect first, apply after: a hard replay error must not leave a
  // half-replayed clusterer in the result.
  if (!ReplayWal(
          dir, [&](const WalOp& op) { result->ops.push_back(op); },
          &result->wal, error)) {
    return false;
  }
  if (result->wal.truncated) {
    result->notes.push_back(
        "wal tail truncated at " + result->wal.truncated_file + " offset " +
        std::to_string(result->wal.truncated_offset) + ": " +
        result->wal.truncation_reason +
        " (ops past this point were never acknowledged)");
  }

  std::unique_ptr<Clusterer> clusterer = MakeMethod(meta.method, meta.params);
  std::vector<uint8_t> alive;  // By id, at the op being replayed.
  for (const WalOp& op : result->ops) {
    if (op.type == WalOp::Type::kInsert) {
      if (op.dim != meta.params.dim) {
        *error = "wal record seq " + std::to_string(op.seq) +
                 " carries a dim-" + std::to_string(op.dim) +
                 " point but RUNMETA says dim " +
                 std::to_string(meta.params.dim) +
                 ": log does not belong to this run";
        return false;
      }
      const PointId got = clusterer->Insert(op.point);
      if (got != op.id) {
        *error = "replay divergence at wal seq " + std::to_string(op.seq) +
                 ": log says insert was assigned id " +
                 std::to_string(op.id) + " but method \"" + meta.method +
                 "\" assigned " + std::to_string(got) +
                 "; the log was not produced by this method/params";
        return false;
      }
      if (static_cast<size_t>(got) >= alive.size()) {
        alive.resize(static_cast<size_t>(got) + 1, 0);
      }
      alive[got] = 1;
    } else {
      if (op.id < 0 || static_cast<size_t>(op.id) >= alive.size() ||
          alive[op.id] == 0) {
        *error = "wal record seq " + std::to_string(op.seq) +
                 " deletes id " + std::to_string(op.id) +
                 ", which is not alive at that point of the replay: the"
                 " log does not belong to this run";
        return false;
      }
      clusterer->Delete(op.id);
      alive[op.id] = 0;
    }
  }
  clusterer->Flush();
  result->clusterer = std::move(clusterer);
  DDC_COUNTER_ADD("persist.recovery_replayed_ops",
                  static_cast<int64_t>(result->ops.size()));
  DDC_COUNTER_INC("persist.recoveries");
  result->notes.push_back(
      "replayed " + std::to_string(result->ops.size()) + " ops from " +
      std::to_string(result->wal.segments) + " wal segment(s), last seq " +
      std::to_string(result->wal.last_seq));
  return true;
}

bool RecoverFromDir(const std::string& dir, RecoveryResult* result,
                    RunMeta* meta, std::string* error) {
  RunMeta local;
  if (meta == nullptr) meta = &local;
  if (!ReadRunMeta(dir, meta, error)) return false;
  return Recover(dir, *meta, result, error);
}

}  // namespace ddc
