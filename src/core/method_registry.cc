#include "core/method_registry.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/flags.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/incremental_dbscan.h"
#include "core/semi_dynamic_clusterer.h"
#include "engine/sharded_clusterer.h"

namespace ddc {
namespace {

struct ParsedSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kvs;
};

/// Non-aborting spec split (the scenario grammar: name[:k=v,k=v...]).
bool ParseSpec(const std::string& spec, ParsedSpec* out, std::string* why) {
  const size_t colon = spec.find(':');
  out->name = spec.substr(0, colon);
  out->kvs.clear();
  if (out->name.empty()) {
    if (why != nullptr) *why = "empty method name in spec '" + spec + "'";
    return false;
  }
  if (colon == std::string::npos) return true;
  std::string bad;
  if (SplitKeyValueList(spec.substr(colon + 1), &out->kvs, &bad)) return true;
  if (why != nullptr) {
    *why = "malformed knob '" + bad + "' in method spec '" + spec +
           "' (expected key=value)";
  }
  return false;
}

const MethodInfo* FindInfo(const std::string& name) {
  for (const MethodInfo& info : AllMethodInfos()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

bool KnobExists(const MethodInfo& info, const std::string& key) {
  for (const MethodKnob& knob : info.knobs) {
    if (knob.key == key) return true;
  }
  return false;
}

/// Non-aborting integer parse for knob values.
bool ParseKnobInt(const std::string& value, int64_t* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

/// Reads an integer knob with a default; false (with `why`) on a
/// non-integer or out-of-range value.
bool ReadIntKnob(const ParsedSpec& spec, const std::string& key, int64_t def,
                 int64_t lo, int64_t hi, int64_t* out, std::string* why) {
  *out = def;
  for (const auto& [k, v] : spec.kvs) {
    if (k != key) continue;
    int64_t parsed = 0;
    if (!ParseKnobInt(v, &parsed)) {
      if (why != nullptr) {
        *why = "method '" + spec.name + "': knob " + key + "=" + v +
               " is not an integer";
      }
      return false;
    }
    *out = parsed;  // Last occurrence wins, like the scenario grammar.
  }
  if (*out < lo || *out > hi) {
    if (why != nullptr) {
      std::ostringstream msg;
      msg << "method '" << spec.name << "': knob " << key << "=" << *out
          << " out of range [" << lo << ", " << hi << "]";
      *why = msg.str();
    }
    return false;
  }
  return true;
}

/// Full spec validation; on success fills the sharded options (meaningful
/// only when the method is the sharded engine).
bool ValidateSpec(const std::string& spec, ParsedSpec* parsed,
                  ShardedClusterer::Options* sharded, std::string* why) {
  if (!ParseSpec(spec, parsed, why)) return false;
  const MethodInfo* info = FindInfo(parsed->name);
  if (info == nullptr) {
    if (why != nullptr) {
      *why = "unknown method '" + parsed->name + "'";
    }
    return false;
  }
  for (const auto& [key, value] : parsed->kvs) {
    if (!KnobExists(*info, key)) {
      if (why != nullptr) {
        *why = "method '" + parsed->name + "' has no knob '" + key + "'" +
               (info->knobs.empty() ? " (it takes none)" : "");
      }
      return false;
    }
  }
  if (parsed->name == "sharded-double-approx") {
    int64_t shards, threads, batch, warmup;
    if (!ReadIntKnob(*parsed, "shards", 4, 1, ShardedClusterer::kMaxShards,
                     &shards, why) ||
        !ReadIntKnob(*parsed, "threads", 0, 0, ShardedClusterer::kMaxShards,
                     &threads, why) ||
        !ReadIntKnob(*parsed, "batch", 64, 1, 1 << 20, &batch, why) ||
        !ReadIntKnob(*parsed, "warmup", 2048, 0, 1 << 28, &warmup, why)) {
      return false;
    }
    sharded->shards = static_cast<int>(shards);
    sharded->threads = static_cast<int>(threads);
    sharded->batch = static_cast<int>(batch);
    sharded->warmup = static_cast<int>(warmup);
  }
  return true;
}

}  // namespace

const std::vector<MethodInfo>& AllMethodInfos() {
  static const std::vector<MethodInfo>* const infos = [] {
    auto* all = new std::vector<MethodInfo>();
    all->push_back({"2d-semi-exact",
                    "Theorem 1 with rho = 0 (exact DBSCAN, insert-only)",
                    {},
                    /*supports_deletes=*/false,
                    /*forces_exact=*/true});
    all->push_back({"semi-approx",
                    "Theorem 1, rho-approximate, insert-only",
                    {},
                    /*supports_deletes=*/false,
                    /*forces_exact=*/false});
    all->push_back({"2d-full-exact",
                    "Theorem 4 with rho = 0 (exact DBSCAN, fully dynamic)",
                    {},
                    /*supports_deletes=*/true,
                    /*forces_exact=*/true});
    all->push_back({"double-approx",
                    "Theorem 4, rho-double-approximate, fully dynamic",
                    {},
                    /*supports_deletes=*/true,
                    /*forces_exact=*/false});
    all->push_back({"inc-dbscan",
                    "IncDBSCAN baseline [8] (exact, fully dynamic)",
                    {},
                    /*supports_deletes=*/true,
                    /*forces_exact=*/true});
    all->push_back(
        {"sharded-double-approx",
         "Theorem 4 sharded over spatial slabs with ghost zones, one worker"
         " thread per shard, cross-shard cluster stitching",
         {{"shards", "slab count S in [1, 64] (default 4)"},
          {"threads", "worker threads in [1, 64]; 0 = one per shard"
                      " (default 0)"},
          {"batch", "updates per published shard batch (default 64)"},
          {"warmup", "inserts buffered before the split dimension is chosen"
                     " (default 2048)"}},
         /*supports_deletes=*/true,
         /*forces_exact=*/false});
    return all;
  }();
  return *infos;
}

std::string MethodHelp() {
  std::ostringstream out;
  out << "registered methods (spec grammar: name[:key=value,key=value...]):\n";
  for (const MethodInfo& info : AllMethodInfos()) {
    out << "  " << info.name << " — " << info.summary;
    if (!info.supports_deletes) out << " (insert-only)";
    out << "\n";
    for (const MethodKnob& knob : info.knobs) {
      out << "      " << knob.key << ": " << knob.help << "\n";
    }
  }
  return out.str();
}

std::unique_ptr<Clusterer> MakeMethod(const std::string& spec,
                                      DbscanParams params) {
  ParsedSpec parsed;
  ShardedClusterer::Options sharded;
  std::string why;
  if (!ValidateSpec(spec, &parsed, &sharded, &why)) {
    std::fprintf(stderr, "bad method spec '%s': %s\n%s", spec.c_str(),
                 why.c_str(), MethodHelp().c_str());
    DDC_CHECK(false && "bad method spec");
  }
  params = EffectiveParams(spec, params);
  if (parsed.name == "2d-semi-exact" || parsed.name == "semi-approx") {
    return std::make_unique<SemiDynamicClusterer>(params);
  }
  if (parsed.name == "2d-full-exact" || parsed.name == "double-approx") {
    return std::make_unique<FullyDynamicClusterer>(params);
  }
  if (parsed.name == "inc-dbscan") {
    return std::make_unique<IncrementalDbscan>(params);
  }
  DDC_CHECK(parsed.name == "sharded-double-approx");
  return std::make_unique<ShardedClusterer>(params, sharded);
}

bool ValidateMethodSpec(const std::string& spec, std::string* why) {
  ParsedSpec parsed;
  ShardedClusterer::Options sharded;
  std::string local;
  if (ValidateSpec(spec, &parsed, &sharded, &local)) return true;
  if (why != nullptr) *why = local;
  return false;
}

std::string MethodBaseName(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

DbscanParams EffectiveParams(const std::string& spec, DbscanParams params) {
  const MethodInfo* info = FindInfo(MethodBaseName(spec));
  if (info != nullptr && info->forces_exact) params.rho = 0;
  return params;
}

const std::vector<std::string>& MethodNames() {
  static const std::vector<std::string>* const names = [] {
    auto* all = new std::vector<std::string>();
    for (const MethodInfo& info : AllMethodInfos()) {
      all->push_back(info.name);
    }
    return all;
  }();
  return *names;
}

bool IsMethod(const std::string& spec) {
  return FindInfo(MethodBaseName(spec)) != nullptr;
}

bool MethodSupportsDeletes(const std::string& spec) {
  const MethodInfo* info = FindInfo(MethodBaseName(spec));
  return info == nullptr || info->supports_deletes;
}

DbscanParams PaperParams(int dim, double eps_over_d, double rho) {
  return DbscanParams{.dim = dim,
                      .eps = eps_over_d * dim,
                      .min_pts = 10,
                      .rho = rho};
}

}  // namespace ddc
