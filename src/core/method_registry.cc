#include "core/method_registry.h"

#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "common/flags.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/incremental_dbscan.h"
#include "core/semi_dynamic_clusterer.h"
#include "engine/sharded_clusterer.h"

namespace ddc {
namespace {

/// Parses `text` and finds the method it names, reading the sharded
/// engine's knobs into `*sharded` when it names that engine. nullptr, with
/// the problem in `*why`, on a malformed spec, an unknown method, or a knob
/// that is malformed, out of range or not the method's.
const MethodInfo* ValidateSpec(const std::string& text,
                               ShardedClusterer::Options* sharded,
                               std::string* why) {
  Spec spec;
  if (!Spec::Parse(text, &spec, why)) return nullptr;
  const MethodInfo* info = nullptr;
  for (const MethodInfo& candidate : AllMethodInfos()) {
    if (candidate.name == spec.name()) info = &candidate;
  }
  if (info == nullptr) {
    *why = "unknown method '" + spec.name() + "'";
    return nullptr;
  }
  if (info->name == "sharded-double-approx") {  // Defaults: Options'.
    constexpr int kMax = ShardedClusterer::kMaxShards;
    sharded->shards =
        static_cast<int>(spec.GetInt("shards", sharded->shards, 1, kMax));
    sharded->threads =
        static_cast<int>(spec.GetInt("threads", sharded->threads, 0, kMax));
    sharded->batch =
        static_cast<int>(spec.GetInt("batch", sharded->batch, 1, 1 << 20));
    sharded->warmup =
        static_cast<int>(spec.GetInt("warmup", sharded->warmup, 0, 1 << 28));
  }
  return spec.Problem(why) ? nullptr : info;
}

/// The method a valid spec names; nullptr for an invalid spec, with the
/// problem in `*why` unless `why` is nullptr.
const MethodInfo* FindMethod(const std::string& text, std::string* why) {
  ShardedClusterer::Options sharded;
  std::string local;
  const MethodInfo* info = ValidateSpec(text, &sharded, &local);
  if (info == nullptr && why != nullptr) *why = local;
  return info;
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
  ShardedClusterer::Options sharded;
  std::string why;
  const MethodInfo* info = ValidateSpec(spec, &sharded, &why);
  if (info == nullptr) {
    std::fprintf(stderr, "bad method spec '%s': %s\n%s", spec.c_str(),
                 why.c_str(), MethodHelp().c_str());
    DDC_CHECK(false && "bad method spec");
  }
  if (info->forces_exact) params.rho = 0;
  if (info->name == "2d-semi-exact" || info->name == "semi-approx") {
    return std::make_unique<SemiDynamicClusterer>(params);
  }
  if (info->name == "2d-full-exact" || info->name == "double-approx") {
    return std::make_unique<FullyDynamicClusterer>(params);
  }
  if (info->name == "inc-dbscan") {
    return std::make_unique<IncrementalDbscan>(params);
  }
  DDC_CHECK(info->name == "sharded-double-approx");
  return std::make_unique<ShardedClusterer>(params, sharded);
}

bool ValidateMethodSpec(const std::string& spec, std::string* why) {
  return FindMethod(spec, why) != nullptr;
}

DbscanParams EffectiveParams(const std::string& spec, DbscanParams params) {
  const MethodInfo* info = FindMethod(spec, nullptr);
  if (info != nullptr && info->forces_exact) params.rho = 0;
  return params;
}

bool MethodSupportsDeletes(const std::string& spec) {
  const MethodInfo* info = FindMethod(spec, nullptr);
  return info == nullptr || info->supports_deletes;
}

DbscanParams PaperParams(int dim, double eps_over_d, double rho) {
  return DbscanParams{.dim = dim,
                      .eps = eps_over_d * dim,
                      .min_pts = 10,
                      .rho = rho};
}

}  // namespace ddc
