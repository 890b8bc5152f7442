#ifndef DDC_CORE_METHOD_REGISTRY_H_
#define DDC_CORE_METHOD_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "core/params.h"

namespace ddc {

/// Name-keyed factory over the algorithm configurations the benches and
/// `ddc_driver` run, extended with the sharded engine. A method is selected
/// by a *spec*, read by Spec (common/flags.h) like a scenario spec:
///
///   spec := name [ ':' key '=' value ( ',' key '=' value )* ]
///
/// A knob value must parse whole as an integer in the knob's range.
///
/// Methods (Section 8.1's evaluation plus the engine):
///   "2d-semi-exact"         — Theorem 1 with rho = 0 (exact, insert-only)
///   "semi-approx"           — Theorem 1, ρ-approximate, insert-only
///   "2d-full-exact"         — Theorem 4 with rho = 0 (exact, fully dynamic)
///   "double-approx"         — Theorem 4, ρ-double-approximate, fully dynamic
///   "inc-dbscan"            — the IncDBSCAN baseline [8]
///   "sharded-double-approx" — Theorem 4 sharded over worker threads
///                             (knobs: shards, threads, batch, warmup)
/// Exact methods force rho to 0 regardless of `params.rho`.

/// One tunable of a method spec.
struct MethodKnob {
  std::string key;
  std::string help;
};

/// Registry entry: identity, documentation, and capabilities of one method.
struct MethodInfo {
  std::string name;
  std::string summary;
  std::vector<MethodKnob> knobs;
  bool supports_deletes = true;
  bool forces_exact = false;  // rho pinned to 0
};

/// All registered methods, in registry order.
const std::vector<MethodInfo>& AllMethodInfos();

/// Human-readable listing of every method, its capabilities and knobs —
/// the same text the registry prints before aborting on a bad spec.
std::string MethodHelp();

/// Builds the clusterer a spec describes. Aborts on a malformed spec, an
/// unknown method name, an unknown knob, or a knob value that is not an
/// integer or is out of range, after printing the problem and the full
/// method/knob listing to stderr (use ValidateMethodSpec to probe first).
std::unique_ptr<Clusterer> MakeMethod(const std::string& spec,
                                      DbscanParams params);

/// Non-aborting spec check: true when MakeMethod would accept `spec`. On
/// failure names the problem in `*why` (may be nullptr): the malformed
/// item, the unknown method or key, or the refused knob value.
bool ValidateMethodSpec(const std::string& spec, std::string* why);

/// False for the semi-dynamic (insertion-only) methods, whose Delete
/// aborts; drivers skip those on workloads containing deletions. Accepts
/// full specs.
bool MethodSupportsDeletes(const std::string& spec);

/// The parameters `spec` actually runs with: identical to `params` except
/// that exact methods force rho to 0. MakeMethod applies this itself;
/// reporting code uses it so recorded provenance matches the executed run.
DbscanParams EffectiveParams(const std::string& spec, DbscanParams params);

/// The paper's default parameters (Table 2): eps = eps_over_d * d,
/// MinPts = 10, rho = 0.001 for approximate methods (forced to 0 for the
/// exact ones inside MakeMethod).
DbscanParams PaperParams(int dim, double eps_over_d = 100.0,
                         double rho = 0.001);

}  // namespace ddc

#endif  // DDC_CORE_METHOD_REGISTRY_H_
