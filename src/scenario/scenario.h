#ifndef DDC_SCENARIO_SCENARIO_H_
#define DDC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "workload/workload.h"

namespace ddc {

/// A named, seeded workload generator, selected by a Spec such as
/// `burst:n=200000,dup=0.3` or plain `paper-mixed`. Implementations must be
/// deterministic: the same spec and seed yield an identical Workload,
/// operation for operation.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Registry key, e.g. "sliding-window".
  virtual std::string name() const = 0;

  /// One-line description plus the accepted keys, for `ddc_driver --list`.
  virtual std::string help() const = 0;

  /// Reads its keys through the spec's getters, which record what they
  /// read and refuse; BuildScenarioWorkload refuses the spec afterwards if
  /// a value was refused or a key went unread.
  virtual Workload Generate(const Spec& spec, uint64_t seed) const = 0;
};

/// All built-in scenarios, in registry order.
const std::vector<std::unique_ptr<Scenario>>& AllScenarios();

/// Lookup by name; nullptr when unknown.
const Scenario* FindScenario(const std::string& name);

/// One-stop shop: parses `spec_text`, looks up the scenario, reads the seed
/// (a spec's `seed=` key, a non-negative integer, beats `default_seed`) and
/// generates. Aborts, naming the problem, on a malformed spec, an unknown
/// scenario, a malformed or non-finite value, or a key no generator read.
Workload BuildScenarioWorkload(const std::string& spec_text,
                               uint64_t default_seed);

/// Human-readable list of every scenario and its keys.
std::string ScenarioHelp();

}  // namespace ddc

#endif  // DDC_SCENARIO_SCENARIO_H_
