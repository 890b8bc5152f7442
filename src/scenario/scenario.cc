#include "scenario/scenario.h"

#include <cstdio>
#include <limits>

#include "common/check.h"

namespace ddc {

namespace {

/// Aborts naming the spec and what is wrong with it.
void RefuseSpec(const std::string& text, const std::string& why) {
  std::fprintf(stderr, "bad scenario spec '%s': %s\n", text.c_str(),
               why.c_str());
  DDC_CHECK(false && "bad scenario spec");
}

}  // namespace

const Scenario* FindScenario(const std::string& name) {
  for (const auto& s : AllScenarios()) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

Workload BuildScenarioWorkload(const std::string& spec_text,
                               uint64_t default_seed) {
  Spec spec;
  std::string why;
  if (!Spec::Parse(spec_text, &spec, &why)) RefuseSpec(spec_text, why);
  const Scenario* scenario = FindScenario(spec.name());
  if (scenario == nullptr) {
    RefuseSpec(spec_text, "unknown scenario '" + spec.name() +
                              "'; available:\n" + ScenarioHelp());
  }
  const uint64_t seed = static_cast<uint64_t>(
      spec.GetInt("seed", static_cast<int64_t>(default_seed), 0,
                  std::numeric_limits<int64_t>::max()));
  Workload w = scenario->Generate(spec, seed);
  if (spec.Problem(&why)) RefuseSpec(spec_text, why);
  DDC_CHECK(w.dim > 0 && "scenario must set Workload::dim");
  w.seed = seed;  // Effective seed (a spec seed= key beats the flag).
  return w;
}

std::string ScenarioHelp() {
  std::string out;
  for (const auto& s : AllScenarios()) {
    out += "  " + s->name() + "\n      " + s->help() + "\n";
  }
  return out;
}

}  // namespace ddc
