#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "core/params.h"
#include "geom/point.h"

namespace perfbench {

/// Tally of output checks: how many were made, how many failed, and the
/// descriptions of the first few failures.
struct CheckTally {
  static constexpr size_t kKept = 5;

  int64_t checks = 0;
  int64_t failures = 0;
  std::vector<std::string> examples;

  void Expect(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failures;
    if (examples.size() < kKept) examples.push_back(what);
  }
  void Merge(const CheckTally& other) {
    checks += other.checks;
    failures += other.failures;
    for (const std::string& e : other.examples) {
      if (examples.size() < kKept) examples.push_back(e);
    }
  }
};

/// The alive point set a clustering is checked against.
struct AliveSet {
  std::vector<ddc::PointId> ids;
  std::vector<ddc::Point> points;
};

/// Theorem 3 probes on `samples` seeded picks from `alive`, against the
/// clustering `clusterer` reports now. Neighbour counts are exact, by brute
/// force over the whole alive set. For each pick p:
///   - an ε-core p must be in some group;
///   - p and each of up to `pairs_per_core` ε-close ε-core points must share
///     a group;
///   - a p with no (1+ρ)ε-core within (1+ρ)ε (itself included) must be
///     noise.
CheckTally ProbeTheorem3(ddc::Clusterer& clusterer, const AliveSet& alive,
                         const ddc::DbscanParams& params, uint64_t seed,
                         int samples, int pairs_per_core);

/// The full sandwich: the clustering `clusterer` reports over every alive
/// point lies between exact DBSCAN at ε and at (1+ρ)ε (the static oracle).
/// Quadratic-ish; for small inputs only.
CheckTally FullSandwich(ddc::Clusterer& clusterer, const AliveSet& alive,
                        const ddc::DbscanParams& params);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
