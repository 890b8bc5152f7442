#include "checks.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/random.h"
#include "core/cluster_snapshot.h"
#include "core/static_dbscan.h"

namespace perfbench {

namespace {

/// Alive positions within squared radius `r_sq` of `p` (itself included).
std::vector<size_t> Neighbours(const AliveSet& alive, const ddc::Point& p,
                               int dim, double r_sq) {
  std::vector<size_t> out;
  for (size_t j = 0; j < alive.points.size(); ++j) {
    if (ddc::SquaredDistance(p, alive.points[j], dim) <= r_sq) out.push_back(j);
  }
  return out;
}

int64_t CountWithin(const AliveSet& alive, const ddc::Point& p, int dim,
                    double r_sq) {
  int64_t n = 0;
  for (const ddc::Point& q : alive.points) {
    if (ddc::SquaredDistance(p, q, dim) <= r_sq) ++n;
  }
  return n;
}

}  // namespace

CheckTally ProbeTheorem3(ddc::Clusterer& clusterer, const AliveSet& alive,
                         const ddc::DbscanParams& params, uint64_t seed,
                         int samples, int pairs_per_core) {
  CheckTally tally;
  if (alive.ids.empty()) return tally;
  const int dim = params.dim;
  const double eps_sq = params.eps * params.eps;
  const double outer = params.eps * (1 + params.rho);
  const double outer_sq = outer * outer;

  ddc::Rng rng(seed ^ 0x7468656f72656d33ULL);
  struct Probe {
    size_t pos;
    bool must_cluster = false;        // ε-core
    std::vector<size_t> must_share;   // ε-close ε-core partners
    bool must_be_noise = false;       // no (1+ρ)ε-core within (1+ρ)ε
  };
  std::vector<Probe> probes;
  std::set<size_t> asked;
  for (int s = 0; s < samples; ++s) {
    Probe probe;
    probe.pos = rng.NextBelow(alive.points.size());
    const ddc::Point& p = alive.points[probe.pos];
    const std::vector<size_t> near = Neighbours(alive, p, dim, eps_sq);
    probe.must_cluster =
        static_cast<int64_t>(near.size()) >= params.min_pts;
    if (probe.must_cluster) {
      for (const size_t q : near) {
        if (static_cast<int>(probe.must_share.size()) >= pairs_per_core) break;
        if (q == probe.pos) continue;
        if (CountWithin(alive, alive.points[q], dim, eps_sq) >=
            params.min_pts) {
          probe.must_share.push_back(q);
        }
      }
    } else {
      const std::vector<size_t> wide = Neighbours(alive, p, dim, outer_sq);
      bool core_nearby = false;
      for (const size_t q : wide) {
        if (CountWithin(alive, alive.points[q], dim, outer_sq) >=
            params.min_pts) {
          core_nearby = true;
          break;
        }
      }
      probe.must_be_noise = !core_nearby;
    }
    asked.insert(probe.pos);
    for (const size_t q : probe.must_share) asked.insert(q);
    probes.push_back(std::move(probe));
  }

  std::vector<ddc::PointId> q;
  for (const size_t pos : asked) q.push_back(alive.ids[pos]);
  const ddc::CGroupByResult result = clusterer.Snapshot()->Query(q);
  std::unordered_map<ddc::PointId, std::vector<int>> groups_of;
  for (size_t g = 0; g < result.groups.size(); ++g) {
    for (const ddc::PointId id : result.groups[g]) {
      groups_of[id].push_back(static_cast<int>(g));
    }
  }
  auto groups = [&](size_t pos) -> std::vector<int> {
    const auto it = groups_of.find(alive.ids[pos]);
    if (it == groups_of.end()) return {};
    std::vector<int> g = it->second;
    std::sort(g.begin(), g.end());
    return g;
  };
  for (const Probe& probe : probes) {
    const std::vector<int> mine = groups(probe.pos);
    const std::string id = std::to_string(alive.ids[probe.pos]);
    if (probe.must_cluster) {
      tally.Expect(!mine.empty(), "eps-core point " + id + " reported noise");
    }
    for (const size_t partner : probe.must_share) {
      const std::vector<int> theirs = groups(partner);
      std::vector<int> common;
      std::set_intersection(mine.begin(), mine.end(), theirs.begin(),
                            theirs.end(), std::back_inserter(common));
      tally.Expect(!common.empty(),
                   "eps-close eps-core points " + id + " and " +
                       std::to_string(alive.ids[partner]) +
                       " share no group");
    }
    if (probe.must_be_noise) {
      tally.Expect(mine.empty(), "point " + id +
                                     " has no (1+rho)eps-core within"
                                     " (1+rho)eps but is clustered");
    }
  }
  return tally;
}

CheckTally FullSandwich(ddc::Clusterer& clusterer, const AliveSet& alive,
                        const ddc::DbscanParams& params) {
  CheckTally tally;
  ddc::DbscanParams outer = params;
  outer.eps = params.eps * (1 + params.rho);
  const ddc::CGroupByResult lower =
      ddc::StaticDbscan(alive.points, params).ToGroups(alive.ids);
  const ddc::CGroupByResult upper =
      ddc::StaticDbscan(alive.points, outer).ToGroups(alive.ids);
  ddc::CGroupByResult reported = clusterer.Snapshot()->Query(alive.ids);
  reported.Canonicalize();
  std::string why;
  tally.Expect(ddc::CheckSandwich(lower, reported, upper, &why),
               "sandwich violated: " + why);
  return tally;
}

}  // namespace perfbench
