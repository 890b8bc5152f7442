#ifndef DDC_TESTS_TEST_UTIL_H_
#define DDC_TESTS_TEST_UTIL_H_

#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/clusterer.h"
#include "core/params.h"
#include "core/static_dbscan.h"
#include "geom/point.h"
#include "workload/workload.h"

namespace ddc {

/// n points uniform in [0, extent)^dim.
inline std::vector<Point> UniformPoints(Rng& rng, int n, int dim,
                                        double extent) {
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    for (int i = 0; i < dim; ++i) p[i] = rng.NextDouble(0, extent);
  }
  return pts;
}

/// n points drawn from `blobs` clusters of the given radius placed uniformly
/// in [0, extent)^dim, plus a fraction of uniform noise. Produces the kind
/// of density structure DBSCAN is designed for.
inline std::vector<Point> BlobPoints(Rng& rng, int n, int dim, double extent,
                                     int blobs, double radius,
                                     double noise_fraction = 0.05) {
  std::vector<Point> centers = UniformPoints(rng, blobs, dim, extent);
  std::vector<Point> pts;
  pts.reserve(n);
  for (int k = 0; k < n; ++k) {
    if (rng.NextBernoulli(noise_fraction)) {
      pts.push_back(UniformPoints(rng, 1, dim, extent)[0]);
      continue;
    }
    const Point& c = centers[rng.NextBelow(blobs)];
    Point p;
    for (int i = 0; i < dim; ++i) {
      p[i] = c[i] + rng.NextDouble(-radius, radius);
    }
    pts.push_back(p);
  }
  return pts;
}

/// Ground-truth clustering of `points` as canonical groups (ids = positions).
inline CGroupByResult OracleGroups(const std::vector<Point>& points,
                                   const DbscanParams& params) {
  return StaticDbscan(points, params).ToGroups();
}

/// Exact-DBSCAN groups at radius (1+rho)*eps — the sandwich upper bound.
inline CGroupByResult OracleGroupsOuter(const std::vector<Point>& points,
                                        DbscanParams params) {
  params.eps = params.eps_outer();
  params.rho = 0;
  return StaticDbscan(points, params).ToGroups();
}

/// The id-translation idiom shared by the cross-algorithm tests: workloads
/// address points by *insertion index*, each clusterer assigns its own
/// PointIds, and `ids[k]` records the live PointId of insertion index k
/// (kInvalidPoint while not inserted or after deletion).

/// Applies one workload update to `c`, maintaining the `ids` translation
/// table. Query operations are ignored (tests issue their own queries).
inline void ApplyOp(Clusterer& c, const Workload& w, const Operation& op,
                    std::vector<PointId>& ids) {
  if (op.type == Operation::Type::kInsert) {
    ids[op.target] = c.Insert(w.points[op.target]);
  } else if (op.type == Operation::Type::kDelete) {
    DDC_CHECK(ids[op.target] != kInvalidPoint);
    c.Delete(ids[op.target]);
    ids[op.target] = kInvalidPoint;
  }
}

/// The insertion indices currently alive under `ids`, ascending.
inline std::vector<PointId> AliveInsertionIndices(
    const std::vector<PointId>& ids) {
  std::vector<PointId> alive;
  for (size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] != kInvalidPoint) alive.push_back(static_cast<PointId>(k));
  }
  return alive;
}

/// Remaps a query result from clusterer-assigned PointIds back to insertion
/// indices, so results from different clusterers (whose id streams diverge
/// once deletions interleave with id assignment) become comparable.
/// Canonicalized.
inline CGroupByResult RemapToInsertionIndex(CGroupByResult r,
                                            const std::vector<PointId>& ids) {
  std::unordered_map<PointId, PointId> inv;
  for (size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] != kInvalidPoint) inv[ids[k]] = static_cast<PointId>(k);
  }
  for (auto& g : r.groups) {
    for (auto& p : g) p = inv.at(p);
  }
  for (auto& p : r.noise) p = inv.at(p);
  r.Canonicalize();
  return r;
}

/// Exact-DBSCAN oracle over the alive subset of the workload's points,
/// labeled by insertion index (rho is ignored by StaticDbscan, so pass
/// params with eps = eps_outer() for the sandwich upper bound).
inline CGroupByResult OracleOverAlive(const std::vector<Point>& points,
                                      const std::vector<PointId>& ids,
                                      const DbscanParams& params) {
  const std::vector<PointId> alive = AliveInsertionIndices(ids);
  std::vector<Point> alive_points;
  alive_points.reserve(alive.size());
  for (const PointId k : alive) alive_points.push_back(points[k]);
  return StaticDbscan(alive_points, params).ToGroups(alive);
}

}  // namespace ddc

#endif  // DDC_TESTS_TEST_UTIL_H_
