#ifndef DDC_CORE_PARAMS_H_
#define DDC_CORE_PARAMS_H_

#include <string>

namespace ddc {

/// Parameters shared by every DBSCAN variant in the paper (Section 4):
/// exact DBSCAN is the special case rho == 0.
struct DbscanParams {
  /// Dimensionality of the data, in [1, kMaxDim]. The paper targets small d
  /// (its experiments run d = 2..7).
  int dim = 2;

  /// Radius ε of the density ball.
  double eps = 1.0;

  /// Density threshold: a point is a core point when B(p, ε) covers at least
  /// min_pts points (including p itself).
  int min_pts = 10;

  /// Approximation slack ρ >= 0. Distances in (ε, (1+ρ)ε] fall in the
  /// "don't care" band; rho == 0 recovers exact DBSCAN semantics.
  double rho = 0.001;

  /// Radius of the outer ball (1+ρ)ε.
  double eps_outer() const { return eps * (1.0 + rho); }

  /// Empty when every parameter is in range; otherwise one line naming the
  /// first out-of-range field. The one home of the range rules: Validate
  /// aborts on it, and readers of stored params report it.
  std::string RangeError() const;

  /// Aborts, naming the field, if any parameter is out of range.
  void Validate() const;

  std::string ToString() const;
};

}  // namespace ddc

#endif  // DDC_CORE_PARAMS_H_
