#include "grid/neighbor_offsets.h"

#include <cmath>

#include "common/check.h"

namespace ddc {

NeighborOffsets::NeighborOffsets(int dim, double side, double eps) : dim_(dim) {
  DDC_CHECK(dim >= 1 && dim <= kMaxDim);
  DDC_CHECK(side > 0 && eps > 0);
  // Offsets beyond R in any coordinate are separated by more than eps:
  // an offset of |z| contributes boundary gap (|z| - 1) * side.
  const int radius = static_cast<int>(std::floor(eps / side)) + 1;
  radius_ = radius;
  const double eps_sq = eps * eps * (1 + 1e-12);  // Tolerate fp noise on ties.

  std::array<int32_t, kMaxDim> z{};
  // Iterative odometer over [-radius, radius]^dim.
  for (int i = 0; i < dim; ++i) z[i] = -radius;
  for (;;) {
    double gap_sq = 0;
    for (int i = 0; i < dim; ++i) {
      const int a = std::abs(z[i]) - 1;
      if (a > 0) gap_sq += static_cast<double>(a) * a * side * side;
    }
    if (gap_sq <= eps_sq) offsets_.push_back(z);
    // Advance odometer.
    int i = 0;
    while (i < dim && z[i] == radius) z[i++] = -radius;
    if (i == dim) break;
    ++z[i];
  }
}

}  // namespace ddc
