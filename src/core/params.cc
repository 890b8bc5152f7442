#include "core/params.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "geom/point.h"

namespace ddc {

std::string DbscanParams::RangeError() const {
  std::ostringstream out;
  if (dim < 1 || dim > kMaxDim) {
    out << "dim " << dim << " is outside [1, " << kMaxDim << "]";
  } else if (!(eps > 0) || !std::isfinite(eps)) {
    out << "eps " << eps << " is not a finite positive number";
  } else if (min_pts < 1) {
    out << "min_pts " << min_pts << " is below 1";
  } else if (!(rho >= 0 && rho < 1)) {
    out << "rho " << rho << " is outside [0, 1)";
  }
  return out.str();
}

void DbscanParams::Validate() const {
  const std::string error = RangeError();
  if (!error.empty()) {
    std::fprintf(stderr, "invalid DbscanParams: %s\n", error.c_str());
    std::abort();
  }
}

std::string DbscanParams::ToString() const {
  std::ostringstream out;
  out << "{dim=" << dim << " eps=" << eps << " min_pts=" << min_pts
      << " rho=" << rho << "}";
  return out.str();
}

}  // namespace ddc
