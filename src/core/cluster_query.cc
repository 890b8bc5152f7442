#include "core/cluster_query.h"

#include <algorithm>

namespace ddc {

void CGroupByResult::Canonicalize() {
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end());
  std::sort(noise.begin(), noise.end());
}

CGroupByResult Clusterer::QueryAll() { return Query(AlivePoints()); }

}  // namespace ddc
