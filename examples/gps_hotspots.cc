// Append-only GPS hotspot detection with the semi-dynamic clusterer
// (Theorem 1): ride-hailing pickups stream in and are never retracted; the
// city wants live hotspot membership for dispatching.
//
// 2D and rho = 0, i.e. the "2d-Semi-Exact" configuration: exact DBSCAN
// clusters maintained at O~(1) per insertion, with C-group-by queries that
// cost O~(|Q|) regardless of how many millions of pings accumulated.
//
//   ./examples/gps_hotspots [--pings N]

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "core/semi_dynamic_clusterer.h"
#include "workload/seed_spreader.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const int64_t pings = flags.GetInt("pings", 50000);
  flags.CheckAllRead();

  // City coordinates in meters; a hotspot is ~150 m of walking distance,
  // and needs at least 10 nearby pickups to count.
  ddc::DbscanParams params{.dim = 2, .eps = 150.0, .min_pts = 10, .rho = 0.0};
  ddc::SemiDynamicClusterer clusterer(params);

  // Pickup stream: demand concentrates around wandering centers (event
  // venues, nightlife) — the seed spreader models exactly that.
  ddc::Rng rng(7);
  ddc::SeedSpreaderConfig city;
  city.dim = 2;
  city.num_points = pings;
  city.extent = 20000.0;     // 20 km x 20 km city.
  city.ball_radius = 120.0;  // Venue catchment.
  city.step = 300.0;
  city.noise_fraction = 0.02;
  const std::vector<ddc::Point> stream = ddc::GenerateSeedSpreader(city, rng);

  std::vector<ddc::PointId> recent;  // Last few pickups: the dispatch set.
  for (int64_t i = 0; i < pings; ++i) {
    const ddc::PointId id = clusterer.Insert(stream[i]);
    recent.push_back(id);
    if (recent.size() > 12) recent.erase(recent.begin());

    if ((i + 1) % (pings / 5) != 0) continue;
    // Dispatcher question: which of the latest pickups share a hotspot?
    ddc::CGroupByResult r = clusterer.Query(recent);
    int hot = 0;
    for (const auto& g : r.groups) hot += static_cast<int>(g.size());
    std::printf(
        "after %7lld pings: last %zu pickups -> %zu hotspot group(s), "
        "%d in hotspots, %zu isolated\n",
        static_cast<long long>(i + 1), recent.size(), r.groups.size(), hot,
        r.noise.size());
  }

  const ddc::CGroupByResult all = clusterer.QueryAll();
  std::printf("final state: %zu hotspots across %lld pickups (%zu noise)\n",
              all.groups.size(), static_cast<long long>(clusterer.size()),
              all.noise.size());
  return 0;
}
