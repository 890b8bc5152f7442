// Sliding-window stock clustering — the paper's motivating scenario:
// "are stocks X and Y in the same cluster?", "break these 10 stocks by the
// clusters of their profiles", against a database that changes every day.
//
// Each trading day every stock publishes a 3-dimensional risk profile
// (volatility, momentum, volume anomaly). We keep a 20-day sliding window:
// today's profiles are inserted, day-minus-20's are deleted — a fully
// dynamic workload. A C-group-by query over a watchlist answers the
// analyst's question in O~(|Q|), never scanning the whole window.
//
//   ./examples/stock_stream [--days N]

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "core/fully_dynamic_clusterer.h"

namespace {

constexpr int kNumStocks = 400;
constexpr int kWindowDays = 20;

/// Sector means drift slowly; member stocks wobble around them.
struct Market {
  explicit Market(uint64_t seed) : rng(seed) {
    for (int s = 0; s < kSectors; ++s) {
      sector_mean.push_back(ddc::Point{rng.NextDouble(0, 100),
                                       rng.NextDouble(0, 100),
                                       rng.NextDouble(0, 100)});
    }
  }

  ddc::Point ProfileOf(int stock) {
    const ddc::Point& m = sector_mean[stock % kSectors];
    ddc::Point p;
    for (int i = 0; i < 3; ++i) p[i] = m[i] + rng.NextDouble(-3, 3);
    return p;
  }

  void NextDay() {
    for (ddc::Point& m : sector_mean) {
      for (int i = 0; i < 3; ++i) m[i] += rng.NextDouble(-1.5, 1.5);
    }
  }

  static constexpr int kSectors = 6;
  std::vector<ddc::Point> sector_mean;
  ddc::Rng rng;
};

}  // namespace

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const int days = static_cast<int>(flags.GetInt("days", 60));
  flags.CheckAllRead();

  ddc::DbscanParams params{.dim = 3, .eps = 8.0, .min_pts = 10, .rho = 0.001};
  ddc::FullyDynamicClusterer clusterer(params);
  Market market(42);

  // day -> the PointIds inserted that day (for window eviction).
  std::deque<std::vector<ddc::PointId>> window;
  // The watchlist: one stock per sector plus two extras.
  const std::vector<int> watchlist = {0, 1, 2, 3, 4, 5, 7, 11};
  // stock -> its most recent profile's PointId.
  std::vector<ddc::PointId> latest(kNumStocks, ddc::kInvalidPoint);

  for (int day = 0; day < days; ++day) {
    market.NextDay();
    std::vector<ddc::PointId> today;
    today.reserve(kNumStocks);
    for (int s = 0; s < kNumStocks; ++s) {
      const ddc::PointId id = clusterer.Insert(market.ProfileOf(s));
      today.push_back(id);
      latest[s] = id;
    }
    window.push_back(std::move(today));
    if (static_cast<int>(window.size()) > kWindowDays) {
      for (const ddc::PointId id : window.front()) clusterer.Delete(id);
      window.pop_front();
    }

    if (day % 10 != 9) continue;
    // The analyst's question: group the watchlist by cluster.
    std::vector<ddc::PointId> q;
    for (const int s : watchlist) q.push_back(latest[s]);
    ddc::CGroupByResult r = clusterer.Query(q);
    std::printf("day %3d | window=%lld profiles | watchlist splits into %zu "
                "group(s), %zu outlier(s)\n",
                day + 1, static_cast<long long>(clusterer.size()),
                r.groups.size(), r.noise.size());
    for (const auto& g : r.groups) {
      std::printf("          group:");
      for (const ddc::PointId id : g) {
        for (const int s : watchlist) {
          if (latest[s] == id) std::printf(" stock%d", s);
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
