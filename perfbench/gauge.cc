#include "gauge.h"

#include <cmath>
#include <unordered_map>

#include "ledger.h"

namespace perfbench {
namespace {

constexpr int kPoints = 30000;
constexpr int kBlobs = 20;
constexpr double kBlobSide = 700;
constexpr double kBlobSpacing = 1000;
constexpr double kEps = 250;  // Also the grid's cell side.
/// Every kQueryStride-th point counts its ε-neighbours.
constexpr int kQueryStride = 16;

/// splitmix64: the gauge's own generator, so its points never change.
uint64_t NextRandom(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NextUnit(uint64_t& state) {
  return static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
}

/// Builds the hash grid (cell side ε) and counts, for every
/// kQueryStride-th point, the points within ε in its 3^d neighbour cells.
template <size_t D>
int64_t CountNeighbours(const std::vector<std::array<double, D>>& points) {
  using Cell = std::array<int64_t, D>;
  auto key = [](const Cell& c) {
    uint64_t h = 1469598103934665603ULL;
    for (const int64_t v : c) {
      h ^= static_cast<uint64_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> grid;
  std::vector<Cell> cells(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t k = 0; k < D; ++k) {
      cells[i][k] = static_cast<int64_t>(std::floor(points[i][k] / kEps));
    }
    grid[key(cells[i])].push_back(static_cast<uint32_t>(i));
  }
  int neighbours = 1;
  for (size_t k = 0; k < D; ++k) neighbours *= 3;
  int64_t count = 0;
  for (size_t i = 0; i < points.size(); i += kQueryStride) {
    Cell c;
    for (int o = 0; o < neighbours; ++o) {
      int r = o;
      for (size_t k = 0; k < D; ++k) {
        c[k] = cells[i][k] + r % 3 - 1;
        r /= 3;
      }
      const auto it = grid.find(key(c));
      if (it == grid.end()) continue;
      for (const uint32_t j : it->second) {
        double d2 = 0;
        for (size_t k = 0; k < D; ++k) {
          const double t = points[i][k] - points[j][k];
          d2 += t * t;
        }
        count += d2 <= kEps * kEps ? 1 : 0;
      }
    }
  }
  return count;
}

}  // namespace

HostGauge::HostGauge() {
  uint64_t state = 11;
  points_.resize(kPoints);
  for (auto& p : points_) {
    const double base =
        static_cast<double>(NextRandom(state) % kBlobs) * kBlobSpacing;
    for (double& x : p) x = base + NextUnit(state) * kBlobSide;
  }
}

double HostGauge::Run() {
  const uint64_t t0 = NowNs();
  last_count_ = CountNeighbours(points_);  // Grid built and torn down inside.
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

}  // namespace perfbench
