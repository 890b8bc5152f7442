// google-benchmark microbenchmarks of the individual substrates: union-find,
// Euler-tour forests, HDT connectivity, grid maintenance and cell creation,
// emptiness queries, the flat-hash / packed-coordinate layouts the hot paths
// run on, and the snapshot freeze. These are the per-operation costs the
// amortized analyses of Theorems 1 and 4 are built from.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/random.h"
#include "connectivity/hdt.h"
#include "core/cluster_snapshot.h"
#include "core/emptiness.h"
#include "core/fully_dynamic_clusterer.h"
#include "geom/simd_kernels.h"
#include "grid/grid.h"
#include "telemetry/metrics.h"
#include "unionfind/union_find.h"
#include "workload/seed_spreader.h"

namespace ddc {
namespace {

void BM_UnionFind_FindAfterUnions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  UnionFind uf(n);
  Rng rng(1);
  for (int i = 0; i < n / 2; ++i) {
    uf.Union(static_cast<int>(rng.NextBelow(n)),
             static_cast<int>(rng.NextBelow(n)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(uf.Find(static_cast<int>(rng.NextBelow(n))));
  }
}
BENCHMARK(BM_UnionFind_FindAfterUnions)->Arg(1024)->Arg(65536);

void BM_Ett_LinkCut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  EulerTourForest f;
  f.EnsureVertices(n);
  Rng rng(2);
  // A random spanning path to keep trees non-trivial.
  std::vector<EulerTourForest::ArcPair> arcs;
  for (int i = 0; i + 1 < n; ++i) arcs.push_back(f.Link(i, i + 1));
  for (auto _ : state) {
    const int i = static_cast<int>(rng.NextBelow(arcs.size()));
    f.Cut(arcs[i]);
    arcs[i] = f.Link(i, i + 1);
  }
}
BENCHMARK(BM_Ett_LinkCut)->Arg(1024)->Arg(16384);

void BM_Hdt_InsertDeleteMix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  HdtConnectivity c;
  c.EnsureVertices(n);
  Rng rng(3);
  std::vector<std::pair<int, int>> edges;
  std::set<std::pair<int, int>> present;
  for (auto _ : state) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (present.count(key) == 0 &&
        (edges.size() < static_cast<size_t>(n) || rng.NextBernoulli(0.5))) {
      c.AddEdge(u, v);
      present.insert(key);
      edges.push_back(key);
    } else if (!edges.empty()) {
      const size_t i = rng.NextBelow(edges.size());
      if (present.count(edges[i])) {
        c.RemoveEdge(edges[i].first, edges[i].second);
        present.erase(edges[i]);
        edges[i] = edges.back();
        edges.pop_back();
      }
    }
  }
}
BENCHMARK(BM_Hdt_InsertDeleteMix)->Arg(512)->Arg(4096);

void BM_Hdt_ComponentId(benchmark::State& state) {
  const int n = 4096;
  HdtConnectivity c;
  c.EnsureVertices(n);
  Rng rng(4);
  for (int i = 0; i < 2 * n; ++i) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u != v && !c.Connected(u, v)) c.AddEdge(u, v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        c.ComponentId(static_cast<int>(rng.NextBelow(n))));
  }
}
BENCHMARK(BM_Hdt_ComponentId);

void BM_Grid_InsertDelete(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid grid(dim, 100.0 * dim);
  Rng rng(5);
  std::vector<PointId> alive;
  for (auto _ : state) {
    if (alive.size() < 10000 || rng.NextBernoulli(0.5)) {
      Point p;
      for (int i = 0; i < dim; ++i) p[i] = rng.NextDouble(0, 100000.0);
      alive.push_back(grid.Insert(p).id);
    } else {
      const size_t i = rng.NextBelow(alive.size());
      grid.Delete(alive[i]);
      alive[i] = alive.back();
      alive.pop_back();
    }
  }
}
BENCHMARK(BM_Grid_InsertDelete)->Arg(2)->Arg(3)->Arg(7);

// 200 core points of one cell, probed from its ε-neighbourhood: the box
// prefilter answers the far probes, the scan the near ones.
void BM_Emptiness_Query(benchmark::State& state) {
  DbscanParams params{.dim = 3, .eps = 300.0, .min_pts = 10, .rho = 0.001};
  Grid grid(3, params.eps);
  std::vector<int32_t> slots;
  Rng rng(6);
  std::unique_ptr<CellEmptiness> s;
  for (int i = 0; i < 200; ++i) {
    Point p;
    for (int k = 0; k < 3; ++k) p[k] = rng.NextDouble(0, grid.side());
    const Grid::InsertResult ins = grid.Insert(p);
    if (s == nullptr) {
      s = std::make_unique<CellEmptiness>(&grid, params,
                                          grid.cell_box(ins.cell), &slots);
    }
    s->Insert(ins.id);
  }
  for (auto _ : state) {
    Point q;
    for (int k = 0; k < 3; ++k) q[k] = rng.NextDouble(-300, 300 + grid.side());
    benchmark::DoNotOptimize(s->Query(q));
  }
}
BENCHMARK(BM_Emptiness_Query);

/// Cell creation with neighbor linking: each iteration inserts a point into
/// a new cell of a d-dimensional grid that already holds 20k cells, about
/// what drift reaches at N = 100k. The cells are distinct random keys in a
/// box `width` cells wide per dimension (second arg); the widths give a new
/// cell 27–30 ε-close made cells (the `links` counter reads the mean), like
/// drift's 28–39. Fixed iterations keep the grid near 20k cells.
constexpr int kCreateCellIterations = 2000;

void BM_Grid_CreateCell(benchmark::State& state) {
  constexpr int kCells = 20000;
  const int dim = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  Grid grid(dim, 100.0 * dim);
  Rng rng(7);
  FlatHashSet<CellKey, CellKeyHash> seen;
  std::vector<Point> points;
  while (points.size() < kCells + kCreateCellIterations) {
    CellKey key;
    for (int i = 0; i < dim; ++i) {
      key[i] = static_cast<int32_t>(rng.NextBelow(width));
    }
    if (!seen.Insert(key)) continue;
    Point p;
    for (int i = 0; i < dim; ++i) p[i] = (key[i] + 0.5) * grid.side();
    points.push_back(p);
  }
  for (int i = 0; i < kCells; ++i) grid.Insert(points[i]);
  size_t next = kCells;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Insert(points[next++]));
  }
  double links = 0;
  for (CellId c = kCells; c < grid.num_cells(); ++c) {
    links += static_cast<double>(grid.cell(c).neighbors.size());
  }
  state.counters["links"] = links / kCreateCellIterations;
}
BENCHMARK(BM_Grid_CreateCell)
    ->Args({3, 44})
    ->Args({5, 20})
    ->Args({7, 14})
    ->Iterations(kCreateCellIterations)
    ->Unit(benchmark::kMicrosecond);

// --- Hash-table layout: FlatHashMap vs std::unordered_map -------------------
// The access pattern mirrors the clusterer hot paths: tables keyed by packed
// 64-bit pair keys, a churn of inserts and erases around a steady size, and
// lookups that mostly hit.

template <typename Map>
void HashChurn(benchmark::State& state, Map& map) {
  const int keyspace = static_cast<int>(state.range(0));
  Rng rng(8);
  for (auto _ : state) {
    const uint64_t key = rng.NextBelow(keyspace);
    if (rng.NextBernoulli(0.5)) {
      map[key] = static_cast<int64_t>(key);
    } else {
      map.erase(key);
    }
    benchmark::DoNotOptimize(map.find(key));
  }
}

/// Adapter so the std container and FlatHashMap share one benchmark body.
struct FlatMapShim {
  FlatHashMap<uint64_t, int64_t> m;
  int64_t& operator[](uint64_t k) { return m[k]; }
  void erase(uint64_t k) { m.Erase(k); }
  const int64_t* find(uint64_t k) const { return m.Find(k); }
};

void BM_FlatHashMap_Churn(benchmark::State& state) {
  FlatMapShim map;
  HashChurn(state, map);
}
BENCHMARK(BM_FlatHashMap_Churn)->Arg(1024)->Arg(65536);

void BM_StdUnorderedMap_Churn(benchmark::State& state) {
  std::unordered_map<uint64_t, int64_t> map;
  HashChurn(state, map);
}
BENCHMARK(BM_StdUnorderedMap_Churn)->Arg(1024)->Arg(65536);

void BM_FlatHashMap_LookupHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FlatHashMap<uint64_t, int64_t> map;
  Rng rng(9);
  for (int i = 0; i < n; ++i) map[rng.NextBelow(4 * n)] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(rng.NextBelow(4 * n)));
  }
}
BENCHMARK(BM_FlatHashMap_LookupHit)->Arg(1024)->Arg(65536);

void BM_StdUnorderedMap_LookupHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::unordered_map<uint64_t, int64_t> map;
  Rng rng(9);
  for (int i = 0; i < n; ++i) map[rng.NextBelow(4 * n)] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(rng.NextBelow(4 * n)));
  }
}
BENCHMARK(BM_StdUnorderedMap_LookupHit)->Arg(1024)->Arg(65536);

// CellKey-keyed tables are the hot case (the grid's cell index): the
// key is 32 bytes, the hash is 8 mixes, and the flat table both caches the
// hash per slot and accepts it precomputed (FindHashed) the way the grid
// threads it through each operation.

std::vector<CellKey> CellKeyPool(int n) {
  std::vector<CellKey> keys;
  Rng rng(12);
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    CellKey k;
    for (int d = 0; d < 3; ++d) {
      k[d] = static_cast<int32_t>(rng.NextBelow(64)) - 32;
    }
    keys.push_back(k);
  }
  return keys;
}

void BM_FlatHashMap_CellKeyLookup(benchmark::State& state) {
  const std::vector<CellKey> keys = CellKeyPool(4096);
  FlatHashMap<CellKey, int32_t, CellKeyHash> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = static_cast<int32_t>(i);
  }
  Rng rng(13);
  for (auto _ : state) {
    const CellKey& k = keys[rng.NextBelow(keys.size())];
    benchmark::DoNotOptimize(map.FindHashed(k.Hash(), k));
  }
}
BENCHMARK(BM_FlatHashMap_CellKeyLookup);

void BM_StdUnorderedMap_CellKeyLookup(benchmark::State& state) {
  const std::vector<CellKey> keys = CellKeyPool(4096);
  std::unordered_map<CellKey, int32_t, CellKeyHash> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = static_cast<int32_t>(i);
  }
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[rng.NextBelow(keys.size())]));
  }
}
BENCHMARK(BM_StdUnorderedMap_CellKeyLookup);

// --- ε-range scan layout: packed per-cell coords vs record indirection ------
// BM_Grid_RangeScan is the shipping path (ForEachPointInRange streaming each
// cell's packed coordinate array). BM_Grid_RangeScanIndirect walks the same
// cells but fetches every candidate through grid.point(id) — the pre-overhaul
// memory layout — to keep the cost of the pointer chase measurable.

Grid& RangeScanGrid(int dim) {
  static Grid* grids[kMaxDim + 1] = {};
  if (grids[dim] == nullptr) {
    grids[dim] = new Grid(dim, 100.0 * dim);
    Rng rng(10);
    for (int i = 0; i < 50000; ++i) {
      Point p;
      for (int k = 0; k < dim; ++k) p[k] = rng.NextDouble(0, 3000.0);
      grids[dim]->Insert(p);
    }
  }
  return *grids[dim];
}

void BM_Grid_RangeScan(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid& grid = RangeScanGrid(dim);
  Rng rng(11);
  for (auto _ : state) {
    Point q;
    for (int k = 0; k < dim; ++k) q[k] = rng.NextDouble(0, 3000.0);
    int64_t hits = 0;
    grid.ForEachPointInRange(q, grid.eps(), [&](PointId) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Grid_RangeScan)->Arg(2)->Arg(3)->Arg(7);

// --- Batch distance predicate: dispatched SIMD vs forced scalar -------------
// The innermost kernel of every ε-range scan / emptiness probe / capped
// count, on the packed per-cell layout: one query against n candidate rows.
// _Dispatched runs whatever the CPUID dispatcher picked (see simd_kernels.h;
// the per-run context line prints nothing about it, so compare against
// ActiveSimdLevel() when reading results); _Scalar pins the portable loop.
// items_processed = candidate rows, so the report's items/s is rows/s.

void BatchFilterBody(benchmark::State& state, FilterWithinFn kernel) {
  const int dim = static_cast<int>(state.range(0));
  constexpr int kRows = 1024;
  Rng rng(14);
  Point q;
  for (int i = 0; i < dim; ++i) q[i] = rng.NextDouble(0, 100.0);
  std::vector<double> rows;
  rows.reserve(static_cast<size_t>(kRows) * dim);
  for (int j = 0; j < kRows; ++j) {
    for (int i = 0; i < dim; ++i) {
      rows.push_back(q[i] + rng.NextDouble(-60.0, 60.0));
    }
  }
  // ~half the rows within range, like a dense ε-scan.
  const double r_sq = 45.0 * 45.0 * dim;
  uint8_t mask[kRows];
  for (auto _ : state) {
    kernel(q.data(), rows.data(), kRows, dim, r_sq, mask);
    benchmark::DoNotOptimize(mask);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void BM_BatchFilter_Dispatched(benchmark::State& state) {
  BatchFilterBody(state, simd_internal::ActiveFilterKernel());
}
BENCHMARK(BM_BatchFilter_Dispatched)->Arg(2)->Arg(3)->Arg(5)->Arg(7);

void BM_BatchFilter_Scalar(benchmark::State& state) {
  BatchFilterBody(state, FilterKernelForLevel(SimdLevel::kScalar));
}
BENCHMARK(BM_BatchFilter_Scalar)->Arg(2)->Arg(3)->Arg(5)->Arg(7);

void BM_Grid_RangeScanIndirect(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid& grid = RangeScanGrid(dim);
  const double r_sq = grid.eps() * grid.eps();
  Rng rng(11);
  for (auto _ : state) {
    Point q;
    for (int k = 0; k < dim; ++k) q[k] = rng.NextDouble(0, 3000.0);
    int64_t hits = 0;
    grid.ForEachNearbyCell(q, [&](CellId c) {
      for (const PointId pid : grid.cell(c).points) {
        if (SquaredDistance(q, grid.point(pid), dim) <= r_sq) ++hits;
      }
    });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Grid_RangeScanIndirect)->Arg(2)->Arg(3)->Arg(7);

/// A double-approx clusterer (FullyDynamicClusterer, default structures)
/// holding 100k seed-spreader points in d = 3 at the driver's parameters
/// (ε = 100·d, MinPts = 10, ρ = 0.001), and an update stream that keeps the
/// alive count at 100k: each update inserts a random point of the pool not
/// alive now or deletes a random alive one, with equal odds.
struct FreezeFixture {
  static constexpr int kAlive = 100000;
  static constexpr int kPool = 500000;

  FreezeFixture()
      : clusterer(DbscanParams{.dim = 3, .eps = 300.0, .min_pts = 10,
                               .rho = 0.001}) {
    SeedSpreaderConfig spreader;
    spreader.dim = 3;
    spreader.num_points = kPool;
    // One walk per 4000 points, like perfbench's paper-mixed inputs.
    spreader.expected_restarts = spreader.num_points / 4000.0;
    points = GenerateSeedSpreader(spreader, rng);
    for (int i = 0; i < kPool; ++i) idle.push_back(i);
    for (int i = 0; i < kAlive; ++i) Insert();
  }

  void Insert() {
    const size_t k = rng.NextBelow(idle.size());
    std::swap(idle[k], idle.back());
    const int i = idle.back();
    idle.pop_back();
    alive.emplace_back(clusterer.Insert(points[i]), i);
  }

  void Update() {
    if (rng.NextBernoulli(0.5)) {
      Insert();
      return;
    }
    const size_t k = rng.NextBelow(alive.size());
    clusterer.Delete(alive[k].first);
    idle.push_back(alive[k].second);
    alive[k] = alive.back();
    alive.pop_back();
  }

  Rng rng{12};
  FullyDynamicClusterer clusterer;
  std::vector<Point> points;
  std::vector<int> idle;  // Pool indices not alive now.
  std::vector<std::pair<PointId, int>> alive;  // (id, pool index).
};

/// Snapshot freeze at 100k alive points, after k updates (second arg) on a
/// fresh fixture per run, so every variant sees the same state drift. First
/// arg 1: Snapshot() over the previous freeze, which rebuilds only the pages
/// and cells those updates dirtied. First arg 0: the first, full freeze of
/// the same state (GridSnapshot::Build with no previous snapshot), labeled
/// through the clusterer's own freeze of that state, taken untimed. The
/// rebuilt-share counters are the incremental arm's; a full freeze
/// rebuilds everything.
void BM_GridSnapshot_Freeze(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const int64_t k = state.range(1);
  FreezeFixture fixture;
  FullyDynamicClusterer& c = fixture.clusterer;
  c.Snapshot();
  const MetricsRegistry& metrics = MetricsRegistry::Instance();
  auto read = [&](const char* name) {
    return static_cast<double>(metrics.ValueOf(name));
  };
  const double pages_before = read("core.snapshot_pages_rebuilt");
  const double pages_reused_before = read("core.snapshot_pages_reused");
  const double cells_before = read("core.snapshot_cells_rebuilt");
  const double cells_reused_before = read("core.snapshot_cells_reused");
  for (auto _ : state) {
    state.PauseTiming();
    for (int64_t i = 0; i < k; ++i) fixture.Update();
    if (incremental) {
      state.ResumeTiming();
      benchmark::DoNotOptimize(c.Snapshot());
      continue;
    }
    const auto labels =
        std::static_pointer_cast<const GridSnapshot>(c.Snapshot());
    state.ResumeTiming();
    SnapshotDirtySet dirty;
    benchmark::DoNotOptimize(GridSnapshot::Build(
        c.grid(), [&](PointId p) { return c.is_core(p); },
        [&](CellId, PointId p) { return labels->CoreLabelOf(p); }, c.params(),
        0, nullptr, &dirty));
  }
  state.counters["alive"] = static_cast<double>(c.size());
  if (!incremental) return;
  // Share of the page table and of the cells each freeze rebuilt.
  const double pages = read("core.snapshot_pages_rebuilt") - pages_before;
  const double cells = read("core.snapshot_cells_rebuilt") - cells_before;
  state.counters["pages_rebuilt"] =
      pages / std::max(1.0, pages + read("core.snapshot_pages_reused") -
                                pages_reused_before);
  state.counters["cells_rebuilt"] =
      cells / std::max(1.0, cells + read("core.snapshot_cells_reused") -
                                cells_reused_before);
}
BENCHMARK(BM_GridSnapshot_Freeze)
    ->Args({0, 1000})
    ->Args({1, 1})
    ->Args({1, 1000})
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ddc

BENCHMARK_MAIN();
