#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "geom/point.h"
#include "scenario/scenario.h"
#include "workload/seed_spreader.h"
#include "workload/workload.h"

namespace ddc {
namespace {

/// Emits operations while tracking the alive set, so every generator gets
/// delete-only-alive and query-only-alive invariants (and the paper's query
/// cadence: one C-group-by with |Q| ~ U[qmin, qmax] every `query_every`
/// updates) for free.
class WorkloadBuilder {
 public:
  WorkloadBuilder(Rng& rng, int dim, int64_t query_every, int query_min,
                  int query_max)
      : rng_(rng),
        query_every_(query_every),
        query_min_(query_min),
        query_max_(query_max) {
    w_.dim = dim;
  }

  /// Registers a point and immediately emits its insertion.
  int64_t InsertNew(const Point& p) {
    const int64_t idx = static_cast<int64_t>(w_.points.size());
    w_.points.push_back(p);
    pos_.push_back(static_cast<int64_t>(alive_.size()));
    alive_.push_back(idx);
    Operation op;
    op.type = Operation::Type::kInsert;
    op.target = idx;
    w_.ops.push_back(std::move(op));
    ++w_.num_inserts;
    AfterUpdate();
    return idx;
  }

  /// Deletes a specific alive insertion index.
  void Delete(int64_t idx) {
    DDC_CHECK(idx >= 0 && idx < static_cast<int64_t>(pos_.size()) &&
              pos_[idx] >= 0);
    const int64_t slot = pos_[idx];
    const int64_t last = alive_.back();
    alive_[slot] = last;
    pos_[last] = slot;
    alive_.pop_back();
    pos_[idx] = kDeleted;
    Operation op;
    op.type = Operation::Type::kDelete;
    op.target = idx;
    w_.ops.push_back(std::move(op));
    ++w_.num_deletes;
    AfterUpdate();
  }

  void DeleteRandomAlive() {
    DDC_CHECK(!alive_.empty());
    Delete(alive_[rng_.NextBelow(alive_.size())]);
  }

  /// Deletes the alive point with the smallest insertion index (FIFO
  /// expiry for sliding-window / drifting streams).
  void DeleteOldestAlive() {
    DDC_CHECK(!alive_.empty());
    while (oldest_ < static_cast<int64_t>(pos_.size()) && pos_[oldest_] < 0) {
      ++oldest_;
    }
    DDC_CHECK(oldest_ < static_cast<int64_t>(pos_.size()));
    Delete(oldest_);
  }

  int64_t alive_count() const { return static_cast<int64_t>(alive_.size()); }
  int64_t updates() const { return w_.num_inserts + w_.num_deletes; }

  Workload Finish() {
    w_.num_updates = w_.num_inserts + w_.num_deletes;
    return std::move(w_);
  }

 private:
  static constexpr int64_t kDeleted = -2;  // pos_: -1 = never alive yet.

  void AfterUpdate() {
    if (query_every_ <= 0 || updates() % query_every_ != 0 ||
        alive_.empty()) {
      return;
    }
    const int64_t hi =
        std::min<int64_t>(query_max_, static_cast<int64_t>(alive_.size()));
    const int64_t lo = std::min<int64_t>(query_min_, hi);
    const int want = static_cast<int>(rng_.NextInRange(lo, hi));
    Operation op;
    op.type = Operation::Type::kQuery;
    std::vector<int64_t> scratch(alive_);
    for (int k = 0; k < want; ++k) {
      const size_t j = k + rng_.NextBelow(scratch.size() - k);
      std::swap(scratch[k], scratch[j]);
      op.query.push_back(scratch[k]);
    }
    w_.ops.push_back(std::move(op));
    ++w_.num_queries;
  }

  Rng& rng_;
  Workload w_;
  std::vector<int64_t> alive_;  // Insertion indices, unordered.
  std::vector<int64_t> pos_;    // Insertion index -> slot in alive_.
  int64_t oldest_ = 0;
  int64_t query_every_;
  int64_t query_min_;
  int64_t query_max_;
};

/// The query-cadence keys every builder-based scenario shares.
struct CommonKeys {
  int64_t n;
  int dim;
  int64_t query_every;
  int query_min;
  int query_max;
};

CommonKeys ReadCommonKeys(const Spec& spec, int64_t default_n,
                          int default_dim, int64_t default_qevery) {
  CommonKeys keys;
  keys.n = spec.GetInt("n", default_n);
  keys.dim = static_cast<int>(spec.GetInt("dim", default_dim));
  keys.query_every = spec.GetInt("qevery", default_qevery);
  keys.query_min = static_cast<int>(spec.GetInt("qmin", 2));
  keys.query_max = static_cast<int>(spec.GetInt("qmax", 100));
  DDC_CHECK(keys.n > 0);
  DDC_CHECK(keys.dim >= 1 && keys.dim <= kMaxDim);
  return keys;
}

/// A point uniform in [0, extent)^dim.
Point UniformPoint(Rng& rng, int dim, double extent) {
  Point p;
  for (int i = 0; i < dim; ++i) p[i] = rng.NextDouble(0, extent);
  return p;
}

// ---------------------------------------------------------------------------
// paper-mixed — the paper's Section 8.1 recipe, wrapped.

class PaperMixedScenario : public Scenario {
 public:
  std::string name() const override { return "paper-mixed"; }
  std::string help() const override {
    return "Section 8.1 seed-spreader workload (shuffled inserts, good-prefix"
           " deletes). Keys: n=100000, ins=0.8333, dim=3, qevery=1000,"
           " qmin=2, qmax=100, extent=100000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    WorkloadConfig config;
    config.num_updates = spec.GetInt("n", 100000);
    config.insert_fraction = spec.GetDouble("ins", 5.0 / 6.0);
    config.query_every = spec.GetInt("qevery", 1000);
    config.query_min = static_cast<int>(spec.GetInt("qmin", 2));
    config.query_max = static_cast<int>(spec.GetInt("qmax", 100));
    config.spreader.dim = static_cast<int>(spec.GetInt("dim", 3));
    config.spreader.extent = spec.GetDouble("extent", 100000.0);
    config.seed = seed;
    return BuildWorkload(config);
  }
};

// ---------------------------------------------------------------------------
// sliding-window — a streaming window over a seed-spreader walk.

class SlidingWindowScenario : public Scenario {
 public:
  std::string name() const override { return "sliding-window"; }
  std::string help() const override {
    return "Stream over a spreader walk: insert in walk order, expire the"
           " oldest point once the window fills (FIFO churn, clusters decay"
           " behind the walker). Keys: n=100000, window=n/4, dim=3,"
           " qevery=1000, qmin, qmax, extent=20000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 100000, 3, 1000);
    const int64_t window =
        std::max<int64_t>(1, spec.GetInt("window", keys.n / 4));
    const double extent = spec.GetDouble("extent", 20000.0);

    Rng rng(seed);
    // Once the window is full every further step costs two updates
    // (insert + expiry), so k inserts produce 2k - window updates.
    const int64_t inserts =
        window >= keys.n ? keys.n : (keys.n + window + 1) / 2;
    SeedSpreaderConfig spreader;
    spreader.dim = keys.dim;
    spreader.extent = extent;
    spreader.num_points = inserts;
    // Walk order, deliberately NOT shuffled: the stream has locality.
    const std::vector<Point> stream = GenerateSeedSpreader(spreader, rng);

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    for (const Point& p : stream) {
      if (b.updates() >= keys.n) break;
      b.InsertNew(p);
      if (b.alive_count() > window && b.updates() < keys.n) {
        b.DeleteOldestAlive();
      }
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// burst — insert waves into random hotspots, partial delete waves after.

class BurstScenario : public Scenario {
 public:
  std::string name() const override { return "burst"; }
  std::string help() const override {
    return "Bursty waves: insert a burst into a random hotspot, then delete"
           " a dup-fraction wave of random points. Keys: n=100000,"
           " burst=1000, dup=0.3, clusters=10, radius=100, noise=0.05,"
           " dim=3, qevery=1000, qmin, qmax, extent=20000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 100000, 3, 1000);
    const int64_t burst = std::max<int64_t>(1, spec.GetInt("burst", 1000));
    const double dup = spec.GetDouble("dup", 0.3);
    const int clusters =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("clusters", 10)));
    const double radius = spec.GetDouble("radius", 100.0);
    const double noise = spec.GetDouble("noise", 0.05);
    const double extent = spec.GetDouble("extent", 20000.0);
    DDC_CHECK(dup >= 0 && dup < 1);

    Rng rng(seed);
    std::vector<Point> centers;
    for (int c = 0; c < clusters; ++c) {
      centers.push_back(UniformPoint(rng, keys.dim, extent));
    }

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    while (b.updates() < keys.n) {
      const Point& center = centers[rng.NextBelow(centers.size())];
      const int64_t wave = std::min(burst, keys.n - b.updates());
      for (int64_t i = 0; i < wave; ++i) {
        b.InsertNew(rng.NextBernoulli(noise)
                        ? UniformPoint(rng, keys.dim, extent)
                        : UniformInBall(center, radius, keys.dim, rng));
      }
      int64_t deletes = static_cast<int64_t>(
          std::floor(dup * static_cast<double>(wave)));
      deletes = std::min({deletes, b.alive_count() - 1,
                          keys.n - b.updates()});
      for (int64_t i = 0; i < deletes; ++i) b.DeleteRandomAlive();
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// zipf — Zipf-skewed cluster sizes: a few giants, a long tail.

class ZipfScenario : public Scenario {
 public:
  std::string name() const override { return "zipf"; }
  std::string help() const override {
    return "Mixed updates whose inserts pick a cluster Zipf(alpha)-skewed by"
           " rank, so a few clusters grow huge while the tail stays sparse."
           " Keys: n=100000, clusters=50, alpha=1.0, ins=0.9, radius=100,"
           " noise=0.02, dim=3, qevery=1000, qmin, qmax, extent=50000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 100000, 3, 1000);
    const int clusters =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("clusters", 50)));
    const double alpha = spec.GetDouble("alpha", 1.0);
    const double ins = spec.GetDouble("ins", 0.9);
    const double radius = spec.GetDouble("radius", 100.0);
    const double noise = spec.GetDouble("noise", 0.02);
    const double extent = spec.GetDouble("extent", 50000.0);
    DDC_CHECK(ins > 0 && ins <= 1);

    Rng rng(seed);
    std::vector<Point> centers;
    for (int c = 0; c < clusters; ++c) {
      centers.push_back(UniformPoint(rng, keys.dim, extent));
    }
    // Cumulative Zipf weights over cluster ranks: weight(r) = 1/(r+1)^alpha.
    std::vector<double> cdf(clusters);
    double total = 0;
    for (int r = 0; r < clusters; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf[r] = total;
    }
    for (double& v : cdf) v /= total;

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    while (b.updates() < keys.n) {
      const bool do_insert =
          b.alive_count() <= 1 || rng.NextBernoulli(ins);
      if (!do_insert) {
        b.DeleteRandomAlive();
        continue;
      }
      if (rng.NextBernoulli(noise)) {
        b.InsertNew(UniformPoint(rng, keys.dim, extent));
        continue;
      }
      const double u = rng.NextDouble();
      const int rank = static_cast<int>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      b.InsertNew(UniformInBall(centers[std::min(rank, clusters - 1)], radius,
                                keys.dim, rng));
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// drift — cluster centers wander; points expire, so clusters really move.

class DriftScenario : public Scenario {
 public:
  std::string name() const override { return "drift"; }
  std::string help() const override {
    return "Drifting clusters: centers random-walk (step `drift` per update,"
           " reflecting at the extent walls), inserts land near current"
           " centers, points expire FIFO once `window` fills — clusters"
           " physically migrate. Keys: n=100000, clusters=10, drift=2.0,"
           " window=n/4, radius=100, dim=3, qevery=1000, qmin, qmax,"
           " extent=20000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 100000, 3, 1000);
    const int clusters =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("clusters", 10)));
    const double drift = spec.GetDouble("drift", 2.0);
    const int64_t window =
        std::max<int64_t>(1, spec.GetInt("window", keys.n / 4));
    const double radius = spec.GetDouble("radius", 100.0);
    const double extent = spec.GetDouble("extent", 20000.0);

    Rng rng(seed);
    std::vector<Point> centers;
    std::vector<Point> velocity(clusters);
    for (int c = 0; c < clusters; ++c) {
      centers.push_back(UniformPoint(rng, keys.dim, extent));
      // A random direction scaled to `drift` per update.
      const Point dir = UniformInBall(Point{}, 1.0, keys.dim, rng);
      double norm = 0;
      for (int i = 0; i < keys.dim; ++i) norm += dir[i] * dir[i];
      norm = std::sqrt(std::max(norm, 1e-12));
      for (int i = 0; i < keys.dim; ++i) {
        velocity[c][i] = dir[i] / norm * drift;
      }
    }

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    while (b.updates() < keys.n) {
      for (int c = 0; c < clusters; ++c) {
        for (int i = 0; i < keys.dim; ++i) {
          double x = centers[c][i] + velocity[c][i];
          if (x < 0 || x > extent) {
            velocity[c][i] = -velocity[c][i];
            x = std::clamp(x, 0.0, extent);
          }
          centers[c][i] = x;
        }
      }
      const int c = static_cast<int>(rng.NextBelow(clusters));
      b.InsertNew(UniformInBall(centers[c], radius, keys.dim, rng));
      if (b.alive_count() > window && b.updates() < keys.n) {
        b.DeleteOldestAlive();
      }
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// hotspot — spatially skewed stream hammering one thin slab of space.

class HotspotScenario : public Scenario {
 public:
  std::string name() const override { return "hotspot"; }
  std::string help() const override {
    return "Spatially skewed mixed stream: a `hot` fraction of inserts lands"
           " in a thin band ([0, band*extent) along dimension 0) packed with"
           " dense blobs, the rest spreads over sparse blobs in the remaining"
           " space; deletes hit random alive points, so churn concentrates"
           " where the points are. Built to expose shard imbalance in the"
           " sharded engine (one slab absorbs most of the load). Keys:"
           " n=100000, hot=0.85, band=0.08, clusters=8, cold=20, ins=0.85,"
           " radius=100, noise=0.03, dim=3, qevery=1000, qmin, qmax,"
           " extent=50000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 100000, 3, 1000);
    const double hot = spec.GetDouble("hot", 0.85);
    const double band = spec.GetDouble("band", 0.08);
    const int clusters =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("clusters", 8)));
    const int cold =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("cold", 20)));
    const double ins = spec.GetDouble("ins", 0.85);
    const double radius = spec.GetDouble("radius", 100.0);
    const double noise = spec.GetDouble("noise", 0.03);
    const double extent = spec.GetDouble("extent", 50000.0);
    DDC_CHECK(hot >= 0 && hot <= 1);
    DDC_CHECK(band > 0 && band <= 1);
    DDC_CHECK(ins > 0 && ins <= 1);

    Rng rng(seed);
    const double band_hi = band * extent;
    // Hot blob centers squeeze into the band along dim 0 (full extent on the
    // other dimensions); cold centers go anywhere outside it.
    std::vector<Point> hot_centers, cold_centers;
    for (int c = 0; c < clusters; ++c) {
      Point p = UniformPoint(rng, keys.dim, extent);
      p[0] = rng.NextDouble(0, band_hi);
      hot_centers.push_back(p);
    }
    for (int c = 0; c < cold; ++c) {
      Point p = UniformPoint(rng, keys.dim, extent);
      p[0] = band_hi + rng.NextDouble(0, extent - band_hi);
      cold_centers.push_back(p);
    }

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    while (b.updates() < keys.n) {
      const bool do_insert = b.alive_count() <= 1 || rng.NextBernoulli(ins);
      if (!do_insert) {
        // Random-alive deletes inherit the spatial skew: most alive points
        // sit in the band, so most churn lands there too.
        b.DeleteRandomAlive();
        continue;
      }
      const bool in_band = rng.NextBernoulli(hot);
      if (rng.NextBernoulli(noise)) {
        Point p = UniformPoint(rng, keys.dim, extent);
        p[0] = in_band ? rng.NextDouble(0, band_hi)
                       : band_hi + rng.NextDouble(0, extent - band_hi);
        b.InsertNew(p);
        continue;
      }
      const std::vector<Point>& centers =
          in_band ? hot_centers : cold_centers;
      b.InsertNew(UniformInBall(centers[rng.NextBelow(centers.size())],
                                radius, keys.dim, rng));
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// hotspot-migrate — a hot band whose center jumps around the space.

class HotspotMigrateScenario : public Scenario {
 public:
  std::string name() const override { return "hotspot-migrate"; }
  std::string help() const override {
    return "Moving hotspot: like `hotspot`, but the hot band (width"
           " band*extent along dimension 0) jumps to a fresh random location"
           " every `period` updates and its dense blobs are re-drawn inside"
           " the new band; deletes expire the oldest alive point (FIFO), so"
           " abandoned bands actually drain. The skew moves over time:"
           " wherever the band sits turns hot, wherever it left goes cold,"
           " so a static slab partition sees a different hot shard each"
           " period and deletes sweep across slab edges. Keys: n=100000,"
           " period=n/6, hot=0.85, band=0.08, clusters=8, cold=12, ins=0.7,"
           " radius=100, noise=0.03, dim=3, qevery=1000, qmin, qmax,"
           " extent=50000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 100000, 3, 1000);
    const int64_t period =
        std::max<int64_t>(1, spec.GetInt("period", keys.n / 6));
    const double hot = spec.GetDouble("hot", 0.85);
    const double band = spec.GetDouble("band", 0.08);
    const int clusters =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("clusters", 8)));
    const int cold =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("cold", 12)));
    const double ins = spec.GetDouble("ins", 0.7);
    const double radius = spec.GetDouble("radius", 100.0);
    const double noise = spec.GetDouble("noise", 0.03);
    const double extent = spec.GetDouble("extent", 50000.0);
    DDC_CHECK(hot >= 0 && hot <= 1);
    DDC_CHECK(band > 0 && band <= 1);
    DDC_CHECK(ins > 0 && ins <= 1);

    Rng rng(seed);
    const double band_w = band * extent;
    // Cold blobs are fixed for the whole run: a sparse background the band
    // wanders across.
    std::vector<Point> cold_centers;
    for (int c = 0; c < cold; ++c) {
      cold_centers.push_back(UniformPoint(rng, keys.dim, extent));
    }

    double band_lo = 0;
    std::vector<Point> hot_centers;
    const auto rehome = [&] {
      band_lo = rng.NextDouble(0, std::max(extent - band_w, 0.0));
      hot_centers.clear();
      for (int c = 0; c < clusters; ++c) {
        Point p = UniformPoint(rng, keys.dim, extent);
        p[0] = band_lo + rng.NextDouble(0, band_w);
        hot_centers.push_back(p);
      }
    };
    rehome();

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    int64_t next_hop = period;
    while (b.updates() < keys.n) {
      if (b.updates() >= next_hop) {
        rehome();
        next_hop += period;
      }
      const bool do_insert = b.alive_count() <= 1 || rng.NextBernoulli(ins);
      if (!do_insert) {
        // FIFO expiry drains the previous band once the hotspot moves on —
        // the abandoned slab goes genuinely cold instead of lingering.
        b.DeleteOldestAlive();
        continue;
      }
      const bool in_band = rng.NextBernoulli(hot);
      if (rng.NextBernoulli(noise)) {
        Point p = UniformPoint(rng, keys.dim, extent);
        if (in_band) p[0] = band_lo + rng.NextDouble(0, band_w);
        b.InsertNew(p);
        continue;
      }
      const std::vector<Point>& centers =
          in_band ? hot_centers : cold_centers;
      b.InsertNew(UniformInBall(centers[rng.NextBelow(centers.size())],
                                radius, keys.dim, rng));
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// query-storm — update trickle under a heavy C-group-by query mix.

class QueryStormScenario : public Scenario {
 public:
  std::string name() const override { return "query-storm"; }
  std::string help() const override {
    return "Serving-shaped load: a blob population builds up, then churns"
           " slowly (ins-fraction inserts into Zipf-free random blobs,"
           " deletes of random alive points) while large C-group-by queries"
           " fire every qevery updates — the read-heavy inverse of the"
           " update-heavy scenarios, built for the snapshot read path and"
           " --query-threads. Keys: n=40000, clusters=12, ins=0.6,"
           " radius=100, noise=0.02, dim=3, qevery=5, qmin=32, qmax=128,"
           " extent=20000, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    CommonKeys keys;
    keys.n = spec.GetInt("n", 40000);
    keys.dim = static_cast<int>(spec.GetInt("dim", 3));
    keys.query_every = spec.GetInt("qevery", 5);
    keys.query_min = static_cast<int>(spec.GetInt("qmin", 32));
    keys.query_max = static_cast<int>(spec.GetInt("qmax", 128));
    DDC_CHECK(keys.n > 0);
    DDC_CHECK(keys.dim >= 1 && keys.dim <= kMaxDim);
    const int clusters =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("clusters", 12)));
    const double ins = spec.GetDouble("ins", 0.6);
    const double radius = spec.GetDouble("radius", 100.0);
    const double noise = spec.GetDouble("noise", 0.02);
    const double extent = spec.GetDouble("extent", 20000.0);
    DDC_CHECK(ins > 0 && ins <= 1);

    Rng rng(seed);
    std::vector<Point> centers;
    for (int c = 0; c < clusters; ++c) {
      centers.push_back(UniformPoint(rng, keys.dim, extent));
    }

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    while (b.updates() < keys.n) {
      const bool do_insert = b.alive_count() <= 1 || rng.NextBernoulli(ins);
      if (!do_insert) {
        b.DeleteRandomAlive();
        continue;
      }
      if (rng.NextBernoulli(noise)) {
        b.InsertNew(UniformPoint(rng, keys.dim, extent));
        continue;
      }
      b.InsertNew(UniformInBall(centers[rng.NextBelow(centers.size())],
                                radius, keys.dim, rng));
    }
    return b.Finish();
  }
};

// ---------------------------------------------------------------------------
// split-merge — adversarial bridge oscillation between two dense blobs.

class SplitMergeScenario : public Scenario {
 public:
  std::string name() const override { return "split-merge"; }
  std::string help() const override {
    return "Two dense blobs joined by a bridge of points inserted and"
           " deleted cyclically, so the cluster merges and splits every"
           " cycle — worst case for aBCP edge witnesses and HDT replacement"
           "-edge search. Keys: n=10000, eps=200 (geometry scale; match the"
           " clusterer's eps), bridge=8, blob=60, dim=2, qevery=100, qmin,"
           " qmax, seed";
  }

  Workload Generate(const Spec& spec, uint64_t seed) const override {
    const CommonKeys keys = ReadCommonKeys(spec, 10000, 2, 100);
    const double eps = spec.GetDouble("eps", 200.0);
    const int bridge =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("bridge", 8)));
    const int blob =
        static_cast<int>(std::max<int64_t>(1, spec.GetInt("blob", 60)));
    DDC_CHECK(eps > 0);

    Rng rng(seed);
    // Bridge hops of 0.75 eps chain the two blobs into one cluster whenever
    // the bridge is present; without it the blob gap is far beyond eps.
    const double gap = 0.75 * eps;
    const double blob_radius = 0.25 * eps;
    Point a, bcenter;
    for (int i = 0; i < keys.dim; ++i) a[i] = 2.0 * eps;
    bcenter = a;
    bcenter[0] += static_cast<double>(bridge + 1) * gap;

    WorkloadBuilder b(rng, keys.dim, keys.query_every, keys.query_min,
                      keys.query_max);
    // Both blobs, interleaved so neither is fully formed before the other.
    for (int i = 0; i < blob && b.updates() < keys.n; ++i) {
      b.InsertNew(UniformInBall(a, blob_radius, keys.dim, rng));
      if (b.updates() < keys.n) {
        b.InsertNew(UniformInBall(bcenter, blob_radius, keys.dim, rng));
      }
    }
    // Oscillate the bridge until the update budget is spent.
    std::vector<int64_t> live_bridge;
    while (b.updates() < keys.n) {
      live_bridge.clear();
      for (int k = 1; k <= bridge && b.updates() < keys.n; ++k) {
        Point base = a;
        base[0] += static_cast<double>(k) * gap;
        // A little jitter so every cycle stresses fresh witness pairs.
        live_bridge.push_back(
            b.InsertNew(UniformInBall(base, 0.05 * eps, keys.dim, rng)));
      }
      for (const int64_t idx : live_bridge) {
        if (b.updates() >= keys.n) break;
        b.Delete(idx);
      }
    }
    return b.Finish();
  }
};

}  // namespace

const std::vector<std::unique_ptr<Scenario>>& AllScenarios() {
  static const std::vector<std::unique_ptr<Scenario>>* const scenarios = [] {
    auto* all = new std::vector<std::unique_ptr<Scenario>>();
    all->push_back(std::make_unique<PaperMixedScenario>());
    all->push_back(std::make_unique<SlidingWindowScenario>());
    all->push_back(std::make_unique<BurstScenario>());
    all->push_back(std::make_unique<ZipfScenario>());
    all->push_back(std::make_unique<DriftScenario>());
    all->push_back(std::make_unique<HotspotScenario>());
    all->push_back(std::make_unique<HotspotMigrateScenario>());
    all->push_back(std::make_unique<QueryStormScenario>());
    all->push_back(std::make_unique<SplitMergeScenario>());
    return all;
  }();
  return *scenarios;
}

}  // namespace ddc
