// ddc_perfbench: closed-loop benchmark of the dynamic DBSCAN library.
//
//   ddc_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                 --work-dir=<dir>
//   ddc_perfbench --selftest --work-dir=<dir>
//
// One ingest thread drives the library's public API (MakeMethod / Clusterer,
// ClusterSnapshot::Query, WalWriter, Recover, ShardedClusterer::Flush) over a
// generated workload, timing every call into a layer and keeping exact
// per-op samples. A run repeats rounds (set-up, then a timed phase over the
// rest of the workload) until the timed phases add up to --seconds, checks
// the output, and prints its metrics; the last stdout line is the result
// object. End-to-end timings are scaled by a host gauge timed around every
// round (gauge.h). See README.md for the workloads and metrics.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/json.h"
#include "core/cluster_snapshot.h"
#include "core/method_registry.h"
#include "engine/sharded_clusterer.h"
#include "gauge.h"
#include "ledger.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "telemetry/metrics.h"
#include "telemetry/resource.h"
#include "telemetry/trace.h"
#include "workload/seed_spreader.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

/// Traced rounds record spans for about this many updates, evenly spaced,
/// and for one reader query in kReaderSpanEvery; self times of the sampled
/// update layers are scaled up by the sampling factor.
constexpr int64_t kUpdateSpansPerRound = 4096;
constexpr int64_t kReaderSpanEvery = 64;
/// Every this-many-th reader answer is compared with the ingest thread's.
constexpr int64_t kReaderCheckEvery = 64;
/// Ledger closure: time on the ingest thread outside every timed layer call
/// may be at most this share of the timed wall.
constexpr double kOtherShareLimit = 0.10;
/// Outside (benchmark) and inside (registry histogram) timings of one call
/// must agree within this share of the outside time.
constexpr double kCrossCheckTolerance = 0.25;
/// A traced round's per-layer self times must sum to the timed wall within
/// this share.
constexpr double kCoverageTolerance = 0.10;
/// Theorem 3 probes per run, and ε-core partners checked per core probe.
constexpr int kProbeSamples = 100;
constexpr int kProbePairs = 4;
/// No round starts after this much run time; a round still running at
/// kCutOffSeconds stops, and its remaining operations count as failed.
constexpr double kLastRoundSeconds = 100;
constexpr double kCutOffSeconds = 140;
/// One WAL segment holds a whole round's log (about 10 MB), so no segment
/// rotation, whose fsync waits on the host's disk, falls in the timed phase.
constexpr int64_t kWalSegmentBytes = int64_t{256} << 20;
/// End-to-end timings are scaled to a host on which the HostGauge task
/// takes this long (README.md, "Host speed").
constexpr double kGaugeNominalS = 0.040;

/// How a workload's inputs are generated. Seed-spreader inputs come from
/// the library's own generators with the paper's spreader settings, except
/// that the spreader restarts once per `walk_points` points instead of ten
/// times per dataset: a round then holds dozens of independent clusters, not
/// ten, so its cost depends far less on the seed (README.md).
struct InputSpec {
  enum class Kind { kPaperMixed, kSlidingWindow, kHotBand };
  Kind kind;
  int dim;
  int64_t updates;
  int64_t window;       ///< kSlidingWindow: points alive once it is full.
  int64_t walk_points;  ///< Seed-spreader points per restart.
  int64_t query_every;  ///< Updates between queries (0 = none).
  int64_t prefix;       ///< Updates applied during set-up.
};

/// One benchmark workload. All use the paper's parameters (ε = 100·d,
/// MinPts = 10, ρ = 0.001); README.md gives the reason for each.
struct WorkloadDef {
  const char* name;
  const char* method;
  int readers;  ///< Closed-loop snapshot reader threads.
  bool durable;  ///< WAL-append every update; Recover at the end.
  /// Worker threads of the sharded engine, whose query is Flush + Query on
  /// the published snapshot.
  int engine_threads;
  InputSpec input;
  InputSpec small;         ///< Self-test size, checked by the full oracle.
  uint64_t pinned_digest;  ///< DigestWorkload of round 0's input at seed 1.
};

using Kind = InputSpec::Kind;
const WorkloadDef kWorkloads[] = {
    {"mixed-readers", "double-approx", 2, false, 0,
     {Kind::kPaperMixed, 3, 200000, 0, 4000, 1000, 100000},
     {Kind::kPaperMixed, 3, 20000, 0, 1000, 200, 5000},
     0x122ac13d13ab1e29ULL},
    {"window-durable", "double-approx", 0, true, 0,
     {Kind::kSlidingWindow, 5, 250000, 100000, 2000, 0, 100000},
     {Kind::kSlidingWindow, 5, 8000, 2000, 1000, 0, 2000},
     0x44f1fa45d5068943ULL},
    {"hotspot-sharded", "sharded-double-approx:shards=4,threads=2", 0, false,
     2,
     {Kind::kHotBand, 3, 200000, 0, 0, 1000, 100000},
     {Kind::kHotBand, 3, 20000, 0, 0, 200, 5000},
     0x67a32ebc34166c48ULL},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

/// The seed of round `round`'s input: every round draws a fresh input, so a
/// run's medians cover many inputs.
uint64_t RoundSeed(uint64_t seed, int round) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(round) +
               0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The hotspot input: a `hot` share of inserts lands in dense blobs inside
/// a band [0, band·extent) along dimension 0, the rest is uniform noise
/// over the remaining space; deletes hit random alive points; a query with
/// |Q| ~ U[2, 100] every `query_every` updates. The other dimensions span
/// half the extent, so the engine always cuts its slabs along dimension 0:
/// the band lies inside slab 0 and no cut crosses a dense blob. (With the
/// `hotspot` scenario's cube, the cut dimension and whether a cut crossed a
/// blob changed from seed to seed, and a round took from 1 s to over 60 s
/// in stitching alone.)
ddc::Workload MakeHotBand(const InputSpec& in, uint64_t seed) {
  constexpr double kExtent = 50000, kBand = 0.08, kHot = 0.85, kIns = 0.85;
  constexpr double kRadius = 100;
  constexpr int kBlobs = 8;
  ddc::Rng rng(seed);
  auto point = [&](double x_lo, double x_hi) {
    ddc::Point p;
    p[0] = rng.NextDouble(x_lo, x_hi);
    for (int k = 1; k < in.dim; ++k) p[k] = rng.NextDouble(0, kExtent / 2);
    return p;
  };
  std::vector<ddc::Point> centers;
  for (int c = 0; c < kBlobs; ++c) centers.push_back(point(0, kBand * kExtent));

  ddc::Workload w;
  w.dim = in.dim;
  w.seed = seed;
  std::vector<int64_t> alive;  // Insertion indices, unordered.
  std::vector<int64_t> slot;   // Insertion index -> position in `alive`.
  while (w.num_updates < in.updates) {
    if (alive.size() > 1 && !rng.NextBernoulli(kIns)) {
      const int64_t idx = alive[rng.NextBelow(alive.size())];
      alive[slot[idx]] = alive.back();
      slot[alive.back()] = slot[idx];
      alive.pop_back();
      w.ops.push_back(ddc::Operation{ddc::Operation::Type::kDelete, idx, {}});
      ++w.num_deletes;
    } else {
      const int64_t idx = static_cast<int64_t>(w.points.size());
      w.points.push_back(
          rng.NextBernoulli(kHot)
              ? ddc::UniformInBall(centers[rng.NextBelow(centers.size())],
                                   kRadius, in.dim, rng)
              : point(kBand * kExtent, kExtent));
      slot.push_back(static_cast<int64_t>(alive.size()));
      alive.push_back(idx);
      w.ops.push_back(ddc::Operation{ddc::Operation::Type::kInsert, idx, {}});
      ++w.num_inserts;
    }
    ++w.num_updates;
    if (in.query_every > 0 && w.num_updates % in.query_every == 0) {
      ddc::Operation q{ddc::Operation::Type::kQuery, -1, {}};
      const int64_t want = std::min<int64_t>(
          rng.NextInRange(2, 100), static_cast<int64_t>(alive.size()));
      while (static_cast<int64_t>(q.query.size()) < want) {
        const int64_t idx = alive[rng.NextBelow(alive.size())];
        if (std::find(q.query.begin(), q.query.end(), idx) == q.query.end()) {
          q.query.push_back(idx);
        }
      }
      w.ops.push_back(std::move(q));
      ++w.num_queries;
    }
  }
  return w;
}

ddc::Workload MakeInput(const InputSpec& in, uint64_t seed) {
  if (in.kind == Kind::kHotBand) return MakeHotBand(in, seed);
  if (in.kind == Kind::kPaperMixed) {
    // The Section 8.1 recipe: shuffled inserts, 1/6 good-prefix deletes, a
    // query with |Q| ~ U[2, 100] every `query_every` updates.
    ddc::WorkloadConfig config;
    config.num_updates = in.updates;
    config.insert_fraction = 5.0 / 6.0;
    config.query_every = in.query_every;
    config.spreader.dim = in.dim;
    config.spreader.expected_restarts =
        static_cast<double>(in.updates) * config.insert_fraction /
        static_cast<double>(in.walk_points);
    config.seed = seed;
    return ddc::BuildWorkload(config);
  }
  // A sliding window over the spreader's walk, in walk order (the stream has
  // locality): once `window` points are alive, every insert is followed by
  // the expiry of the oldest point.
  ddc::SeedSpreaderConfig spreader;
  spreader.dim = in.dim;
  spreader.extent = 20000;
  spreader.num_points = (in.updates + in.window + 1) / 2;
  spreader.expected_restarts = static_cast<double>(spreader.num_points) /
                               static_cast<double>(in.walk_points);
  ddc::Rng rng(seed);
  ddc::Workload w;
  w.dim = in.dim;
  w.seed = seed;
  w.points = ddc::GenerateSeedSpreader(spreader, rng);
  const int64_t n = static_cast<int64_t>(w.points.size());
  for (int64_t i = 0; i < n && w.num_updates < in.updates; ++i) {
    w.ops.push_back(ddc::Operation{ddc::Operation::Type::kInsert, i, {}});
    ++w.num_inserts;
    ++w.num_updates;
    if (i >= in.window && w.num_updates < in.updates) {
      w.ops.push_back(
          ddc::Operation{ddc::Operation::Type::kDelete, i - in.window, {}});
      ++w.num_deletes;
      ++w.num_updates;
    }
  }
  return w;
}

/// Threads that run flat out: the ingest thread, the readers, the engine's
/// workers.
int BusyThreads(const WorkloadDef& def) {
  return 1 + def.readers + def.engine_threads;
}

std::string Hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Snapshot readers.

/// One published unit of reader work: a frozen snapshot, the query ids, and
/// the ingest thread's answer on that snapshot.
struct ReaderWork {
  std::shared_ptr<const ddc::ClusterSnapshot> snapshot;
  std::vector<ddc::PointId> q;
  ddc::CGroupByResult expected;
};

/// Closed-loop readers: each re-queries the latest published work until
/// stopped, timing every query.
class ReaderPool {
 public:
  struct alignas(64) Reader {
    std::vector<float> latency_us;
    std::vector<Span> spans;
    int64_t queries = 0;
    CheckTally tally;
  };

  ReaderPool(int readers, bool traced) : traced_(traced), readers_(readers) {
    threads_.reserve(readers);
    for (int r = 0; r < readers; ++r) {
      threads_.emplace_back([this, r] { Loop(readers_[r], r); });
    }
  }
  ~ReaderPool() { Stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  void Publish(std::shared_ptr<const ReaderWork> work) {
    slot_.Store(std::move(work));
  }

  /// Stops and joins every reader; idempotent.
  void Stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<Reader>& readers() { return readers_; }

 private:
  void Loop(Reader& me, int index) {
    me.latency_us.reserve(1 << 16);
    while (!stop_.load(std::memory_order_acquire)) {
      const std::shared_ptr<const ReaderWork> w = slot_.Load();
      if (w == nullptr) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      const uint64_t t0 = NowNs();
      ddc::CGroupByResult got = w->snapshot->Query(w->q);
      const uint64_t t1 = NowNs();
      me.latency_us.push_back(static_cast<float>(t1 - t0) * 1e-3f);
      ++me.queries;
      if (traced_ && me.queries % kReaderSpanEvery == 0) {
        me.spans.push_back(
            Span{"snapshot.reader_query", me.queries, -1, index + 1, t0, t1});
      }
      if (me.queries % kReaderCheckEvery == 0) {
        ddc::CGroupByResult want = w->expected;
        want.Canonicalize();
        got.Canonicalize();
        me.tally.Expect(got == want,
                        "reader answer differs from the ingest thread's at"
                        " epoch " +
                            std::to_string(w->snapshot->epoch()));
      }
    }
  }

  const bool traced_;
  ddc::SharedPtrSlot<const ReaderWork> slot_;
  std::atomic<bool> stop_{false};
  std::vector<Reader> readers_;
  std::vector<std::thread> threads_;  // Last: joined before the rest dies.
};

// ---------------------------------------------------------------------------
// Rounds.

/// What one round measured. Times are seconds unless named otherwise.
struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;  ///< Timed phase on the ingest thread.
  int64_t peak_rss_bytes = 0;
  int64_t updates = 0;
  int64_t queries = 0;
  int64_t cut_off = 0;  ///< Operations left undone at the cut-off.
  double layer_s[kNumLayers] = {};
  double update_p50_us = 0;
  double update_p99_us = 0;
  double wal_sync_s = 0;
  int64_t reader_queries = 0;
  double reader_p99_us = 0;
  double worker_busy_s = 0;
  double shard_imbalance = 0;
  int64_t queue_hwm = 0;
  int64_t boundary_edges = 0;
  MetricValues delta;  ///< Registry change over the timed phase.
  /// HostGauge time: mean of the task timed before set-up and after the
  /// timed phase.
  double gauge_s = 0;
  // Traced rounds only.
  std::map<std::string, double> self_s;
  double self_total_s = 0;  ///< Σ self_s: what the trace accounts for.
  int64_t dropped_events = 0;

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(updates + queries) / wall_s : 0;
  }
  /// How much slower the host ran this round than the nominal host: raw
  /// times divided by it are host-normalized times.
  double slowdown() const { return gauge_s / kGaugeNominalS; }
  double other_s() const {
    double s = wall_s;
    for (const double l : layer_s) s -= l;
    return s;
  }
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int min_rounds = 3;
  std::string work_dir;
};

class Bench {
 public:
  Bench(const WorkloadDef& def, const InputSpec& input,
        const RunOptions& options)
      : def_(def),
        input_(input),
        options_(options),
        params_(ddc::PaperParams(input.dim)),
        wal_dir_(options.work_dir + "/wal-" + std::to_string(getpid())),
        run_start_ns_(NowNs()) {}

  ~Bench() {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }

  /// Runs rounds until the timed phases add up to options.seconds (and at
  /// least options.min_rounds ran), after one warm-up round whose figures
  /// are dropped. Traced runs alternate untraced and traced rounds, so the
  /// tracing overhead is measured in the same run. Each round draws its own
  /// input (RoundSeed) before its set-up. A round's memory is its peak
  /// resident set over the resident set once the first input existed.
  void RunRounds() {
    double timed = 0;
    int64_t rss_base = 0;
    for (int r = -1;; ++r) {
      if (r >= options_.min_rounds && timed >= options_.seconds) break;
      if (SecondsSinceStart() > kLastRoundSeconds || cut_off_) break;
      NextInput(RoundSeed(options_.seed, r));
      if (r < 0) rss_base = CurrentRssBytes();
      ddc::ResetPeakRss();
      RoundResult res = RunRound(options_.trace && r % 2 == 1);
      res.peak_rss_bytes = ddc::PeakRssBytes() - rss_base;
      if (r < 0) {  // Warm-up.
        digests_.pop_back();
        query_us_.clear();
        continue;
      }
      timed += res.wall_s;
      rounds_.push_back(std::move(res));
    }
  }

  /// Output checks on the last round's live state, the readers' answers, the
  /// ledger, and (durable workloads) recovery from the last round's log.
  void FinalChecks() {
    AliveSet alive;
    for (size_t i = 0; i < id_of_.size(); ++i) {
      if (id_of_[i] == ddc::kInvalidPoint) continue;
      alive.ids.push_back(id_of_[i]);
      alive.points.push_back(w_.points[i]);
    }
    alive_ = std::move(alive);
    tally_.Merge(ProbeTheorem3(*clusterer_, alive_, params_, options_.seed,
                               kProbeSamples, kProbePairs));
    CheckLedger();
    if (def_.durable) CheckRecovery();
  }

  /// The full static-oracle sandwich on the final state (small inputs).
  void FullOracle() {
    tally_.Merge(FullSandwich(*clusterer_, alive_, params_));
  }

  const std::vector<RoundResult>& rounds() const { return rounds_; }
  /// Digest of every round's input, in round order.
  const std::vector<uint64_t>& digests() const { return digests_; }
  const CheckTally& tally() const { return tally_; }
  const std::vector<float>& query_us() const { return query_us_; }
  double recovery_s() const { return recovery_s_; }
  double replayed_ops() const { return replayed_ops_; }
  double disk_bytes_per_live_point() const { return disk_bytes_per_point_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<ProgramSpan>& program_spans() const {
    return program_spans_;
  }

 private:
  double SecondsSinceStart() const {
    return static_cast<double>(NowNs() - run_start_ns_) * 1e-9;
  }

  void Fail(const std::string& what) { tally_.Expect(false, what); }

  /// Replaces the input with a fresh one drawn from `seed`; the set-up
  /// prefix ends after input.prefix updates (queries in it are skipped).
  void NextInput(uint64_t seed) {
    wal_.reset();
    clusterer_.reset();
    w_ = ddc::Workload();
    // Hand the previous round's freed heap back, so each round's peak
    // resident set is its own.
    malloc_trim(0);
    w_ = MakeInput(input_, seed);
    digests_.push_back(DigestWorkload(w_));
    int64_t updates = 0;
    timed_begin_ = w_.ops.size();
    for (size_t i = 0; i < w_.ops.size(); ++i) {
      if (updates == input_.prefix) {
        timed_begin_ = i;
        break;
      }
      if (w_.ops[i].type != ddc::Operation::Type::kQuery) ++updates;
    }
  }

  /// Applies update `op` outside the clock (the set-up prefix), logging it
  /// when the workload is durable.
  void ApplyUntimed(const ddc::Operation& op) {
    ddc::WalOp rec;
    if (op.type == ddc::Operation::Type::kInsert) {
      const ddc::PointId id = clusterer_->Insert(w_.points[op.target]);
      id_of_[op.target] = id;
      rec = ddc::WalOp{ddc::WalOp::Type::kInsert, 0, id, w_.dim,
                       w_.points[op.target]};
    } else {
      const ddc::PointId id = id_of_[op.target];
      clusterer_->Delete(id);
      id_of_[op.target] = ddc::kInvalidPoint;
      rec.type = ddc::WalOp::Type::kDelete;
      rec.id = id;
    }
    if (wal_ != nullptr && !wal_->Append(rec)) {
      Fail("wal append failed in set-up: " + wal_->error());
    }
  }

  RoundResult RunRound(bool traced) {
    RoundResult res;
    res.traced = traced;
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
    id_of_.assign(w_.points.size(), ddc::kInvalidPoint);

    const double gauge_before = RunGauge();

    // --- Set-up: build the method and apply the prefix. ---
    const uint64_t setup_start = NowNs();
    clusterer_ = ddc::MakeMethod(def_.method, params_);
    if (def_.durable) {
      ddc::WalWriter::Options wal_options;  // sync_every = 0: no fsync.
      wal_options.segment_bytes = kWalSegmentBytes;
      wal_ = std::make_unique<ddc::WalWriter>(wal_dir_, wal_options);
      if (!wal_->ok()) Fail("wal open failed: " + wal_->error());
    }
    for (size_t i = 0; i < timed_begin_; ++i) {
      if (w_.ops[i].type != ddc::Operation::Type::kQuery) {
        ApplyUntimed(w_.ops[i]);
      }
    }
    clusterer_->Flush();
    res.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

    auto* sharded = dynamic_cast<ddc::ShardedClusterer*>(clusterer_.get());
    double busy_before_us = 0;
    if (sharded != nullptr) {
      sharded->PublishShardMetrics();
      busy_before_us = ShardBusyUs();
    }
    std::vector<ProgramSpan> program;
    if (traced) {
      ddc::Trace::ClearForTest();
      ddc::Trace::Enable();
    }
    const std::vector<ddc::MetricSample> before =
        ddc::MetricsRegistry::Instance().Snapshot();
    std::unique_ptr<ReaderPool> readers;
    if (def_.readers > 0) {
      readers = std::make_unique<ReaderPool>(def_.readers, traced);
    }

    // --- Timed phase. ---
    const size_t first_span = spans_.size();
    std::vector<float> update_us;
    update_us.reserve(w_.ops.size() - timed_begin_);
    std::vector<ddc::PointId> qids;
    uint64_t sink = 0;
    const uint64_t cut_off_ns =
        run_start_ns_ + static_cast<uint64_t>(kCutOffSeconds * 1e9);
    const Layer update_layer = sharded != nullptr ? kEngineIngest : kCoreUpdate;
    const int64_t span_every = std::max<int64_t>(
        1, static_cast<int64_t>(w_.ops.size() - timed_begin_) /
               kUpdateSpansPerRound);
    uint64_t ns[kNumLayers] = {};
    if (traced) {
      // No reallocation inside the timed phase.
      spans_.reserve(spans_.size() + 3 * (w_.ops.size() - timed_begin_) /
                                         static_cast<size_t>(span_every) +
                     64);
      // Marks the ingest thread in the program's trace.
      ddc::TraceSpan marker("bench.ingest");
    }
    const uint64_t wall_start = NowNs();
    for (size_t i = timed_begin_; i < w_.ops.size(); ++i) {
      if ((i & 255) == 0 && NowNs() > cut_off_ns) {
        res.cut_off = static_cast<int64_t>(w_.ops.size() - i);
        cut_off_ = true;
        break;
      }
      const ddc::Operation& op = w_.ops[i];
      const int64_t op_id = static_cast<int64_t>(i);
      if (op.type == ddc::Operation::Type::kQuery) {
        qids.clear();
        for (const int64_t idx : op.query) {
          if (id_of_[idx] != ddc::kInvalidPoint) qids.push_back(id_of_[idx]);
        }
        const uint64_t t0 = NowNs();
        std::shared_ptr<const ddc::ClusterSnapshot> snap;
        Layer first;
        if (sharded != nullptr) {
          sharded->Flush();
          first = kEngineFlush;
        } else {
          snap = clusterer_->Snapshot();
          first = kSnapshotFreeze;
        }
        const uint64_t t1 = NowNs();
        if (snap == nullptr) snap = clusterer_->CurrentSnapshot();
        ddc::CGroupByResult result = snap->Query(qids);
        const uint64_t t2 = NowNs();
        ns[first] += t1 - t0;
        ns[kSnapshotQuery] += t2 - t1;
        query_us_.push_back(static_cast<float>(t2 - t0) * 1e-3f);
        ++res.queries;
        if (traced) {
          const auto parent = static_cast<int32_t>(spans_.size());
          spans_.push_back(Span{"bench.query", op_id, -1, 0, t0, t2});
          spans_.push_back(Span{LayerName(first), op_id, parent, 0, t0, t1});
          spans_.push_back(
              Span{LayerName(kSnapshotQuery), op_id, parent, 0, t1, t2});
        }
        sink += result.groups.size() + result.noise.size();
        if (readers != nullptr) {
          auto work = std::make_shared<ReaderWork>();
          work->snapshot = std::move(snap);
          work->q = qids;
          work->expected = std::move(result);
          readers->Publish(std::move(work));
        }
        continue;
      }
      // An update: the layer call, plus its WAL append when durable. It
      // counts as done once both returned.
      const uint64_t t0 = NowNs();
      ddc::PointId id;
      if (op.type == ddc::Operation::Type::kInsert) {
        id = clusterer_->Insert(w_.points[op.target]);
        id_of_[op.target] = id;
      } else {
        id = id_of_[op.target];
        clusterer_->Delete(id);
        id_of_[op.target] = ddc::kInvalidPoint;
      }
      const uint64_t t1 = NowNs();
      uint64_t t2 = t1;
      if (wal_ != nullptr) {
        ddc::WalOp rec;
        rec.id = id;
        if (op.type == ddc::Operation::Type::kInsert) {
          rec.dim = w_.dim;
          rec.point = w_.points[op.target];
        } else {
          rec.type = ddc::WalOp::Type::kDelete;
        }
        if (!wal_->Append(rec)) Fail("wal append failed: " + wal_->error());
        t2 = NowNs();
        ns[kWalAppend] += t2 - t1;
      }
      ns[update_layer] += t1 - t0;
      update_us.push_back(static_cast<float>(t2 - t0) * 1e-3f);
      if (traced && res.updates % span_every == 0) {
        // A durable update is two layer calls under one op span.
        int32_t parent = -1;
        if (wal_ != nullptr) {
          parent = static_cast<int32_t>(spans_.size());
          spans_.push_back(Span{"bench.update", op_id, -1, 0, t0, t2});
        }
        spans_.push_back(
            Span{LayerName(update_layer), op_id, parent, 0, t0, t1});
        if (wal_ != nullptr) {
          spans_.push_back(
              Span{LayerName(kWalAppend), op_id, parent, 0, t1, t2});
        }
      }
      ++res.updates;
    }
    // Enqueued engine work is only done once applied.
    if (sharded != nullptr) {
      const uint64_t t0 = NowNs();
      sharded->Flush();
      const uint64_t t1 = NowNs();
      ns[kEngineFlush] += t1 - t0;
      if (traced) {
        spans_.push_back(Span{LayerName(kEngineFlush), -1, -1, 0, t0, t1});
      }
    }
    const uint64_t wall_end = NowNs();

    // --- After the clock: readers, registry, trace, WAL close. ---
    if (readers != nullptr) {
      readers->Stop();
      std::vector<float> reader_us;
      for (ReaderPool::Reader& r : readers->readers()) {
        res.reader_queries += r.queries;
        reader_us.insert(reader_us.end(), r.latency_us.begin(),
                         r.latency_us.end());
        spans_.insert(spans_.end(), r.spans.begin(), r.spans.end());
        tally_.Merge(r.tally);
      }
      res.reader_p99_us = Quantile(reader_us, 0.99);
      readers.reset();
    }
    res.gauge_s = (gauge_before + RunGauge()) / 2;
    if (sink == 0 && res.queries > 0) Fail("every query answer was empty");
    if (traced) ddc::Trace::Disable();
    const std::vector<ddc::MetricSample> after =
        ddc::MetricsRegistry::Instance().Snapshot();
    res.delta = Delta(before, after);
    if (traced) {
      if (!DrainProgramTrace(&program)) Fail("program trace does not parse");
    }

    res.wall_s = static_cast<double>(wall_end - wall_start) * 1e-9;
    for (int l = 0; l < kNumLayers; ++l) {
      res.layer_s[l] = static_cast<double>(ns[l]) * 1e-9;
    }
    res.update_p50_us = Quantile(update_us, 0.50);
    res.update_p99_us = Quantile(update_us, 0.99);
    if (sharded != nullptr) {
      sharded->PublishShardMetrics();
      res.worker_busy_s = (ShardBusyUs() - busy_before_us) * 1e-6;
      res.shard_imbalance =
          static_cast<double>(Registry().ValueOf("engine.shard_imbalance")) /
          1000.0;
      for (int s = 0; s < ShardCount(); ++s) {
        res.queue_hwm = std::max<int64_t>(
            res.queue_hwm, Registry().ValueOf(ShardGauge(s, "queue_hwm")));
      }
      res.boundary_edges = sharded->num_boundary_edges();
    }
    if (wal_ != nullptr) {
      const uint64_t t0 = NowNs();
      if (!wal_->Close()) Fail("wal close failed: " + wal_->error());
      res.wal_sync_s = static_cast<double>(NowNs() - t0) * 1e-9;
    }
    if (traced) {
      AnalyseTrace(&res, first_span, program, wall_start, wall_end);
      program_spans_.insert(program_spans_.end(), program.begin(),
                            program.end());
    }
    return res;
  }

  double RunGauge() {
    const double s = gauge_.Run();
    tally_.Expect(gauge_.last_count() == HostGauge::kExpectedCount,
                  "host gauge counted " + std::to_string(gauge_.last_count()) +
                      " neighbour pairs, not " +
                      std::to_string(HostGauge::kExpectedCount));
    return s;
  }

  static ddc::MetricsRegistry& Registry() {
    return ddc::MetricsRegistry::Instance();
  }

  static int ShardCount() {
    return static_cast<int>(Registry().ValueOf("engine.shards"));
  }

  static std::string ShardGauge(int shard, const char* field) {
    return ddc::ShardedClusterer::ShardMetricName(shard, field);
  }

  /// Summed cumulative busy time of the sharded engine's shards.
  static double ShardBusyUs() {
    double us = 0;
    for (int s = 0; s < ShardCount(); ++s) {
      us += static_cast<double>(Registry().ValueOf(ShardGauge(s, "busy_us")));
    }
    return us;
  }

  /// Self time per layer on the ingest thread over the timed phase, and the
  /// program spans lost to ring wrap (registry counts minus spans seen).
  void AnalyseTrace(RoundResult* res, size_t first_span,
                    const std::vector<ProgramSpan>& program,
                    uint64_t wall_start, uint64_t wall_end) {
    int ingest_tid = -1;
    std::map<std::string, int64_t> seen;
    for (const ProgramSpan& s : program) {
      if (s.name == "bench.ingest") ingest_tid = s.tid;
      ++seen[s.name];
    }
    std::vector<ProgramSpan> ingest;
    for (const ProgramSpan& s : program) {
      if (s.tid == ingest_tid && s.name != "bench.ingest" &&
          s.start_ns >= wall_start && s.end_ns <= wall_end) {
        ingest.push_back(s);
      }
    }
    // Per-update layers carry spans for a sample of their calls; each is
    // scaled by (exact time in the layer) / (time its sampled spans cover).
    std::vector<Span> bench;
    std::map<std::string, double> sampled_ns;
    for (size_t i = first_span; i < spans_.size(); ++i) {
      if (spans_[i].thread != 0) continue;
      bench.push_back(spans_[i]);
      sampled_ns[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    std::map<std::string, double> scale;
    for (const Layer l : {kCoreUpdate, kEngineIngest, kWalAppend}) {
      const double sampled = sampled_ns[LayerName(l)];
      if (sampled > 0) scale[LayerName(l)] = res->layer_s[l] * 1e9 / sampled;
    }
    res->self_s = SelfSeconds(bench, ingest, scale);

    const std::pair<const char*, const char*> counted[] = {
        {"core.snapshot_build", "core.snapshot_build.count"},
        {"engine.shard_batch", "engine.shard_batch.count"},
        {"engine.publish_snapshot", "engine.snapshot_publish.count"},
        {"engine.stitch_rebuild", "engine.stitch_rebuilds"},
    };
    for (const auto& [span, metric] : counted) {
      const auto it = res->delta.find(metric);
      const double want = it == res->delta.end() ? 0 : it->second;
      res->dropped_events +=
          std::max<int64_t>(0, static_cast<int64_t>(want) - seen[span]);
    }
    for (const auto& [name, s] : res->self_s) res->self_total_s += s;
    const double coverage =
        res->wall_s > 0 ? res->self_total_s / res->wall_s : 0;
    tally_.Expect(std::abs(coverage - 1) <= kCoverageTolerance,
                  "traced self times cover " + std::to_string(coverage) +
                      " of the timed wall");
  }

  /// Ledger closure and the outside/inside timing cross-checks, over the
  /// untraced rounds.
  void CheckLedger() {
    double wall = 0, other = 0, freeze = 0, build_us = 0, append = 0,
           append_us = 0;
    for (const RoundResult& r : rounds_) {
      if (r.traced) continue;
      wall += r.wall_s;
      other += r.other_s();
      freeze += r.layer_s[kSnapshotFreeze];
      append += r.layer_s[kWalAppend];
      const auto b = r.delta.find("core.snapshot_build.sum_us");
      if (b != r.delta.end()) build_us += b->second;
      const auto a = r.delta.find("wal.append.sum_us");
      if (a != r.delta.end()) append_us += a->second;
    }
    tally_.Expect(wall > 0 && other <= kOtherShareLimit * wall,
                  "bench.other_s is " + std::to_string(other) + " s of a " +
                      std::to_string(wall) + " s timed wall");
    if (freeze > 0) {
      tally_.Expect(std::abs(freeze - build_us * 1e-6) <=
                        kCrossCheckTolerance * freeze,
                    "core.snapshot_freeze_s " + std::to_string(freeze) +
                        " vs core.snapshot_build.sum_us " +
                        std::to_string(build_us));
    }
    if (append > 0) {
      tally_.Expect(std::abs(append - append_us * 1e-6) <=
                        kCrossCheckTolerance * append,
                    "persist.wal_append_s " + std::to_string(append) +
                        " vs wal.append.sum_us " + std::to_string(append_us));
    }
  }

  /// Recover from the last round's log; the result must match the live
  /// clustering bit for bit.
  void CheckRecovery() {
    std::error_code ec;
    int64_t bytes = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(wal_dir_, ec)) {
      if (entry.is_regular_file()) bytes += entry.file_size();
    }
    disk_bytes_per_point_ =
        alive_.ids.empty() ? 0
                           : static_cast<double>(bytes) /
                                 static_cast<double>(alive_.ids.size());
    ddc::RunMeta meta;
    meta.method = def_.method;
    meta.scenario = def_.name;
    meta.seed = options_.seed;
    meta.params = params_;
    ddc::RecoveryResult recovered;
    std::string error;
    const std::vector<ddc::MetricSample> before = Registry().Snapshot();
    const uint64_t t0 = NowNs();
    const bool ok = ddc::Recover(wal_dir_, meta, &recovered, &error);
    recovery_s_ = static_cast<double>(NowNs() - t0) * 1e-9;
    const MetricValues delta = Delta(before, Registry().Snapshot());
    const auto it = delta.find("persist.recovery_replayed_ops");
    replayed_ops_ = it == delta.end() ? 0 : it->second;
    tally_.Expect(ok, "recovery failed: " + error);
    if (!ok) return;
    ddc::CGroupByResult live = clusterer_->QueryAll();
    ddc::CGroupByResult back = recovered.clusterer->QueryAll();
    live.Canonicalize();
    back.Canonicalize();
    tally_.Expect(live == back,
                  "recovered clustering differs from the live one (" +
                      std::to_string(back.groups.size()) + " vs " +
                      std::to_string(live.groups.size()) + " groups)");
  }

  const WorkloadDef& def_;
  const InputSpec input_;
  const RunOptions options_;
  const ddc::DbscanParams params_;
  const std::string wal_dir_;
  const uint64_t run_start_ns_;

  HostGauge gauge_;
  ddc::Workload w_;  // This round's input.
  size_t timed_begin_ = 0;
  std::vector<uint64_t> digests_;

  std::unique_ptr<ddc::Clusterer> clusterer_;
  std::unique_ptr<ddc::WalWriter> wal_;
  std::vector<ddc::PointId> id_of_;  // Insertion index -> live id.
  AliveSet alive_;

  std::vector<RoundResult> rounds_;
  std::vector<float> query_us_;  // Pooled over rounds.
  std::vector<Span> spans_;
  std::vector<ProgramSpan> program_spans_;
  CheckTally tally_;
  bool cut_off_ = false;
  double recovery_s_ = 0;
  double replayed_ops_ = 0;
  double disk_bytes_per_point_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Median over the rounds `pick` selects of `f(round)`.
template <typename Pick, typename F>
double MedianOver(const std::vector<RoundResult>& rounds, Pick pick, F f) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    if (pick(r)) v.push_back(f(r));
  }
  return Median(std::move(v));
}

/// Mean over all rounds of a registry delta (counters repeat exactly per
/// round on the single-threaded workloads).
double PerRound(const std::vector<RoundResult>& rounds,
                const std::string& name) {
  double sum = 0;
  for (const RoundResult& r : rounds) {
    const auto it = r.delta.find(name);
    if (it != r.delta.end()) sum += it->second;
  }
  return rounds.empty() ? 0 : sum / static_cast<double>(rounds.size());
}

double PerRoundPrefix(const std::vector<RoundResult>& rounds,
                      const std::string& prefix) {
  double sum = 0;
  for (const RoundResult& r : rounds) {
    for (const auto& [name, value] : r.delta) {
      if (name.rfind(prefix, 0) == 0) sum += value;
    }
  }
  return rounds.empty() ? 0 : sum / static_cast<double>(rounds.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEndMetrics(const Bench& bench) {
  const auto& rounds = bench.rounds();
  auto untraced = [](const RoundResult& r) { return !r.traced; };
  // Host-normalized: each round's figure is scaled by that round's gauge.
  return {
      {"ops_per_s", MedianOver(rounds, untraced,
                               [](const RoundResult& r) {
                                 return r.ops_per_s() * r.slowdown();
                               }),
       "1/s"},
      {"update_p50_us", MedianOver(rounds, untraced,
                                   [](const RoundResult& r) {
                                     return r.update_p50_us / r.slowdown();
                                   }),
       "us"},
      {"update_p99_us", MedianOver(rounds, untraced,
                                   [](const RoundResult& r) {
                                     return r.update_p99_us / r.slowdown();
                                   }),
       "us"},
      {"peak_rss_mb",
       MedianOver(rounds, untraced,
                  [](const RoundResult& r) {
                    return static_cast<double>(r.peak_rss_bytes) / 1e6;
                  }),
       "MB"},
      {"setup_s", MedianOver(rounds, [](const RoundResult&) { return true; },
                             [](const RoundResult& r) {
                               return r.setup_s / r.slowdown();
                             }),
       "s"},
  };
}

std::vector<Metric> PerLayerMetrics(const Bench& bench) {
  const auto& rounds = bench.rounds();
  auto untraced = [](const RoundResult& r) { return !r.traced; };
  auto traced = [](const RoundResult& r) { return r.traced; };
  auto layer = [&](Layer l) {
    return MedianOver(rounds, untraced,
                      [l](const RoundResult& r) { return r.layer_s[l]; });
  };
  auto self = [&](const char* name) {
    return MedianOver(rounds, traced, [name](const RoundResult& r) {
      const auto it = r.self_s.find(name);
      return it == r.self_s.end() ? 0.0 : it->second;
    });
  };
  auto count = [&](const char* name) { return PerRound(rounds, name); };
  std::vector<float> q = bench.query_us();
  const double requeries = count("core.requeries");
  const double skips = count("core.prune_skips");
  const double searches = count("hdt.replacement_searches");
  const double wall = MedianOver(rounds, untraced,
                                 [](const RoundResult& r) { return r.wall_s; });
  const double other = MedianOver(
      rounds, untraced, [](const RoundResult& r) { return r.other_s(); });
  const double untraced_ops = MedianOver(
      rounds, untraced, [](const RoundResult& r) { return r.ops_per_s(); });
  const double traced_ops = MedianOver(
      rounds, traced, [](const RoundResult& r) { return r.ops_per_s(); });
  auto raw = [&](double (*f)(const RoundResult&)) {
    return MedianOver(rounds, untraced, f);
  };
  return {
      // Host speed, and the end-to-end figures before normalization.
      {"host.gauge_ms",
       raw([](const RoundResult& r) { return r.gauge_s * 1e3; }), "ms"},
      {"raw.ops_per_s", untraced_ops, "1/s"},
      {"raw.update_p50_us",
       raw([](const RoundResult& r) { return r.update_p50_us; }), "us"},
      {"raw.update_p99_us",
       raw([](const RoundResult& r) { return r.update_p99_us; }), "us"},
      {"raw.setup_s",
       MedianOver(rounds, [](const RoundResult&) { return true; },
                  [](const RoundResult& r) { return r.setup_s; }),
       "s"},
      // Core update path.
      {"core.update_s", layer(kCoreUpdate), "s"},
      {"core.requeries", requeries, "count"},
      {"core.prune_skips", skips, "count"},
      {"core.prune_ratio", Ratio(skips, skips + requeries), "ratio"},
      {"core.promotions", count("core.promotions"), "count"},
      {"core.demotions", count("core.demotions"), "count"},
      {"abcp.witness_repairs", count("abcp.witness_repairs"), "count"},
      {"abcp.witness_refills", count("abcp.witness_refills"), "count"},
      {"grid.cells_created", count("grid.cells_created"), "count"},
      {"grid.index_rehashes", count("grid.index_rehashes"), "count"},
      {"simd.batch_calls", PerRoundPrefix(rounds, "simd.batch_calls."),
       "count"},
      // Connectivity.
      {"hdt.replacement_searches", searches, "count"},
      {"hdt.replacements_found", count("hdt.replacements_found"), "count"},
      {"hdt.replacement_hit_ratio",
       Ratio(count("hdt.replacements_found"), searches), "ratio"},
      {"hdt.edges_pushed", count("hdt.edges_pushed"), "count"},
      // Snapshot.
      {"core.snapshot_freeze_s", layer(kSnapshotFreeze), "s"},
      {"core.snapshot_build.sum_us", count("core.snapshot_build.sum_us"),
       "us"},
      {"core.snapshot_builds", count("core.snapshot_builds"), "count"},
      {"core.snapshot_query_s", layer(kSnapshotQuery), "s"},
      {"query_p50_us", Quantile(q, 0.50), "us"},
      {"query_p95_us", Quantile(q, 0.95), "us"},
      {"reader_qps", MedianOver(rounds, untraced,
                                [](const RoundResult& r) {
                                  return Ratio(
                                      static_cast<double>(r.reader_queries),
                                      r.wall_s);
                                }),
       "1/s"},
      {"reader_p99_us", MedianOver(rounds, untraced,
                                   [](const RoundResult& r) {
                                     return r.reader_p99_us;
                                   }),
       "us"},
      // Persist.
      {"persist.wal_append_s", layer(kWalAppend), "s"},
      {"persist.wal_sync_s", MedianOver(rounds, untraced,
                                        [](const RoundResult& r) {
                                          return r.wal_sync_s;
                                        }),
       "s"},
      {"wal.records", count("wal.records"), "count"},
      {"wal.bytes", count("wal.bytes"), "B"},
      {"wal.append.sum_us", count("wal.append.sum_us"), "us"},
      {"persist.recovery_replayed_ops", bench.replayed_ops(), "count"},
      {"recovery_s", bench.recovery_s(), "s"},
      {"disk_bytes_per_live_point", bench.disk_bytes_per_live_point(), "B"},
      // Engine.
      {"engine.ingest_s", layer(kEngineIngest), "s"},
      {"engine.flush_s", layer(kEngineFlush), "s"},
      {"engine.snapshot_publish.sum_us",
       count("engine.snapshot_publish.sum_us"), "us"},
      {"engine.stitch_rebuild.sum_us", count("engine.stitch_rebuild.sum_us"),
       "us"},
      {"engine.shard_batch.sum_us", count("engine.shard_batch.sum_us"), "us"},
      {"engine.worker_busy_share",
       MedianOver(rounds, untraced,
                  [](const RoundResult& r) {
                    return Ratio(r.worker_busy_s, r.wall_s);
                  }),
       "ratio"},
      {"engine.shard_imbalance",
       MedianOver(rounds, untraced,
                  [](const RoundResult& r) { return r.shard_imbalance; }),
       "ratio"},
      {"engine.queue_hwm",
       MedianOver(rounds, untraced,
                  [](const RoundResult& r) {
                    return static_cast<double>(r.queue_hwm);
                  }),
       "count"},
      {"engine.boundary_edges",
       MedianOver(rounds, untraced,
                  [](const RoundResult& r) {
                    return static_cast<double>(r.boundary_edges);
                  }),
       "count"},
      // Benchmark loop.
      {"bench.other_s", other, "s"},
      {"bench.other_share", Ratio(other, wall), "ratio"},
      // Traced rounds.
      {"self.core.update_s", self("core.update"), "s"},
      {"self.persist.wal_append_s", self("persist.wal_append"), "s"},
      {"self.engine.ingest_s", self("engine.ingest"), "s"},
      {"self.core.snapshot_freeze_s", self("core.snapshot_freeze"), "s"},
      {"self.core.snapshot_build_s", self("core.snapshot_build"), "s"},
      {"self.core.snapshot_query_s", self("core.snapshot_query"), "s"},
      {"self.engine.flush_s", self("engine.flush"), "s"},
      {"self.engine.stitch_rebuild_s", self("engine.stitch_rebuild"), "s"},
      {"self.engine.publish_snapshot_s", self("engine.publish_snapshot"),
       "s"},
      {"self.bench.other_s",
       MedianOver(rounds, traced,
                  [](const RoundResult& r) {
                    return r.wall_s - r.self_total_s;
                  }),
       "s"},
      {"trace.coverage",
       MedianOver(rounds, traced,
                  [](const RoundResult& r) {
                    return Ratio(r.self_total_s, r.wall_s);
                  }),
       "ratio"},
      {"trace.overhead_frac", 1 - Ratio(traced_ops, untraced_ops), "ratio"},
      {"trace.dropped_events",
       MedianOver(rounds, traced,
                  [](const RoundResult& r) {
                    return static_cast<double>(r.dropped_events);
                  }),
       "count"},
  };
}

void WriteMetrics(ddc::JsonWriter& j, const std::vector<Metric>& metrics) {
  j.BeginObject();
  for (const Metric& m : metrics) {
    j.Key(m.name).BeginObject();
    j.Key("value").Double(m.value);
    j.Key("unit").String(m.unit);
    j.EndObject();
  }
  j.EndObject();
}

// ---------------------------------------------------------------------------
// Entry points.

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  CheckTally tally;
  std::vector<uint64_t> digests;
  std::vector<RoundResult> rounds;
};

/// Runs the benchmark on `input` drawn from options.seed and checks the
/// output (with the full static oracle when `full_oracle`).
Outcome Run(const WorkloadDef& def, const InputSpec& input,
            const RunOptions& options, bool full_oracle) {
  Bench bench(def, input, options);
  bench.RunRounds();
  bench.FinalChecks();
  if (full_oracle) bench.FullOracle();

  Outcome out;
  out.end_to_end = EndToEndMetrics(bench);
  out.digests = bench.digests();
  out.per_layer = PerLayerMetrics(bench);
  out.tally = bench.tally();
  out.rounds = bench.rounds();
  for (const RoundResult& r : bench.rounds()) {
    out.attempted += r.updates + r.queries + r.cut_off;
    out.failed += r.cut_off;
  }
  out.attempted += out.tally.checks;
  out.failed += out.tally.failures;

  if (options.trace && !bench.spans().empty()) {
    const std::string path = options.work_dir + "/trace-" + def.name +
                             "-seed" + std::to_string(options.seed) + ".json";
    std::string error;
    if (WriteTraceFile(path, bench.spans(), bench.program_spans(), &error)) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "trace: %s\n", error.c_str());
    }
  }
  return out;
}

void PrintMetricTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void PrintChecks(const CheckTally& tally) {
  std::printf("checks: %lld made, %lld failed\n",
              static_cast<long long>(tally.checks),
              static_cast<long long>(tally.failures));
  for (const std::string& e : tally.examples) {
    std::printf("  failed: %s\n", e.c_str());
  }
}

int RunOne(const ddc::Flags& flags) {
  const std::string name = flags.GetString("workload", "");
  const WorkloadDef* def = FindWorkload(name);
  if (def == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; one of:", name.c_str());
    for (const WorkloadDef& d : kWorkloads) std::fprintf(stderr, " %s", d.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  RunOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.min_rounds = options.trace ? 4 : 3;
  options.work_dir = flags.GetString("work-dir", ".");

  const HostRecord host = ReadHost();
  std::printf("host: nproc=%d cpu=\"%s\" simd=%s\n", host.nproc,
              host.cpu_model.c_str(), host.simd_tier.c_str());
  if (BusyThreads(*def) > host.nproc - 1) {
    std::fprintf(stderr,
                 "refusing %s: it runs %d busy threads and this host has %d"
                 " CPUs (at most nproc - 1 = %d)\n",
                 def->name, BusyThreads(*def), host.nproc, host.nproc - 1);
    return 3;
  }

  const Outcome out = Run(*def, def->input, options, false);
  std::printf("workload: %s method=%s seed=%llu rounds=%d input digests:",
              def->name, def->method,
              static_cast<unsigned long long>(options.seed),
              static_cast<int>(out.rounds.size()));
  for (const uint64_t d : out.digests) std::printf(" %s", Hex64(d).c_str());
  std::printf("\n");
  PrintMetricTable("end-to-end:", out.end_to_end);
  PrintMetricTable("per-layer:", out.per_layer);
  PrintChecks(out.tally);

  ddc::JsonWriter report;
  report.BeginObject();
  report.Key("workload").String(def->name);
  report.Key("seed").Int(static_cast<int64_t>(options.seed));
  report.Key("input_digests").BeginArray();
  for (const uint64_t d : out.digests) report.String(Hex64(d));
  report.EndArray();
  report.Key("host").BeginObject();
  report.Key("nproc").Int(host.nproc);
  report.Key("cpu_model").String(host.cpu_model);
  report.Key("simd_tier").String(host.simd_tier);
  report.EndObject();
  report.Key("rounds").Int(static_cast<int64_t>(out.rounds.size()));
  report.Key("per_round").BeginArray();
  for (const RoundResult& r : out.rounds) {
    report.BeginObject();
    report.Key("traced").Bool(r.traced);
    report.Key("setup_s").Double(r.setup_s);
    report.Key("wall_s").Double(r.wall_s);
    report.Key("ops_per_s").Double(r.ops_per_s());
    report.Key("update_p50_us").Double(r.update_p50_us);
    report.Key("update_p99_us").Double(r.update_p99_us);
    report.Key("gauge_s").Double(r.gauge_s);
    report.EndObject();
  }
  report.EndArray();
  report.Key("end_to_end");
  WriteMetrics(report, out.end_to_end);
  report.Key("per_layer");
  WriteMetrics(report, out.per_layer);
  report.EndObject();
  std::printf("report: %s\n", report.str().c_str());

  ddc::JsonWriter j;
  j.BeginObject();
  j.Key("correct").Bool(out.failed == 0);
  j.Key("attempted").Int(out.attempted);
  j.Key("failed").Int(out.failed);
  j.Key("metrics");
  WriteMetrics(j, options.trace ? out.per_layer : out.end_to_end);
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// The benchmark's own test: pinned input digests at seed 1, and every
/// workload's pipeline at a small size with all of its checks plus the full
/// static-oracle sandwich.
int SelfTest(const ddc::Flags& flags) {
  int failures = 0;
  for (const WorkloadDef& def : kWorkloads) {
    const uint64_t digest =
        DigestWorkload(MakeInput(def.input, RoundSeed(1, 0)));
    const bool pinned = digest == def.pinned_digest;
    std::printf("[%s] %s digest %s (pinned %s)\n", pinned ? "PASS" : "FAIL",
                def.name, Hex64(digest).c_str(),
                Hex64(def.pinned_digest).c_str());
    failures += pinned ? 0 : 1;

    RunOptions options;
    options.seed = 1;
    options.seconds = 0.1;
    options.trace = true;
    options.min_rounds = 4;
    options.work_dir = flags.GetString("work-dir", ".");
    const Outcome out = Run(def, def.small, options, true);
    const bool ok = out.failed == 0 && out.tally.checks > 0;
    std::printf("[%s] %s pipeline at %lld updates\n", ok ? "PASS" : "FAIL",
                def.name, static_cast<long long>(def.small.updates));
    PrintChecks(out.tally);
    if (!ok) PrintMetricTable("per-layer:", out.per_layer);
    failures += ok ? 0 : 1;
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const ddc::Flags flags(argc, argv);
  if (flags.GetBool("selftest", false)) return perfbench::SelfTest(flags);
  return perfbench::RunOne(flags);
}
