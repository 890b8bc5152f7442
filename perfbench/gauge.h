#ifndef PERFBENCH_GAUGE_H_
#define PERFBENCH_GAUGE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed task that gauges how fast the host runs this kind of code right
/// now: ε-neighbour counting over a hash grid of a fixed 5-d point set, the
/// same mix of hashing, pointer chasing and distance tests as the library's
/// update path. It is frozen in the benchmark and uses no library code, so
/// a change to the library never changes it; the benchmark times it around
/// every round and scales its timings by it (README.md, "Host speed").
class HostGauge {
 public:
  HostGauge();

  /// Runs the task once and returns its wall time in seconds.
  double Run();

  /// Neighbour pairs the last Run counted; the same on every run.
  int64_t last_count() const { return last_count_; }

  /// What Run counts (pinned: a different count means a broken gauge).
  static constexpr int64_t kExpectedCount = 49550;

 private:
  static constexpr int kDim = 5;
  std::vector<std::array<double, kDim>> points_;
  int64_t last_count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_GAUGE_H_
