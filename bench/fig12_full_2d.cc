// Reproduces Figure 12: fully-dynamic algorithms in 2D (average cost and
// max update cost vs time). Methods: 2d-Full-Exact, Double-Approx,
// IncDBSCAN; %ins = 5/6 (one deletion per five insertions on average).
//
// Flags: --n (default 50000), --budget, --seed, --fqry-frac, --ins-pct.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 50000);
  const double ins = flags.GetDouble("ins-pct", 5.0 / 6.0);
  flags.CheckAllRead();
  const int dim = 2;

  const ddc::Workload w = ddc::bench::PaperWorkload(
      dim, config.n, ins, config.query_every, config.seed);
  const ddc::DbscanParams params = ddc::PaperParams(dim);

  const std::vector<std::string> methods = {"2d-full-exact", "double-approx",
                                            "inc-dbscan"};
  std::vector<ddc::RunStats> runs;
  for (const auto& m : methods) {
    std::printf("[fig12] running %s (N=%lld, ins=%.3f)...\n", m.c_str(),
                static_cast<long long>(config.n), ins);
    std::fflush(stdout);
    runs.push_back(
        ddc::bench::RunMethod(m, params, w, config.budget_seconds));
  }
  ddc::PrintSeries("Figure 12: fully-dynamic, d=2, ins=5/6", methods, runs);
  return 0;
}
