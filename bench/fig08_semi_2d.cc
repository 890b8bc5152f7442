// Reproduces Figure 8: semi-dynamic algorithms in 2D.
// (a) average cost per operation vs time; (b) max update cost vs time.
// Methods: 2d-Semi-Exact, Semi-Approx, IncDBSCAN; insertion-only workload.
//
// Flags: --n (updates, default 50000), --budget (seconds per run, default
// 15), --seed, --fqry-frac (query frequency as fraction of N, default 0.01).

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 50000);
  flags.CheckAllRead();
  const int dim = 2;

  const ddc::Workload w = ddc::bench::PaperWorkload(
      dim, config.n, /*ins_fraction=*/1.0, config.query_every, config.seed);
  const ddc::DbscanParams params = ddc::PaperParams(dim);

  const std::vector<std::string> methods = {"2d-semi-exact", "semi-approx",
                                            "inc-dbscan"};
  std::vector<ddc::RunStats> runs;
  for (const auto& m : methods) {
    std::printf("[fig08] running %s (N=%lld)...\n", m.c_str(),
                static_cast<long long>(config.n));
    std::fflush(stdout);
    runs.push_back(
        ddc::bench::RunMethod(m, params, w, config.budget_seconds));
  }
  ddc::PrintSeries("Figure 8: semi-dynamic, d=2, insertion-only", methods,
                   runs);
  return 0;
}
