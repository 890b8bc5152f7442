// Reproduces Figure 13: fully-dynamic algorithms in d = 3, 5, 7 dimensions
// (Double-Approx vs IncDBSCAN; the paper terminated IncDBSCAN in 5D/7D
// after 3 hours — timed-out runs are reported the same way here).
//
// Flags: --n, --budget, --seed, --fqry-frac, --ins-pct, --dims.

#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 50000);
  const double ins = flags.GetDouble("ins-pct", 5.0 / 6.0);

  std::vector<int> dims;
  std::stringstream ss(flags.GetString("dims", "3,5,7"));
  for (std::string tok; std::getline(ss, tok, ',');) dims.push_back(std::stoi(tok));
  flags.CheckAllRead();

  for (const int dim : dims) {
    const ddc::Workload w = ddc::bench::PaperWorkload(
        dim, config.n, ins, config.query_every, config.seed);
    const ddc::DbscanParams params = ddc::PaperParams(dim);

    const std::vector<std::string> methods = {"double-approx", "inc-dbscan"};
    std::vector<ddc::RunStats> runs;
    for (const auto& m : methods) {
      std::printf("[fig13] running %s at d=%d...\n", m.c_str(), dim);
      std::fflush(stdout);
      runs.push_back(
          ddc::bench::RunMethod(m, params, w, config.budget_seconds));
    }
    std::ostringstream title;
    title << "Figure 13 (" << dim << "D): fully-dynamic, ins=5/6";
    ddc::PrintSeries(title.str(), methods, runs);
  }
  return 0;
}
