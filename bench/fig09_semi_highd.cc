// Reproduces Figure 9: semi-dynamic algorithms in d = 3, 5, 7 dimensions
// (average cost and max update cost vs time; Semi-Approx vs IncDBSCAN).
//
// Flags: --n, --budget, --seed, --fqry-frac, --dims (comma list, default
// "3,5,7").

#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 50000);

  std::vector<int> dims;
  std::stringstream ss(flags.GetString("dims", "3,5,7"));
  for (std::string tok; std::getline(ss, tok, ',');) dims.push_back(std::stoi(tok));
  flags.CheckAllRead();

  for (const int dim : dims) {
    const ddc::Workload w = ddc::bench::PaperWorkload(
        dim, config.n, /*ins_fraction=*/1.0, config.query_every, config.seed);
    const ddc::DbscanParams params = ddc::PaperParams(dim);

    const std::vector<std::string> methods = {"semi-approx", "inc-dbscan"};
    std::vector<ddc::RunStats> runs;
    for (const auto& m : methods) {
      std::printf("[fig09] running %s at d=%d...\n", m.c_str(), dim);
      std::fflush(stdout);
      runs.push_back(
          ddc::bench::RunMethod(m, params, w, config.budget_seconds));
    }
    std::ostringstream title;
    title << "Figure 9 (" << dim << "D): semi-dynamic, insertion-only";
    ddc::PrintSeries(title.str(), methods, runs);
  }
  return 0;
}
