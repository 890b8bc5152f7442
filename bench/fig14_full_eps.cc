// Reproduces Figure 14: fully-dynamic average workload cost vs ε.
// ε/d ∈ {50, 100, 200, 400, 800}, %ins = 5/6.
//
// Flags: --n (default 30000), --budget, --seed, --fqry-frac, --dims.

#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 30000);
  const double ins = flags.GetDouble("ins-pct", 5.0 / 6.0);
  const std::vector<double> eps_over_d = {50, 100, 200, 400, 800};

  std::vector<int> dims;
  std::stringstream ss(flags.GetString("dims", "2,3,5,7"));
  for (std::string tok; std::getline(ss, tok, ',');) dims.push_back(std::stoi(tok));
  flags.CheckAllRead();

  for (const int dim : dims) {
    const ddc::Workload w = ddc::bench::PaperWorkload(
        dim, config.n, ins, config.query_every, config.seed);
    const std::vector<std::string> methods =
        dim == 2 ? std::vector<std::string>{"2d-full-exact", "double-approx",
                                            "inc-dbscan"}
                 : std::vector<std::string>{"double-approx", "inc-dbscan"};

    std::vector<std::string> x_values;
    std::vector<std::vector<ddc::RunStats>> cells;
    for (const double e : eps_over_d) {
      std::printf("[fig14] d=%d eps/d=%.0f...\n", dim, e);
      std::fflush(stdout);
      const ddc::DbscanParams params = ddc::PaperParams(dim, e);
      std::vector<ddc::RunStats> row;
      for (const auto& m : methods) {
        row.push_back(
            ddc::bench::RunMethod(m, params, w, config.budget_seconds));
      }
      char label[32];
      std::snprintf(label, sizeof(label), "%.0f", e);
      x_values.push_back(label);
      cells.push_back(std::move(row));
    }
    std::ostringstream title;
    title << "Figure 14 (" << dim << "D): fully-dynamic cost vs eps/d";
    ddc::PrintSweep(title.str(), "eps/d", x_values, methods, cells);
  }
  return 0;
}
