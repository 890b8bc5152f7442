// Reproduces Figure 15: fully-dynamic average workload cost vs the
// insertion percentage %ins ∈ {2/3, 4/5, 5/6, 8/9, 10/11}.
//
// Flags: --n (default 30000), --budget, --seed, --fqry-frac, --dims.

#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 30000);
  const std::vector<std::pair<const char*, double>> fractions = {
      {"2/3", 2.0 / 3.0},
      {"4/5", 4.0 / 5.0},
      {"5/6", 5.0 / 6.0},
      {"8/9", 8.0 / 9.0},
      {"10/11", 10.0 / 11.0}};

  std::vector<int> dims;
  std::stringstream ss(flags.GetString("dims", "2,3,5,7"));
  for (std::string tok; std::getline(ss, tok, ',');) dims.push_back(std::stoi(tok));
  flags.CheckAllRead();

  for (const int dim : dims) {
    const ddc::DbscanParams params = ddc::PaperParams(dim);
    const std::vector<std::string> methods =
        dim == 2 ? std::vector<std::string>{"2d-full-exact", "double-approx",
                                            "inc-dbscan"}
                 : std::vector<std::string>{"double-approx", "inc-dbscan"};

    std::vector<std::string> x_values;
    std::vector<std::vector<ddc::RunStats>> cells;
    for (const auto& [label, ins] : fractions) {
      std::printf("[fig15] d=%d ins=%s...\n", dim, label);
      std::fflush(stdout);
      const ddc::Workload w = ddc::bench::PaperWorkload(
          dim, config.n, ins, config.query_every, config.seed);
      std::vector<ddc::RunStats> row;
      for (const auto& m : methods) {
        row.push_back(
            ddc::bench::RunMethod(m, params, w, config.budget_seconds));
      }
      x_values.push_back(label);
      cells.push_back(std::move(row));
    }
    std::ostringstream title;
    title << "Figure 15 (" << dim << "D): fully-dynamic cost vs %ins";
    ddc::PrintSweep(title.str(), "%ins", x_values, methods, cells);
  }
  return 0;
}
