// Reproduces Figure 11: semi-dynamic average workload cost vs query
// frequency f_qry ∈ {0.01N, ..., 0.1N} (a query every f_qry updates).
//
// Flags: --n (default 30000), --budget, --seed, --dims (default "2,3,5,7").

#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const auto config = ddc::bench::BenchConfig::FromFlags(flags, 30000);
  const std::vector<double> fractions = {0.01, 0.02, 0.04, 0.06, 0.08, 0.1};

  std::vector<int> dims;
  std::stringstream ss(flags.GetString("dims", "2,3,5,7"));
  for (std::string tok; std::getline(ss, tok, ',');) dims.push_back(std::stoi(tok));
  flags.CheckAllRead();

  for (const int dim : dims) {
    const ddc::DbscanParams params = ddc::PaperParams(dim);
    const std::vector<std::string> methods =
        dim == 2 ? std::vector<std::string>{"2d-semi-exact", "semi-approx",
                                            "inc-dbscan"}
                 : std::vector<std::string>{"semi-approx", "inc-dbscan"};

    std::vector<std::string> x_values;
    std::vector<std::vector<ddc::RunStats>> cells;
    for (const double f : fractions) {
      const int64_t query_every = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(config.n) * f));
      std::printf("[fig11] d=%d fqry=%.2fN...\n", dim, f);
      std::fflush(stdout);
      const ddc::Workload w = ddc::bench::PaperWorkload(
          dim, config.n, /*ins_fraction=*/1.0, query_every, config.seed);
      std::vector<ddc::RunStats> row;
      for (const auto& m : methods) {
        row.push_back(
            ddc::bench::RunMethod(m, params, w, config.budget_seconds));
      }
      char label[32];
      std::snprintf(label, sizeof(label), "%.2fN", f);
      x_values.push_back(label);
      cells.push_back(std::move(row));
    }
    std::ostringstream title;
    title << "Figure 11 (" << dim << "D): semi-dynamic cost vs query frequency";
    ddc::PrintSweep(title.str(), "fqry", x_values, methods, cells);
  }
  return 0;
}
