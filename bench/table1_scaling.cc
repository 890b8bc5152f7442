// Empirical check of Table 1's claimed complexities: the O~(1) update and
// O~(|Q|) query bounds of Theorems 1 and 4 predict per-operation costs that
// stay (near-)flat as n grows, while IncDBSCAN's per-update cost grows.
// Prints average update cost and average query cost at increasing N.
//
// Flags: --budget, --seed, --dim (default 3), --sizes (default
// "12500,25000,50000,100000").

#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  ddc::Flags flags(argc, argv);
  const double budget = flags.GetDouble("budget", 20.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int dim = static_cast<int>(flags.GetInt("dim", 3));

  std::vector<int64_t> sizes;
  std::stringstream ss(flags.GetString("sizes", "12500,25000,50000,100000"));
  for (std::string tok; std::getline(ss, tok, ',');) sizes.push_back(std::stoll(tok));
  flags.CheckAllRead();

  const ddc::DbscanParams params = ddc::PaperParams(dim);
  struct Scheme {
    const char* title;
    const char* method;
    double ins_fraction;
  };
  const Scheme schemes[] = {
      {"semi-dynamic (insertions only)", "semi-approx", 1.0},
      {"fully-dynamic (ins=5/6)", "double-approx", 5.0 / 6.0},
      {"IncDBSCAN (ins=5/6)", "inc-dbscan", 5.0 / 6.0},
  };

  std::printf("=== Table 1 scaling check (d=%d): per-op cost vs N ===\n", dim);
  std::printf("%-34s%10s%14s%14s%14s\n", "scheme", "N", "upd(us)", "qry(us)",
              "maxupd(us)");
  for (const Scheme& s : schemes) {
    for (const int64_t n : sizes) {
      const int64_t query_every = std::max<int64_t>(1, n / 100);
      const ddc::Workload w =
          ddc::bench::PaperWorkload(dim, n, s.ins_fraction, query_every, seed);
      const ddc::RunStats stats =
          ddc::bench::RunMethod(s.method, params, w, budget);
      if (stats.timed_out) {
        std::printf("%-34s%10lld%14s%14s%14s\n", s.title,
                    static_cast<long long>(n), "TIMEOUT", "-", "-");
      } else {
        std::printf("%-34s%10lld%14.2f%14.2f%14.1f\n", s.title,
                    static_cast<long long>(n), stats.avg_update_cost_us,
                    stats.avg_query_cost_us, stats.max_update_cost_us);
      }
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nFlat upd/qry columns for the semi/fully dynamic schemes support the\n"
      "O~(1) update / O~(|Q|) query bounds; IncDBSCAN's growth shows the\n"
      "contrast Table 1 formalizes.\n");
  return 0;
}
