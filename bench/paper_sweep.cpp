// Full evaluation sweep as a CSV emitter — every metric the paper's
// Figures 7-13 plot, one row per (protocol, scenario, rate, seed), ready for
// plotting with any tool.  Same grid and result store as the figure benches
// (sweep.hpp): cells they already ran at the same scale cost nothing.
//
//   RMAC_SEEDS=2 RMAC_PACKETS=300 ./build/bench/paper_sweep > results.csv
#include <cstdio>

#include "sweep.hpp"

int main() {
  using namespace rmacsim;
  using namespace rmacsim::bench;
  const auto points = run_paper_sweep({Protocol::kRmac, Protocol::kBmmm}, scale_from_env());

  // Per-reason loss columns come straight from the ledger (receptions), so a
  // row's losses always decompose: expected = delivered + sum(drop_*).
  std::printf("protocol,mobility,rate_pps,seed,delivery_ratio,avg_delay_s,p99_delay_s,"
              "drop_ratio,retx_ratio,txoh_ratio,mrts_len_avg,mrts_len_p99,mrts_len_max,"
              "abort_avg,abort_p99,abort_max,tree_hops_avg,tree_children_avg,"
              "believed_success,events,expected,delivered");
  for (std::size_t i = 1; i < kDropReasonCount; ++i) {
    std::printf(",drop_%s", to_string(static_cast<DropReason>(i)));
  }
  std::printf(",conservation_ok\n");
  for (const SweepPoint& p : points) {
    for (const ExperimentResult& r : p.runs) {
      std::printf("%s,%s,%.0f,%llu,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.2f,%.1f,%.1f,%.6f,%.6f,"
                  "%.6f,%.3f,%.3f,%.6f,%llu,%llu,%llu",
                  to_string(r.config.protocol), to_string(r.config.mobility),
                  r.config.rate_pps, static_cast<unsigned long long>(r.config.seed),
                  r.delivery_ratio, r.avg_delay_s, r.p99_delay_s, r.avg_drop_ratio,
                  r.avg_retx_ratio, r.avg_txoh_ratio, r.mrts_len_avg, r.mrts_len_p99,
                  r.mrts_len_max, r.abort_avg, r.abort_p99, r.abort_max, r.tree_hops_avg,
                  r.tree_children_avg, r.mac_believed_success,
                  static_cast<unsigned long long>(r.events_executed),
                  static_cast<unsigned long long>(r.ledger.expected),
                  static_cast<unsigned long long>(r.ledger.delivered));
      for (std::size_t i = 1; i < kDropReasonCount; ++i) {
        std::printf(",%llu", static_cast<unsigned long long>(r.ledger.dropped[i]));
      }
      std::printf(",%d\n", r.ledger.conservation_ok() ? 1 : 0);
    }
  }
  return 0;
}
