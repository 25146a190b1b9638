// Battlefield scenario (the paper's motivating use case, §1): a stationary
// 75-node ad hoc network on a 500 m x 300 m field; a command node (id 0)
// disseminates orders to every unit along a BLESS-lite multicast tree using
// RMAC's Reliable Send, and we report delivery, delay, and overhead.
//
//   ./build/examples/battlefield_multicast [packets] [rate_pps] [seed]
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "count_arg.hpp"
#include "scenario/experiment.hpp"

using namespace rmacsim;

int main(int argc, char** argv) {
  ExperimentConfig c;
  c.protocol = Protocol::kRmac;
  c.mobility = MobilityScenario::kStationary;
  c.num_packets = argc > 1 ? count_arg<std::uint32_t>("packets", argv[1]) : 500;
  c.rate_pps = argc > 2 ? std::atof(argv[2]) : 20.0;
  c.seed = argc > 3 ? count_arg<std::uint64_t>("seed", argv[3]) : 7;

  std::printf("battlefield dissemination: 75 nodes, 500x300 m, %u orders at %.0f/s "
              "(seed %llu)\n\n",
              c.num_packets, c.rate_pps, static_cast<unsigned long long>(c.seed));
  ExperimentResult r;
  try {
    r = run_experiment(c);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("tree:     avg %.2f hops to command (p99 %.0f), avg %.2f units per squad "
              "leader (p99 %.0f)\n",
              r.tree_hops_avg, r.tree_hops_p99, r.tree_children_avg, r.tree_children_p99);
  std::printf("delivery: %llu/%llu receptions (R_deliv = %.4f)\n",
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.expected), r.delivery_ratio);
  std::printf("latency:  avg %.3f s, p99 %.3f s\n", r.avg_delay_s, r.p99_delay_s);
  std::printf("overhead: R_retx %.3f, R_txoh %.3f, R_drop %.4f\n", r.avg_retx_ratio,
              r.avg_txoh_ratio, r.avg_drop_ratio);
  std::printf("MRTS:     avg %.1f B, p99 %.0f B, max %.0f B; abort ratio avg %.5f\n",
              r.mrts_len_avg, r.mrts_len_p99, r.mrts_len_max, r.abort_avg);
  std::printf("\n(%llu simulator events)\n",
              static_cast<unsigned long long>(r.events_executed));
  return 0;
}
