// Emergency-rescue scenario (§1): responders move through the field under
// the random-waypoint model while a coordinator multicasts situation
// updates.  Runs the same mobile workload over RMAC and BMMM on identical
// placements and prints the head-to-head comparison of Figs. 7-11.
//
//   ./build/examples/rescue_mobility [packets] [rate_pps]
#include <cstdio>
#include <cstdlib>

#include "scenario/experiment.hpp"

using namespace rmacsim;

int main(int argc, char** argv) {
  const std::uint32_t packets =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 300;
  const double rate = argc > 2 ? std::atof(argv[2]) : 20.0;

  std::printf("rescue scenario: 75 responders, random waypoint, %u updates at %.0f/s\n",
              packets, rate);
  std::printf("  speed1: 0-4 m/s, pause 10 s    speed2: 0-8 m/s, pause 5 s\n\n");
  std::printf("%-8s %-8s %10s %10s %10s %10s\n", "proto", "mobility", "R_deliv", "delay(s)",
              "R_retx", "R_txoh");
  for (const Protocol proto : {Protocol::kRmac, Protocol::kBmmm}) {
    for (const MobilityScenario mob :
         {MobilityScenario::kSpeed1, MobilityScenario::kSpeed2}) {
      ExperimentConfig c;
      c.protocol = proto;
      c.mobility = mob;
      c.num_packets = packets;
      c.rate_pps = rate;
      c.seed = 11;
      const ExperimentResult r = run_experiment(c);
      std::printf("%-8s %-8s %10.4f %10.3f %10.3f %10.3f\n", to_string(proto), to_string(mob),
                  r.delivery_ratio, r.avg_delay_s, r.avg_retx_ratio, r.avg_txoh_ratio);
    }
  }
  std::printf("\npaper (Figs. 7-11): under mobility RMAC's delivery drops to ~0.75 but\n"
              "stays well above BMMM's, at a fraction of the control overhead.\n");
  return 0;
}
