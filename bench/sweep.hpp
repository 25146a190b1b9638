// Shared sweep engine for the figure, ablation and CSV benches.
//
// Every result figure in the paper (Figs. 7-13) is a 3-panel sweep over the
// same experiment grid: {stationary, speed1, speed2} x 8 source rates x N
// placements x {RMAC, BMMM}.  Every bench runs its grid through the campaign
// coordinator (src/campaign/coordinator.hpp) into one content-addressed
// result store, <build>/rmac_sweep_store/<key>.json, keyed by the canonical
// config and the code revision.  Running all seven figure binaries therefore
// costs one sweep, not seven; a code or scale change lands at new keys and
// never reuses stale numbers; and each record is byte-identical to the one
// a `run_campaign` over the same cells writes.  The coordinator's manifest,
// status and aggregate land next to the store as <build>/rmac_sweep_*.json.
//
// Scale knobs (environment; anything but digits, or 0 seeds/packets, is an
// error that exits 2):
//   RMAC_FULL=1       paper-fidelity scale (10 seeds, 10000 packets) — slow
//   RMAC_SEEDS=n      placements per data point        (default 3)
//   RMAC_PACKETS=n    packets generated by the source  (default 1000)
//   RMAC_THREADS=n    worker processes                 (default or 0: hw)
//
// The defaults moved from 2 x 300 to 3 x 1000 once the pooled delivery
// pipeline made a 1000-packet run ~1 s: closer to the paper's averaging
// without making a full figure regeneration a coffee-break job.
#pragma once

#include <string>
#include <vector>

#include "scenario/experiment.hpp"

namespace rmacsim::bench {

struct SweepScale {
  unsigned seeds{3};
  std::uint32_t packets{1000};
  unsigned nodes{75};
  std::vector<double> rates{5, 10, 20, 40, 60, 80, 100, 120};
  unsigned threads{0};
};

[[nodiscard]] SweepScale scale_from_env();

// Run (or load from the store) every config; results are positionally
// aligned with `configs` and carry their input config.  A failed cell is
// listed on stderr with its error and the process exits 1.
[[nodiscard]] std::vector<ExperimentResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                                      const SweepScale& scale);

struct SweepPoint {
  Protocol protocol;
  MobilityScenario mobility;
  double rate_pps;
  ExperimentResult avg;          // averaged over seeds
  std::vector<ExperimentResult> runs;  // per-seed results
};

// The full paper grid for the given protocols, in protocol -> mobility ->
// rate order (seeds 1..n within each point).
[[nodiscard]] std::vector<SweepPoint> run_paper_sweep(const std::vector<Protocol>& protocols,
                                                      const SweepScale& scale);

// Pretty-printing helpers shared by the figure benches.
void print_banner(const std::string& figure, const std::string& paper_summary,
                  const SweepScale& scale);
// Prints one 3-panel block: rows = rates, one column per (protocol).
void print_metric_table(const std::vector<SweepPoint>& points,
                        const std::vector<Protocol>& protocols,
                        const std::string& metric_name,
                        double (*extract)(const ExperimentResult&));

}  // namespace rmacsim::bench
