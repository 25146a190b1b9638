#include "sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <thread>

#include "campaign/coordinator.hpp"
#include "campaign/revision.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim::bench {

// RMAC_SWEEP_CACHE_DIR (the build tree) and RMAC_RUN_EXPERIMENT_BIN (the
// worker binary) are baked in by bench/CMakeLists.txt.

namespace {

constexpr MobilityScenario kScenarios[] = {MobilityScenario::kStationary,
                                           MobilityScenario::kSpeed1,
                                           MobilityScenario::kSpeed2};

// An all-digits count from the environment, at least `min`; anything else
// (empty, signed, non-numeric, out of range) is one error line and exit 2.
unsigned env_count(const char* name, unsigned fallback, unsigned min) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string_view text{v};
  unsigned n = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc{} || end != text.data() + text.size() || n < min) {
    std::fprintf(stderr, "error: %s must be a %s integer (got \"%s\")\n", name,
                 min > 0 ? "positive" : "non-negative", v);
    std::exit(2);
  }
  return n;
}

}  // namespace

SweepScale scale_from_env() {
  SweepScale s;
  if (env_count("RMAC_FULL", 0, 0) != 0) {
    s.seeds = 10;
    s.packets = 10'000;
  }
  s.seeds = env_count("RMAC_SEEDS", s.seeds, 1);
  s.packets = env_count("RMAC_PACKETS", s.packets, 1);
  s.threads = env_count("RMAC_THREADS", 0, 0);
  return s;
}

std::vector<ExperimentResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                        const SweepScale& scale) {
  const std::string revision = build_revision();
  std::vector<CampaignCell> cells;
  cells.reserve(configs.size());
  for (const ExperimentConfig& c : configs) cells.push_back(make_cell(c, revision));

  CampaignOptions opts;
  opts.workers = scale.threads != 0 ? scale.threads
                                    : std::max(1u, std::thread::hardware_concurrency());
  opts.store_dir = cat(RMAC_SWEEP_CACHE_DIR, "/rmac_sweep_store");
  opts.out_dir = RMAC_SWEEP_CACHE_DIR;
  opts.prefix = "rmac_sweep";
  opts.worker_binary = RMAC_RUN_EXPERIMENT_BIN;
  opts.progress = true;
  const CampaignResult run = run_campaign(cells, opts);
  if (!run.error.empty()) {
    std::fprintf(stderr, "[sweep] %s\n", run.error.c_str());
    std::exit(1);
  }
  for (const CellOutcome& o : run.cells) {
    if (o.state == CellOutcome::State::kFailed) {
      std::fprintf(stderr, "[sweep] %s: %s\n", o.label.c_str(), o.error.c_str());
    }
  }
  if (!run.ok) std::exit(1);

  // By key, never by label: ablation cells that differ only in a knob the
  // label leaves out (rbt, capture, strategy) share a label.
  const ResultStore store{opts.store_dir};
  std::vector<ExperimentResult> results(configs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellRecord rec;
    std::string error;
    if (!store.load(cells[i].key, rec, &error)) {
      std::fprintf(stderr, "[sweep] %s: %s\n", cells[i].label.c_str(), error.c_str());
      std::exit(1);
    }
    results[i] = std::move(rec.result);
    results[i].config = configs[i];
  }
  return results;
}

std::vector<SweepPoint> run_paper_sweep(const std::vector<Protocol>& protocols,
                                        const SweepScale& scale) {
  std::vector<SweepPoint> points;
  std::vector<ExperimentConfig> configs;
  for (const Protocol proto : protocols) {
    for (const MobilityScenario mob : kScenarios) {
      for (const double rate : scale.rates) {
        points.push_back(SweepPoint{proto, mob, rate, {}, {}});
        for (unsigned s = 0; s < scale.seeds; ++s) {
          ExperimentConfig c;
          c.protocol = proto;
          c.mobility = mob;
          c.rate_pps = rate;
          c.num_packets = scale.packets;
          c.num_nodes = scale.nodes;
          c.seed = s + 1;
          configs.push_back(c);
        }
      }
    }
  }

  std::vector<ExperimentResult> results = run_sweep(configs, scale);
  auto run = results.begin();
  for (SweepPoint& p : points) {
    p.runs.assign(std::make_move_iterator(run), std::make_move_iterator(run + scale.seeds));
    run += scale.seeds;
    p.avg = average_results(p.runs);
  }
  return points;
}

void print_banner(const std::string& figure, const std::string& paper_summary,
                  const SweepScale& scale) {
  std::printf("==================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("  paper: %s\n", paper_summary.c_str());
  std::printf("  scale: %u nodes, %u seeds, %u packets/run (RMAC_FULL=1 for 10x10000)\n",
              scale.nodes, scale.seeds, scale.packets);
  std::printf("==================================================================\n");
}

void print_metric_table(const std::vector<SweepPoint>& points,
                        const std::vector<Protocol>& protocols,
                        const std::string& metric_name,
                        double (*extract)(const ExperimentResult&)) {
  for (const MobilityScenario mob : kScenarios) {
    std::printf("\n-- %s: %s --\n", to_string(mob), metric_name.c_str());
    std::printf("%10s", "rate");
    for (const Protocol proto : protocols) std::printf("%14s", to_string(proto));
    std::printf("\n");
    // Collect rates present for this scenario.
    std::vector<double> rates;
    for (const SweepPoint& p : points) {
      if (p.mobility == mob && p.protocol == protocols.front()) rates.push_back(p.rate_pps);
    }
    for (const double rate : rates) {
      std::printf("%8.0f/s", rate);
      for (const Protocol proto : protocols) {
        for (const SweepPoint& p : points) {
          if (p.mobility == mob && p.protocol == proto && p.rate_pps == rate) {
            std::printf("%14.4f", extract(p.avg));
          }
        }
      }
      std::printf("\n");
    }
  }
}

}  // namespace rmacsim::bench
