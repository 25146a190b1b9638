// Campaign coordinator: fan cells across worker processes, stream their
// frames, merge snapshots, and keep the fleet observable while it runs.
//
// Execution model (docs/campaign.md):
//   * Cells whose key already has a store record are CACHED — zero
//     simulation work, their snapshots still enter the aggregate.
//   * Remaining cells are fanned across `workers` processes, each a
//     fork/exec of `run_experiment --worker <canonical>`.  Workers stream
//     heartbeat frames (live sim progress, events/s, per-cell ETA) and one
//     result frame whose record bytes are written to the store verbatim.
//   * A crashed, timed-out, or error-exiting worker fails only the attempt:
//     the cell is retried up to max_attempts, then quarantined into the
//     manifest with its captured stderr — the campaign keeps going.
//   * The final aggregate is merged from the STORE in canonical cell order,
//     never in completion order, so its bytes depend only on the cell list
//     and code revision — a 4-worker campaign, a serial one, and a re-run
//     after a crash all render the identical aggregate document.
//
// Observability artifacts, rewritten on a wall-clock cadence while running:
//   <prefix>_status.json   — rmacsim-campaign-status-v1 fleet snapshot
//   <prefix>_manifest.json — rmacsim-campaign-v1, written once at the end
//   <prefix>_aggregate_metrics.json — merged snapshot + campaign block
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"
#include "metrics/loss_ledger.hpp"

namespace rmacsim {

inline constexpr std::string_view kCampaignManifestSchema = "rmacsim-campaign-v1";
inline constexpr std::string_view kCampaignStatusSchema = "rmacsim-campaign-status-v1";
inline constexpr std::string_view kCampaignAggregateSchema = "rmacsim-campaign-aggregate-v1";

struct CampaignOptions {
  // 0 runs every non-cached cell in-process (serial reference mode, same
  // ingest path: records are serialized, parsed back, and stored the same
  // way worker frames are).
  unsigned workers{4};
  std::string store_dir{"campaign_store"};
  std::string out_dir{"."};  // manifest/aggregate/status; created if missing
  std::string prefix{"campaign"};
  // Path to the run_experiment binary (required when workers > 0).
  std::string worker_binary;
  double heartbeat_interval_s{0.5};  // worker heartbeat cadence (0 disables)
  double status_interval_s{2.0};     // status artifact rewrite cadence
  double worker_timeout_s{0.0};      // SIGKILL a worker after this (0 = never)
  unsigned max_attempts{2};          // simulation attempts per cell
  bool progress{false};              // live single-line heartbeat on stderr
  bool force{false};                 // ignore cached records, re-run all cells
  // Test hook: SIGKILL the worker of the Nth scheduled run (1-based) on its
  // first attempt, exercising the crash-retry path deterministically.
  unsigned inject_kill_cell{0};
};

struct CellOutcome {
  enum class State : std::uint8_t { kCached, kRan, kFailed };
  std::string key;
  std::string label;
  State state{State::kRan};
  unsigned attempts{0};  // simulation attempts consumed (0 when cached)
  bool conservation_ok{false};
  std::uint64_t events{0};
  double wall_s{0.0};  // wall time of the successful attempt (0 when cached)
  std::string error;   // failed cells: last error + captured stderr tail
};

struct CampaignResult {
  bool ok{false};      // every cell has a stored result (retries allowed)
  // Setup-level failure, or an artifact (manifest, aggregate, status) that
  // could not be written; "" when the campaign ran and wrote all three.
  std::string error;
  unsigned total{0};
  unsigned cached{0};
  unsigned ran{0};
  unsigned failed{0};
  unsigned retries{0};  // attempts beyond each cell's first
  std::uint64_t events{0};
  double wall_s{0.0};
  LedgerSummary ledger;  // merged over every successful cell
  std::vector<CellOutcome> cells;  // input cell order
  std::string manifest_path;
  std::string aggregate_path;
  std::string status_path;
};

[[nodiscard]] CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                                          const CampaignOptions& options);

}  // namespace rmacsim
