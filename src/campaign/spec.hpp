// Declarative campaign sweep specs and their expansion into cells.
//
// A campaign is a cross product — protocols × mobility scenarios × source
// rates × seeds — over one base ExperimentConfig.  Specs arrive as JSON
// (rmacsim-campaign-spec-v1, docs/campaign.md) or are assembled directly by
// run_campaign's CLI flags; either way expand_cells() turns the spec into the
// canonical cell list.  Cell ORDER IS LOAD-BEARING: the coordinator merges
// the final aggregate in this order regardless of which worker finished
// which cell when, which is what makes a 4-worker campaign byte-identical to
// a serial one (MetricsRegistry gauge merge is last-writer-wins).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/config_key.hpp"
#include "scenario/experiment.hpp"
#include "sim/json.hpp"

namespace rmacsim {

inline constexpr std::string_view kCampaignSpecSchema = "rmacsim-campaign-spec-v1";

struct CampaignSpec {
  std::vector<Protocol> protocols{Protocol::kRmac};
  std::vector<MobilityScenario> mobilities{MobilityScenario::kStationary};
  std::vector<double> rates{10.0};
  std::vector<std::uint64_t> seeds{1};
  // Every other knob (nodes, packets, payload, area, warmup/drain, phy, mac,
  // shards, ...) rides on the base config, shared by all cells.
  ExperimentConfig base;
};

// One work unit: a fully resolved config plus its identity.
struct CampaignCell {
  ExperimentConfig config;
  std::string canonical;  // canonical_config(config)
  std::string key;        // cell_key(canonical, revision)
  std::string label;      // "<proto>/<mob>/r<rate>/s<seed>"
};

// Parse a JSON spec document.  Shape (all list fields optional, defaulting
// to the single-element defaults above):
//   {"schema": "rmacsim-campaign-spec-v1",
//    "protocols": ["rmac", "dcf", ...],
//    "mobilities": ["stationary", "speed1", "speed2"],
//    "rates": [10, 40],
//    "seeds": [1, 2, 3]          — or {"count": 5, "base": 1},
//    "nodes": 75, "packets": 1000, "payload": 500,
//    "area": [500, 300], "warmup_s": 15, "drain_s": 10,
//    "rate_pps"-independent base fields: "shards", "rbt", "strategy"}
[[nodiscard]] bool parse_campaign_spec(const JsonValue& doc, CampaignSpec& out,
                                       std::string* error = nullptr);
[[nodiscard]] bool parse_campaign_spec(std::string_view text, CampaignSpec& out,
                                       std::string* error = nullptr);

// The base-config check every spec passes, whether it came from a file or
// from run_campaign's inline flags: rejects a base no cell can run.
[[nodiscard]] bool check_campaign_base(const ExperimentConfig& base,
                                       std::string* error = nullptr);

// Resolve one config into a cell: its canonical string, key and label.
[[nodiscard]] CampaignCell make_cell(ExperimentConfig config, std::string_view revision);

// Expand the cross product in canonical order: protocol-major, then
// mobility, then rate, then seed.
[[nodiscard]] std::vector<CampaignCell> expand_cells(const CampaignSpec& spec,
                                                     std::string_view revision);

// The per-cell display/store label.
[[nodiscard]] std::string cell_label(const ExperimentConfig& config);

}  // namespace rmacsim
