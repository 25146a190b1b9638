// Builds a complete simulated network: scheduler, medium, busy-tone
// channels, and per-node protocol stacks, from one declarative config.
#pragma once

#include <memory>
#include <vector>

#include "mac/rmac/rmac_protocol.hpp"
#include "metrics/loss_ledger.hpp"
#include "phy/medium.hpp"
#include "phy/tone_channel.hpp"
#include "scenario/node.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

enum class MobilityScenario : std::uint8_t {
  kStationary,  // paper: no node is moving
  kSpeed1,      // random waypoint, 0-4 m/s, pause 10 s
  kSpeed2,      // random waypoint, 0-8 m/s, pause 5 s
};

[[nodiscard]] const char* to_string(MobilityScenario m) noexcept;

// How the sharded engine cuts the area into shards (docs/parallel.md):
//   kStripes — equal-count vertical stripes (the original 1-D cut);
//   kGrid    — R×C rectangular grid, equal-count columns then equal-count
//              rows within each column;
//   kRcb     — recursive coordinate bisection weighted by node population,
//              balanced shards on non-uniform topologies.
enum class ShardPartition : std::uint8_t {
  kStripes,
  kGrid,
  kRcb,
};

[[nodiscard]] const char* to_string(ShardPartition p) noexcept;

struct NetworkConfig {
  unsigned num_nodes{75};
  Rect area{500.0, 300.0};
  PhyParams phy{};
  MacParams mac{};
  Protocol protocol{Protocol::kRmac};
  MobilityScenario mobility{MobilityScenario::kStationary};
  bool rbt_protection{true};  // RMAC ablation switch
  BlessParams bless{};
  MulticastAppParams app{};
  NodeId root{0};
  std::uint64_t seed{1};
  // Resample random placements until the t=0 topology is connected (the
  // paper's near-1 static delivery ratio presumes a connected graph).
  bool ensure_connected{true};
  unsigned placement_attempts{200};
  // Spatial-sharding knobs, consumed by the conservative parallel engine
  // (scenario/sharded_network.*; docs/parallel.md).  Network itself always
  // builds the single-threaded world and ignores them.
  unsigned shards{1};
  unsigned shard_threads{0};  // 0 = one per shard, up to the usable CPUs
  // Window-width floor: windows are max(tau, floor) wide.  Above tau the
  // engine clamps late cross-shard arrivals (counted, not exact); 0 keeps
  // windows at tau for bit-exact boundary physics at the cost of barriers.
  SimTime shard_lookahead_floor{SimTime::us(200)};
  ShardPartition shard_partition{ShardPartition::kStripes};
  // Grid shape for kGrid; 0 rows/cols derives a near-square R×C = shards
  // factorization (R ≤ C, widest area axis gets the larger count).
  unsigned shard_grid_rows{0};
  unsigned shard_grid_cols{0};
  // Pin worker threads to CPUs (best-effort, Linux).  Off by default: test
  // runners oversubscribe the host and pinning would serialize them.
  bool shard_pin_workers{false};
};

// One node's full protocol stack, built identically whether the node lands
// in the monolithic Network or in a shard: mobility at `pos`, radio on
// `env.medium`, the configured MAC wired to `env.rbt`/`env.abt`, BLESS tree,
// and multicast app.  `node_rng` must be master.fork(0x1000 + i) — forked
// from the master seed in ascending-id order across the whole network — so
// per-node RNG streams are independent of the engine layout.
struct NodeBuildEnv {
  Scheduler& scheduler;
  Medium& medium;
  ToneChannel& rbt;
  ToneChannel& abt;
  Tracer* tracer;
  DeliveryStats& delivery;
  LossLedger& ledger;
};
[[nodiscard]] Node build_node_stack(const NetworkConfig& config, NodeId i, Vec2 pos,
                                    Rng node_rng, const NodeBuildEnv& env);

// Draw a placement for `config` (resampling for connectivity when asked);
// throws when no connected placement emerges within placement_attempts.
[[nodiscard]] std::vector<Vec2> draw_network_placement(const NetworkConfig& config, Rng& rng);

class Network {
public:
  explicit Network(NetworkConfig config);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] Medium& medium() noexcept { return *medium_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] ToneChannel& rbt() noexcept { return *rbt_; }
  [[nodiscard]] ToneChannel& abt() noexcept { return *abt_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }
  [[nodiscard]] Node& node(NodeId id) noexcept { return nodes_[id]; }
  [[nodiscard]] DeliveryStats& delivery() noexcept { return delivery_; }
  [[nodiscard]] LossLedger& ledger() noexcept { return ledger_; }

  // Start every node's BLESS hello schedule.
  void start_routing();
  // Start the root application source.
  void start_source();

  // BFS connectivity over the disk graph at the current time.
  [[nodiscard]] bool connected_now() const;

  // Static helper: is the placement a connected disk graph?
  [[nodiscard]] static bool placement_connected(const std::vector<Vec2>& pts, double range_m);

private:
  NetworkConfig config_;
  Tracer tracer_;
  Scheduler scheduler_;
  std::unique_ptr<Medium> medium_;
  std::unique_ptr<ToneChannel> rbt_;
  std::unique_ptr<ToneChannel> abt_;
  DeliveryStats delivery_;
  LossLedger ledger_;
  std::vector<Node> nodes_;
};

}  // namespace rmacsim
