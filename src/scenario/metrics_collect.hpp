// End-of-run collect pass: publish the simulator's plain hot-path counters
// (scheduler, medium, tone channels, per-node MAC stats, tree, app) onto
// labeled MetricsRegistry series under the rmacsim_* naming scheme.
//
// The hot paths only ever increment raw integers (see metrics/registry.hpp);
// this pass is the single place those integers meet family names and labels,
// so adding a counter to a subsystem costs one `++` there and one line here.
#pragma once

#include <span>

#include "metrics/loss_ledger.hpp"
#include "metrics/registry.hpp"
#include "scenario/network_builder.hpp"

namespace rmacsim {

class ShardedNetwork;

// One simulation world of a run: the whole monolithic Network, or one shard
// of a ShardedNetwork.  `nodes` are the world's own, in ascending id order;
// `ledger` receives the world's end-of-run sweep.
struct WorldView {
  Scheduler* sched;
  Tracer* tracer;
  Medium* medium;
  ToneChannel* rbt;
  ToneChannel* abt;
  std::span<Node> nodes;
  DeliveryStats* delivery;
  LossLedger* ledger;
};

// Snapshot every subsystem of a run's worlds into `reg`, aggregated so both
// engines publish the same series: counters summed, peaks maxed, delay
// samples pooled in world order.  `nodes` holds every node in global id
// order.  Deterministic for a fixed (seed, shards): series contents derive
// only from simulation state, aggregation order is world order (never
// thread order), and zero-valued frame/drop-reason series are skipped the
// same way on every run.
void collect_metrics(MetricsRegistry& reg, Protocol protocol,
                     std::span<const WorldView> worlds, std::span<Node* const> nodes);

// The sharded engine's own rmacsim_shard_* series.
void collect_shard_metrics(MetricsRegistry& reg, ShardedNetwork& net);

// Publish a finalized ledger summary (expected / delivered / dropped-by-
// reason) so the OpenMetrics text carries the conservation breakdown too,
// not just the JSON document.
void collect_ledger(MetricsRegistry& reg, const LedgerSummary& ledger);

}  // namespace rmacsim
