// The experiment driver: build, warm up, sample tree stats, run traffic,
// sweep the ledger, fill the result, export — one body for both engines.
//
// The driver runs over a list of world views: the monolithic Network
// presents one, a ShardedNetwork one per shard (its own scheduler, tracer,
// nodes, delivery accumulator, and ledger buffer).  Observers attach per
// view, so recording adds no cross-shard coupling and no locks to the hot
// path, and all result math runs over nodes in global id order, so the
// engine layout cannot change any figure.  What stays engine-specific is
// only how time advances (chunked run_until vs. the barrier hook), the
// per-worker profilers, the ShardSummary/window-telemetry block, and the
// export formats (single-series CSV + counter tracks vs. shard-column CSV +
// worker tracks; per-shard journeys are merged by JourneyId).
#include "scenario/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "metrics/export.hpp"
#include "metrics/profiler.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "obs/window_telemetry.hpp"
#include "scenario/metrics_collect.hpp"
#include "scenario/sharded_network.hpp"
#include "scenario/trace_digest.hpp"
#include "sim/strfmt.hpp"
#include "sim/window_exec.hpp"

#ifndef RMAC_GIT_REVISION
#define RMAC_GIT_REVISION "unknown"
#endif

namespace rmacsim {

namespace {

// Reject configs no engine can run, naming the offending field.
void validate(const ExperimentConfig& c) {
  if (c.num_nodes < 2) {
    throw std::invalid_argument(cat("num_nodes must be >= 2 (got ", c.num_nodes, ")"));
  }
  if (!std::isfinite(c.rate_pps) || c.rate_pps <= 0.0) {
    throw std::invalid_argument(cat("rate_pps must be finite and > 0 (got ", c.rate_pps, ")"));
  }
  // MulticastAppParams reads 0 packets as "unlimited": the source would run
  // through the drain window against a zero-length generation span.
  if (c.num_packets == 0) throw std::invalid_argument("num_packets must be >= 1 (got 0)");
  if (c.shards == 0) throw std::invalid_argument("shards must be >= 1 (got 0)");
}

NetworkConfig to_network_config(const ExperimentConfig& c) {
  NetworkConfig n;
  n.num_nodes = c.num_nodes;
  n.area = c.area;
  n.phy = c.phy;
  n.mac = c.mac;
  n.protocol = c.protocol;
  n.mobility = c.mobility;
  n.rbt_protection = c.rbt_protection;
  n.seed = c.seed;
  n.app.rate_pps = c.rate_pps;
  n.app.total_packets = c.num_packets;
  n.app.payload_bytes = c.payload_bytes;
  n.app.strategy = c.strategy;
  n.shards = c.shards;
  n.shard_threads = c.shard_threads;
  n.shard_lookahead_floor = c.shard_lookahead_floor;
  n.shard_partition = c.shard_partition;
  n.shard_grid_rows = c.shard_grid_rows;
  n.shard_grid_cols = c.shard_grid_cols;
  n.shard_pin_workers = c.shard_pin_workers;
  return n;
}

// Fold per-thread profiler reports into one: sections merged by name
// (calls/total/self summed), re-sorted by self time like Profiler::report().
Profiler::Report merge_profiler_reports(const std::vector<Profiler::Report>& reports) {
  Profiler::Report out;
  for (const Profiler::Report& r : reports) {
    out.accounted_s += r.accounted_s;
    for (const Profiler::SectionStats& s : r.sections) {
      auto it = std::find_if(out.sections.begin(), out.sections.end(),
                             [&s](const Profiler::SectionStats& o) { return o.name == s.name; });
      if (it == out.sections.end()) {
        out.sections.push_back(s);
      } else {
        it->calls += s.calls;
        it->total_ns += s.total_ns;
        it->self_ns += s.self_ns;
      }
    }
  }
  std::sort(out.sections.begin(), out.sections.end(),
            [](const Profiler::SectionStats& a, const Profiler::SectionStats& b) {
              return a.self_ns != b.self_ns ? a.self_ns > b.self_ns : a.name < b.name;
            });
  return out;
}

// Figs. 8, 10-13 + mac_believed_success: everything on ExperimentResult that
// derives from per-node MacStats.  `nodes` must be in global id order.
void fill_node_metrics(ExperimentResult& r, const ExperimentConfig& config,
                       std::span<Node* const> nodes) {
  // Figs. 8, 10, 11, 13 average over non-leaf nodes.  The paper's tree is
  // stable, so its non-leaf set is clean; under churn our harness can
  // produce transient forwarders (a node that relayed a handful of packets)
  // whose full-run control-receive time against a sliver of data time would
  // skew the averages.  Count as non-leaf only nodes that forwarded a
  // substantial share of the traffic.
  const std::uint64_t non_leaf_threshold = std::max<std::uint64_t>(1, config.num_packets / 5);
  SampleStats drop_ratios;
  SampleStats retx_ratios;
  SampleStats txoh_ratios;
  SampleStats abort_ratios;
  SampleStats mrts_lengths;
  std::uint64_t total_requests = 0;
  std::uint64_t total_believed = 0;
  for (Node* n : nodes) {
    const MacStats& s = n->mac->stats();
    total_requests += s.reliable_requests;
    total_believed += s.reliable_delivered;
    mrts_lengths.add_all(s.mrts_lengths_bytes);
    if (s.reliable_requests < non_leaf_threshold) continue;  // leaf
    drop_ratios.add(s.drop_ratio());
    retx_ratios.add(s.retransmission_ratio());
    if (s.reliable_data_tx_time > SimTime::zero()) txoh_ratios.add(s.tx_overhead_ratio());
    if (s.mrts_transmissions > 0) abort_ratios.add(s.mrts_abort_ratio());
  }
  r.avg_drop_ratio = drop_ratios.mean();
  r.avg_retx_ratio = retx_ratios.mean();
  r.avg_txoh_ratio = txoh_ratios.mean();
  r.mrts_len_avg = mrts_lengths.mean();
  r.mrts_len_p99 = mrts_lengths.percentile(99.0);
  r.mrts_len_max = mrts_lengths.max();
  r.abort_avg = abort_ratios.mean();
  r.abort_p99 = abort_ratios.percentile(99.0);
  r.abort_max = abort_ratios.max();
  r.mac_believed_success = total_requests == 0 ? 0.0
                                               : static_cast<double>(total_believed) /
                                                     static_cast<double>(total_requests);
}

// The sharded engine's ShardSummary, window-telemetry analytics included.
void fill_shard_summary(ExperimentResult::ShardSummary& out, ShardedNetwork& net) {
  out.shards = static_cast<unsigned>(net.shard_count());
  out.threads = net.threads_used();
  out.windows = net.windows_run();
  out.messages = net.messages_exchanged();
  out.remote_mirrors = net.remote_mirrors();
  out.clamped = net.clamped();
  out.safety_violations = net.safety_violations();
  out.tau = net.tau();
  out.window = net.window();
  out.partition = net.config().shard_partition;
  out.grid_rows = net.grid_rows();
  out.grid_cols = net.grid_cols();
  for (std::size_t s = 0; s < net.shard_count(); ++s) {
    out.node_counts.push_back(static_cast<std::uint32_t>(net.shard(s).ids.size()));
  }
  const WindowTelemetry* wt = net.window_telemetry();
  if (wt == nullptr) return;
  out.telemetry = true;
  out.imbalance_busy = wt->imbalance_busy();
  out.imbalance_events = wt->imbalance_events();
  out.speedup_bound_busy = wt->speedup_bound_busy();
  out.speedup_bound_events = wt->speedup_bound_events();
  out.phantom_refreshes = wt->phantom_refreshes();
  for (std::size_t k = 0; k < WindowTelemetry::kMsgKinds; ++k) {
    out.messages_by_kind[k] = wt->messages(k);
  }
  for (std::size_t s = 0; s < net.shard_count(); ++s) {
    out.window_events.push_back(wt->shard_events(s));
  }
}

std::string json_array(const std::vector<std::uint32_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out + ']';
}

std::string artifact_base(const ExperimentConfig::ObsConfig& obs) {
  std::error_code ec;
  std::filesystem::create_directories(obs.out_dir, ec);
  return (std::filesystem::path(obs.out_dir) / obs.prefix).string();
}

}  // namespace

std::string ExperimentConfig::label() const {
  return cat(rmacsim::to_string(protocol), "/", rmacsim::to_string(mobility), "/",
             rate_pps, "pps/seed", seed);
}

std::string format_progress_json(const ExperimentConfig::RunProgress& p) {
  std::ostringstream os;
  os << "{\"phase\":\"" << p.phase << "\",\"sim_s\":" << p.sim_s
     << ",\"end_s\":" << p.end_s << ",\"wall_s\":" << p.wall_s
     << ",\"events\":" << p.events << ",\"events_per_s\":" << p.events_per_s
     << ",\"windows\":" << p.windows << ",\"windows_per_s\":" << p.windows_per_s
     << ",\"messages\":" << p.messages << ",\"imbalance\":" << p.imbalance
     << ",\"eta_s\":" << p.eta_s << "}";
  return os.str();
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  validate(config);
  const NodeId n = config.num_nodes;

  // Per-worker profilers must outlive the sharded engine: pool threads park
  // holding a thread-local pointer to their profiler and only drop it when
  // the pool joins inside ~ShardedNetwork.
  std::vector<Profiler> worker_profilers;

  // shards == 1 builds the monolithic Network, the exact single-threaded
  // engine the golden digests pin; shards > 1 the conservative parallel one.
  std::optional<Network> serial;
  std::optional<ShardedNetwork> sharded;
  std::vector<WorldView> views;
  if (config.shards > 1) {
    sharded.emplace(to_network_config(config));
    for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
      ShardedNetwork::Shard& sh = sharded->shard(s);
      views.push_back({&sh.scheduler, &sh.tracer, sh.medium.get(), sh.rbt.get(), sh.abt.get(),
                       sh.nodes, &sh.delivery, &sharded->shard_ledger(s)});
    }
  } else {
    serial.emplace(to_network_config(config));
    views.push_back({&serial->scheduler(), &serial->tracer(), &serial->medium(),
                     &serial->rbt(), &serial->abt(), serial->nodes(), &serial->delivery(),
                     &serial->ledger()});
  }
  const std::size_t S = views.size();
  std::vector<Node*> nodes;  // global id order
  nodes.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    nodes.push_back(sharded ? &sharded->node(id) : &serial->node(id));
  }

  for (const WorldView& v : views) {
    v.sched->set_batch_dispatch(config.batched_dispatch);
    v.medium->set_grouped_delivery(config.grouped_delivery);
  }
  if (sharded) {
    sharded->set_safety_check(config.shard_safety_check);
    // Window telemetry feeds the metrics snapshot, the exported artifacts,
    // and the heartbeat's imbalance field, so any of those turns it on.
    if (config.obs.window_telemetry || config.obs.record || config.metrics.enabled ||
        config.progress.interval_s > 0.0) {
      sharded->enable_window_telemetry(config.obs.telemetry_capacity);
    }
  }

  // One auditor per view, auditing that view's nodes only.  Recorded
  // transmissions are always local (remote mirrors emit no trace records),
  // so the distance oracle only ever needs local-local pairs; anything else
  // reports "unknown" and the invariant is skipped — a false negative at a
  // shard boundary, never a false positive.
  std::vector<std::unique_ptr<SimAuditor>> auditors;
  if (config.audit) {
    for (std::size_t s = 0; s < S; ++s) {
      SimAuditor::Config ac;
      ac.mac =
          config.protocol == Protocol::kRmac ? AuditedMac::kRmac : AuditedMac::kDot11Family;
      ac.phy = config.phy;
      ac.rbt_protection = config.rbt_protection;
      const auto local = [&sharded, n, s](NodeId id) {
        return id < n && (sharded ? sharded->shard_of(id) : 0) == s;
      };
      ac.distance = [&views, &nodes, local, s](NodeId a, NodeId b) -> double {
        if (!local(a) || !local(b)) return -1.0;
        const SimTime now = views[s].sched->now();
        return distance(nodes[a]->mobility->position(now), nodes[b]->mobility->position(now));
      };
      ac.audited = local;
      auditors.push_back(std::make_unique<SimAuditor>(*views[s].tracer, std::move(ac)));
    }
  }

  // One digest per view.  The digest folds structured fields only (feed()
  // skips kGeneric and never reads message text), so subscribe string-free
  // like the auditor.
  std::vector<TraceDigest> digests(S);
  std::vector<Tracer::SinkId> digest_sinks;
  if (config.trace_digest) {
    for (std::size_t s = 0; s < S; ++s) {
      TraceDigest* d = &digests[s];
      digest_sinks.push_back(views[s].tracer->add_sink(
          [d](const TraceRecord& rec) { d->feed(rec); },
          Tracer::bit(TraceCategory::kPhy) | Tracer::bit(TraceCategory::kTone),
          /*needs_message=*/false));
    }
  }

  // The profiler is thread-local: one on the driving thread (the whole
  // monolithic run; on the sharded engine the plan phase and worker 0's
  // shards, since the driving thread is worker 0), plus one per pool worker
  // 1..T-1 attached through the sharded engine's worker hook.  It reads
  // nothing but the wall clock; digests and event order are unaffected.
  std::optional<Profiler> profiler;
  if (config.profile) {
    const unsigned workers = WindowExecutor::resolve_threads(S, config.shard_threads);
    if (sharded && workers > 1) {
      worker_profilers.resize(workers - 1);
      sharded->set_worker_hook([&worker_profilers](unsigned w) {
        if (w == 0) return;  // the driving thread keeps its own profiler
        Profiler& p = worker_profilers[w - 1];
        if (Profiler::current() != &p) p.attach();
      });
    }
    profiler.emplace();
    profiler->attach();
  }

  const SimTime gen_span =
      SimTime::from_seconds(static_cast<double>(config.num_packets) / config.rate_pps);
  const SimTime run_end = config.warmup + gen_span + config.drain;
  const auto run_begin = std::chrono::steady_clock::now();

  // Progress heartbeat, throttled by wall clock.  It only reads counters the
  // run already maintains, so it can never move simulation state or digests.
  const bool heartbeat = config.progress.interval_s > 0.0;
  auto last_beat = run_begin;
  const char* phase = "warmup";
  const auto beat = [&](bool force) {
    using seconds = std::chrono::duration<double>;
    if (!heartbeat) return;
    const auto now = std::chrono::steady_clock::now();
    if (!force && seconds(now - last_beat).count() < config.progress.interval_s) return;
    last_beat = now;
    ExperimentConfig::RunProgress p;
    p.phase = phase;
    p.end_s = run_end.to_seconds();
    p.wall_s = seconds(now - run_begin).count();
    if (sharded) {
      const WindowTelemetry* wt = sharded->window_telemetry();
      p.sim_s = sharded->now().to_seconds();
      p.events = sharded->events_executed();
      p.windows = sharded->windows_run();
      p.messages = sharded->messages_exchanged();
      p.imbalance = wt != nullptr ? wt->imbalance_busy() : 0.0;
    } else {
      p.sim_s = views[0].sched->now().to_seconds();
      p.events = views[0].sched->executed_count();
    }
    p.events_per_s = p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s : 0.0;
    p.windows_per_s = p.wall_s > 0.0 ? static_cast<double>(p.windows) / p.wall_s : 0.0;
    // ETA from the overall sim-time rate since the run began.
    const double rate = p.wall_s > 0.0 ? p.sim_s / p.wall_s : 0.0;
    p.eta_s = rate > 0.0 && p.end_s > p.sim_s ? (p.end_s - p.sim_s) / rate : 0.0;
    if (config.progress.sink) {
      config.progress.sink(p);
    } else {
      std::fprintf(stderr, "%s\n", format_progress_json(p).c_str());
    }
  };
  // The sharded engine beats from the serial plan phase after each planned
  // barrier: every counter it reads is plan-phase state (workers parked).
  if (sharded && heartbeat) sharded->set_barrier_hook([&beat] { beat(false); });
  // The monolithic engine beats between chunks of run_until: executing a
  // span in steps runs the same events in the same order (intermediate clock
  // jumps touch nothing), so no digest moves.
  const auto advance = [&](SimTime to) {
    RMAC_PROF_SCOPE("sim.run");
    if (sharded) {
      sharded->run_until(to);
      return;
    }
    Scheduler& sched = *views[0].sched;
    if (!heartbeat) {
      sched.run_until(to);
      return;
    }
    const SimTime from = sched.now();
    constexpr std::int64_t kChunks = 256;
    for (std::int64_t i = 1; i <= kChunks; ++i) {
      sched.run_until(i == kChunks ? to
                                   : from + SimTime::ns((to - from).nanoseconds() * i / kChunks));
      beat(false);
    }
  };

  if (sharded) {
    sharded->start_routing();
  } else {
    serial->start_routing();
  }
  advance(config.warmup);

  // §4.1.1 tree statistics at the end of warm-up.
  SampleStats hops;
  SampleStats children;
  for (Node* nd : nodes) {
    if (nd->tree->connected() && !nd->tree->is_root()) {
      hops.add(static_cast<double>(nd->tree->hops_to_root()));
    }
    const std::size_t c = nd->tree->child_count();
    if (c > 0) children.add(static_cast<double>(c));
  }

  // The flight recorders and time-series collectors attach at the end of
  // warm-up, when the source starts: packet journeys cannot exist earlier
  // (hello journeys are skipped by default), and keeping the observers off
  // the warm-up hello storm keeps their overhead proportional to the
  // traffic actually being studied.  Collector ticks execute inside the
  // owning view's scheduler and touch only that view's state; every view
  // starts at the same instant with the same period, so sample times line
  // up across shards regardless of the thread count.
  std::vector<std::unique_ptr<FlightRecorder>> recorders;
  std::vector<std::unique_ptr<TimeSeriesCollector>> collectors;
  if (config.obs.record) {
    FlightRecorder::Config rc;
    rc.track_hellos = config.obs.track_hellos;
    for (const WorldView& v : views) {
      recorders.push_back(std::make_unique<FlightRecorder>(*v.tracer, rc));
      TimeSeriesCollector::Config tc;
      tc.sample_period = config.obs.sample_period;
      tc.capacity = config.obs.timeseries_capacity;
      tc.queue_probe = [local = v.nodes] {
        std::uint64_t sum = 0;
        for (const Node& nd : local) sum += nd.mac->queue_depth();
        return sum;
      };
      collectors.push_back(
          std::make_unique<TimeSeriesCollector>(*v.sched, *v.tracer, std::move(tc)));
      collectors.back()->start();
    }
  }

  if (sharded) {
    sharded->start_source();
  } else {
    serial->start_source();
  }
  phase = "traffic";
  advance(run_end);
  phase = "done";
  beat(/*force=*/true);
  for (const auto& c : collectors) c->stop();
  const double run_wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - run_begin)
                                .count();

  // End-of-run ledger sweep: reliable work still queued or in service when
  // the clock stops is kEndOfRun, not a leak.  Each view sweeps into its own
  // ledger (a shard's buffer, so the ops carry that shard's time and merge
  // deterministically).  After this, finalize() may classify a slot
  // kUnaccounted only if a drop path truly forgot to report.
  for (const WorldView& v : views) {
    for (Node& nd : v.nodes) {
      nd.mac->for_each_pending_reliable(
          [ledger = v.ledger](const AppPacketPtr& packet, const std::vector<NodeId>& receivers) {
            if (packet != nullptr && packet->kind == AppPacket::Kind::kData) {
              ledger->sweep_end_of_run(packet->journey, receivers);
            }
          });
    }
  }
  if (sharded) sharded->finalize_ledger();

  ExperimentResult r;
  r.config = config;
  DeliveryStats delivery;
  for (const WorldView& v : views) delivery.merge_from(*v.delivery);
  r.delivery_ratio = delivery.delivery_ratio();
  r.generated = delivery.generated();
  r.delivered = delivery.delivered_receptions();
  r.expected = delivery.expected_receptions();
  r.avg_delay_s = mean(delivery.delays_seconds());
  r.p99_delay_s = percentile(delivery.delays_seconds(), 99.0);
  r.delay_samples_s = delivery.delays_seconds();
  for (const WorldView& v : views) r.events_executed += v.sched->executed_count();

  // Conservation check: every expected reception terminated in exactly one
  // outcome, none leaked.  The verdict rides on the result (tests and the
  // mutation knob assert on it; a hard assert here would make the
  // prove-the-check-fires test impossible to run).
  r.ledger = (sharded ? sharded->ledger() : serial->ledger()).finalize();

  if (profiler.has_value()) {
    r.profile.wall_s = run_wall_s;
    r.profile.events_per_sec =
        run_wall_s > 0.0 ? static_cast<double>(r.events_executed) / run_wall_s : 0.0;
    r.profile.threads.push_back(profiler->report());
    for (const Profiler& p : worker_profilers) r.profile.threads.push_back(p.report());
    r.profile.report = merge_profiler_reports(r.profile.threads);
    r.profile.report.wall_s = run_wall_s;
    Profiler::detach();
  }

  fill_node_metrics(r, config, nodes);
  r.tree_hops_avg = hops.mean();
  r.tree_hops_p99 = hops.percentile(99.0);
  r.tree_children_avg = children.mean();
  r.tree_children_p99 = children.percentile(99.0);

  for (std::size_t i = 0; i < kNumAuditInvariants; ++i) {
    const auto inv = static_cast<AuditInvariant>(i);
    std::uint64_t c = 0;
    for (const auto& a : auditors) c += a->count(inv);
    if (c > 0) r.audit.by_invariant.emplace_back(to_string(inv), c);
  }
  for (const auto& a : auditors) {
    r.audit.total += a->total_violations();
    if (a->total_violations() > 0) r.audit.detail += a->summary();
  }

  if (config.trace_digest) {
    for (std::size_t s = 0; s < S; ++s) views[s].tracer->remove_sink(digest_sinks[s]);
    // A single view keeps its own value (the serial goldens).  Shards fold in
    // shard order: per-shard streams depend only on their shard's
    // scheduler, so the fold is thread-independent — but it interleaves
    // differently than the serial stream, so sharded digests are pinned per
    // shard count.  The order-independent xsum companion IS serial-comparable
    // (same record multiset => same sum).
    TraceDigest combined;
    for (const TraceDigest& d : digests) {
      combined.feed_value(d.value());
      combined.add_xsum(d.xsum());
    }
    const TraceDigest& digest = S > 1 ? combined : digests[0];
    r.trace_digest = digest.value();
    r.trace_digest_xsum = digest.xsum();
  }

  const WindowTelemetry* wt = sharded ? sharded->window_telemetry() : nullptr;
  if (sharded) fill_shard_summary(r.shard, *sharded);
  const std::string node_counts = json_array(r.shard.node_counts);
  if (wt != nullptr && (config.obs.record || config.obs.window_telemetry) &&
      !config.obs.out_dir.empty()) {
    r.obs.telemetry_json = artifact_base(config.obs) + "_telemetry.json";
    std::vector<ManifestField> extra;
    extra.push_back({"label", config.label(), false});
    extra.push_back({"seed", std::to_string(config.seed), true});
    extra.push_back({"partition", std::string(rmacsim::to_string(r.shard.partition)), false});
    if (r.shard.grid_rows > 0) {
      extra.push_back({"shard_grid", cat(r.shard.grid_rows, "x", r.shard.grid_cols), false});
    }
    extra.push_back({"threads", std::to_string(r.shard.threads), true});
    extra.push_back({"node_counts", node_counts, true});
    (void)write_window_telemetry_json(r.obs.telemetry_json, *wt, extra);
  }

  if (!recorders.empty()) {
    // A single recorder's journeys export as recorded; per-shard slices of
    // one packet's story merge by JourneyId.
    std::vector<Journey> merged;
    if (S > 1) {
      std::vector<const FlightRecorder*> rec_ptrs;
      for (const auto& rec : recorders) rec_ptrs.push_back(rec.get());
      merged = merge_journeys(rec_ptrs);
    }
    const std::vector<Journey>& journeys = S > 1 ? merged : recorders[0]->journeys();
    std::uint64_t journeys_dropped = 0;
    for (const auto& rec : recorders) {
      r.obs.journey_events += rec->total_events();
      journeys_dropped += rec->dropped_journeys();
    }
    r.obs.journeys = journeys.size();
    for (const auto& c : collectors) r.obs.samples += c->sample_count();

    // Artifact export is deliberately outside the run's overhead budget: it
    // is a post-run serialization step whose cost tracks artifact size (tens
    // of MB on paper-scale scenarios), and r.obs.export_ms reports it.
    if (!config.obs.out_dir.empty()) {
      const auto export_begin = std::chrono::steady_clock::now();
      const std::string base = artifact_base(config.obs);
      r.obs.trace_json = base + "_trace.json";
      r.obs.journeys_jsonl = base + "_journeys.jsonl";
      r.obs.timeseries_csv = base + "_timeseries.csv";
      r.obs.manifest_json = base + "_manifest.json";
      const std::vector<std::string> state_names =
          config.protocol == Protocol::kRmac ? rmac_state_names() : std::vector<std::string>{};
      // The monolithic trace carries the time series as counter tracks; the
      // sharded one carries per-worker window tracks, and its CSV a leading
      // shard column.
      (void)write_chrome_trace(r.obs.trace_json, journeys,
                               sharded ? nullptr : collectors[0].get(), wt);
      (void)write_journeys_jsonl(r.obs.journeys_jsonl, journeys);
      if (sharded) {
        std::vector<ShardTimeSeries> shard_series;
        for (std::size_t s = 0; s < S; ++s) {
          shard_series.push_back({static_cast<std::uint32_t>(s), collectors[s].get()});
        }
        (void)write_timeseries_csv(r.obs.timeseries_csv, shard_series, state_names);
      } else {
        (void)write_timeseries_csv(r.obs.timeseries_csv, *collectors[0], state_names);
      }

      std::vector<ManifestField> m;
      m.push_back({"label", config.label(), false});
      m.push_back({"protocol", std::string(rmacsim::to_string(config.protocol)), false});
      m.push_back({"mobility", std::string(rmacsim::to_string(config.mobility)), false});
      m.push_back({"seed", std::to_string(config.seed), true});
      m.push_back({"num_nodes", std::to_string(config.num_nodes), true});
      m.push_back({"rate_pps", cat(config.rate_pps), true});
      m.push_back({"num_packets", std::to_string(config.num_packets), true});
      m.push_back({"payload_bytes", std::to_string(config.payload_bytes), true});
      m.push_back({"git_revision", RMAC_GIT_REVISION, false});
      if (sharded) {
        m.push_back({"shards", std::to_string(r.shard.shards), true});
        m.push_back({"shard_threads", std::to_string(r.shard.threads), true});
        m.push_back({"shard_partition", std::string(rmacsim::to_string(r.shard.partition)),
                     false});
        if (r.shard.grid_rows > 0) {
          m.push_back({"shard_grid", cat(r.shard.grid_rows, "x", r.shard.grid_cols), false});
        }
        m.push_back({"shard_node_counts", node_counts, true});
      }
      if (config.trace_digest) {
        m.push_back({"trace_digest", std::to_string(r.trace_digest), true});
        if (sharded) {
          m.push_back({"trace_digest_xsum", std::to_string(r.trace_digest_xsum), true});
        }
      }
      m.push_back({"journeys", std::to_string(r.obs.journeys), true});
      m.push_back({"journey_events", std::to_string(r.obs.journey_events), true});
      m.push_back({"journeys_dropped", std::to_string(journeys_dropped), true});
      m.push_back({"timeseries_samples", std::to_string(r.obs.samples), true});
      m.push_back({"sample_period_us", cat(config.obs.sample_period.to_us()), true});
      if (r.shard.telemetry) {
        m.push_back({"windows_recorded", std::to_string(wt->windows()), true});
        m.push_back({"imbalance_busy", cat(r.shard.imbalance_busy), true});
        m.push_back({"imbalance_events", cat(r.shard.imbalance_events), true});
        m.push_back({"speedup_bound_busy", cat(r.shard.speedup_bound_busy), true});
        m.push_back({"speedup_bound_events", cat(r.shard.speedup_bound_events), true});
        m.push_back({"phantom_refreshes", std::to_string(r.shard.phantom_refreshes), true});
      }
      m.push_back({"trace_json", r.obs.trace_json, false});
      m.push_back({"journeys_jsonl", r.obs.journeys_jsonl, false});
      m.push_back({"timeseries_csv", r.obs.timeseries_csv, false});
      if (!r.obs.telemetry_json.empty()) {
        m.push_back({"telemetry_json", r.obs.telemetry_json, false});
      }
      (void)write_run_manifest(r.obs.manifest_json, m);
      r.obs.export_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - export_begin)
                            .count();
    }
  }

  // Metrics snapshot: a pure post-run collect pass over counters the hot
  // paths already maintained, so enabling it cannot shift digests or the
  // allocs-per-tx gate.
  if (config.metrics.enabled) {
    MetricsRegistry reg;
    collect_metrics(reg, config.protocol, views, nodes);
    if (sharded) collect_shard_metrics(reg, *sharded);
    collect_ledger(reg, r.ledger);
    r.metrics.series = reg.series_count();
    r.metrics.conservation_ok = r.ledger.conservation_ok();
    const Profiler::Report* report = profiler.has_value() ? &r.profile.report : nullptr;
    if (config.metrics.keep_json) r.metrics.json = to_metrics_json(reg, r.ledger, report);
    if (!config.metrics.out_dir.empty()) {
      (void)write_metrics_artifacts(reg, r.ledger, report, config.metrics.out_dir,
                                    config.metrics.prefix, r.metrics.text_path,
                                    r.metrics.json_path);
    }
  }
  return r;
}

ExperimentResult average_results(const std::vector<ExperimentResult>& runs) {
  assert(!runs.empty());
  ExperimentResult avg;
  avg.config = runs.front().config;
  const double n = static_cast<double>(runs.size());
  // Delay statistics pool the raw per-reception samples across seeds before
  // taking mean/percentile: averaging per-seed p99s would weight a
  // 10-delivery seed equally with a 10000-delivery one and is not a
  // percentile of anything (the skewed-seed regression test pins this).
  SampleStats pooled_delays;
  for (const ExperimentResult& r : runs) {
    avg.delivery_ratio += r.delivery_ratio / n;
    pooled_delays.add_all(r.delay_samples_s);
    avg.avg_drop_ratio += r.avg_drop_ratio / n;
    avg.avg_retx_ratio += r.avg_retx_ratio / n;
    avg.avg_txoh_ratio += r.avg_txoh_ratio / n;
    avg.mrts_len_avg += r.mrts_len_avg / n;
    avg.mrts_len_p99 += r.mrts_len_p99 / n;
    avg.mrts_len_max = std::max(avg.mrts_len_max, r.mrts_len_max);
    avg.abort_avg += r.abort_avg / n;
    avg.abort_p99 += r.abort_p99 / n;
    avg.abort_max = std::max(avg.abort_max, r.abort_max);
    avg.mac_believed_success += r.mac_believed_success / n;
    avg.tree_hops_avg += r.tree_hops_avg / n;
    avg.tree_hops_p99 += r.tree_hops_p99 / n;
    avg.tree_children_avg += r.tree_children_avg / n;
    avg.tree_children_p99 += r.tree_children_p99 / n;
    avg.generated += r.generated;
    avg.delivered += r.delivered;
    avg.expected += r.expected;
    avg.events_executed += r.events_executed;
    avg.ledger.journeys += r.ledger.journeys;
    avg.ledger.expected += r.ledger.expected;
    avg.ledger.delivered += r.ledger.delivered;
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      avg.ledger.dropped[i] += r.ledger.dropped[i];
    }
    avg.audit.total += r.audit.total;
    for (const auto& [name, count] : r.audit.by_invariant) {
      auto it = std::find_if(avg.audit.by_invariant.begin(), avg.audit.by_invariant.end(),
                             [&name](const auto& p) { return p.first == name; });
      if (it == avg.audit.by_invariant.end()) {
        avg.audit.by_invariant.emplace_back(name, count);
      } else {
        it->second += count;
      }
    }
  }
  avg.avg_delay_s = pooled_delays.mean();
  avg.p99_delay_s = pooled_delays.percentile(99.0);
  avg.delay_samples_s = pooled_delays.values();
  return avg;
}

}  // namespace rmacsim
