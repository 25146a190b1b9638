// Benchmark driver: runs one workload of the repository benchmark and prints
// one JSON line of raw measurements on stdout; perfbench/run.py turns them
// into the reported metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --worker-bin PATH --work-dir DIR [--scale full|tiny]
//
// Everything here uses the simulator's public API only.  Per-layer host time
// comes from the program's own self-profiler (metrics/profiler.hpp): the
// driver opens extra profiler scopes around the calls into each layer —
// RadioListener and MacUpper wrappers, a Medium subclass over the virtual
// transmit entry points — and the profiler's nesting turns them, together
// with the program's built-in scopes, into per-layer self time.
//
// Every timed cell is checked: its ledger must be conserved and its outcome
// must equal what the program's own run_experiment produces for the same
// config (the check pass, which also computes the trace digests, so the
// timed runs never pay for them).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/revision.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "metrics/profiler.hpp"
#include "obs/window_telemetry.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network_builder.hpp"
#include "scenario/sharded_network.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace {

using namespace rmacsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Layer spans.  Section names starting with "bench." are opened by this
// driver; the others are the program's built-in profiler scopes.

struct Sections {
  ProfSectionId run = prof_section("bench.run");  // root span of a traced run
  ProfSectionId phy_tx = prof_section("bench.phy.tx");
  ProfSectionId phy_abort = prof_section("bench.phy.abort");
  ProfSectionId mac_rx = prof_section("bench.mac.rx");
  ProfSectionId mac_carrier = prof_section("bench.mac.carrier");
  ProfSectionId mac_tx_done = prof_section("bench.mac.tx_done");
  ProfSectionId net_deliver = prof_section("bench.net.deliver");
  ProfSectionId net_done = prof_section("bench.net.done");
};
const Sections& sections() {
  static const Sections s;
  return s;
}

// Which layer each profiler section's self time belongs to.
const std::map<std::string, std::string>& layer_of_section() {
  static const std::map<std::string, std::string> m{
      {"bench.phy.tx", "phy"},          {"bench.phy.abort", "phy"},
      {"phy.begin_transmission", "phy"}, {"phy.signal_end", "phy"},
      {"tone.set_tone", "phy"},         {"bench.mac.rx", "mac"},
      {"bench.mac.carrier", "mac"},     {"bench.mac.tx_done", "mac"},
      {"bench.net.deliver", "net"},     {"bench.net.done", "net"},
      {"app.mac_deliver", "net"}};
  return m;
}

class TimedMedium final : public Medium {
public:
  using Medium::Medium;
  SimTime begin_transmission(Radio& tx, FramePtr frame) override {
    const ProfScope scope{sections().phy_tx};
    return Medium::begin_transmission(tx, std::move(frame));
  }
  void abort_transmission(Radio& tx) override {
    const ProfScope scope{sections().phy_abort};
    Medium::abort_transmission(tx);
  }
};

class TimedListener final : public RadioListener {
public:
  RadioListener* inner{nullptr};
  void on_frame_received(const FramePtr& frame) override {
    const ProfScope scope{sections().mac_rx};
    inner->on_frame_received(frame);
  }
  void on_carrier_changed(bool busy) override {
    const ProfScope scope{sections().mac_carrier};
    inner->on_carrier_changed(busy);
  }
  void on_transmit_complete(const FramePtr& frame, bool aborted) override {
    const ProfScope scope{sections().mac_tx_done};
    inner->on_transmit_complete(frame, aborted);
  }
};

class TimedUpper final : public MacUpper {
public:
  MacUpper* inner{nullptr};
  void mac_deliver(const Frame& frame) override {
    const ProfScope scope{sections().net_deliver};
    inner->mac_deliver(frame);
  }
  void mac_reliable_done(const ReliableSendResult& result) override {
    const ProfScope scope{sections().net_done};
    inner->mac_reliable_done(result);
  }
};

// Wrappers for a set of nodes; must outlive the nodes they are installed on.
struct NodeWrappers {
  std::vector<TimedListener> listeners;
  std::vector<TimedUpper> uppers;

  explicit NodeWrappers(std::size_t n) : listeners(n), uppers(n) {}
  // MulticastApp registered itself as the MAC's upper layer, and
  // build_node_stack pointed the radio at the node's MacDispatch; re-point
  // both at forwarding wrappers.
  void install(std::size_t slot, Node& node) {
    listeners[slot].inner = node.dispatch.get();
    node.radio->set_listener(&listeners[slot]);
    uppers[slot].inner = node.app.get();
    node.mac->set_upper(&uppers[slot]);
  }
};

// ---------------------------------------------------------------------------
// Cells.

struct CellResult {
  std::uint64_t events{0};
  std::uint64_t delivered{0};
  std::uint64_t expected{0};
  LedgerSummary ledger;
  double wall_s{0.0};
  // Wall time of consecutive slices of the run.  The slices cut the same
  // deterministic work on every repeat of the cell (fixed simulated-time
  // steps on the serial engine, fixed barrier counts on the sharded one), so
  // repeats compare slice by slice.
  std::vector<double> chunk_s;
  // Sharded engine only.
  std::uint64_t clamped{0};
  std::uint64_t windows{0};
  std::uint64_t messages{0};
  std::uint64_t mirrors{0};
};

bool same_outcome(const CellResult& a, const CellResult& b) {
  return a.events == b.events && a.delivered == b.delivered && a.expected == b.expected &&
         a.ledger.expected == b.ledger.expected && a.ledger.delivered == b.ledger.delivered &&
         a.ledger.dropped == b.ledger.dropped;
}

NetworkConfig network_config(const ExperimentConfig& c) {
  // The same mapping run_experiment applies.
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
  return n;
}

SimTime run_end_of(const ExperimentConfig& c) {
  return c.warmup +
         SimTime::from_seconds(static_cast<double>(c.num_packets) / c.rate_pps) + c.drain;
}

// The monolithic world of the traced pass, assembled from the same public
// pieces Network uses (and with the same RNG stream derivation) so the driver
// can slot in its Medium subclass.  Untraced passes and set-up use Network
// itself; the observer check proves this copy executes the same physics.
struct TracedWorld {
  NetworkConfig config;
  Tracer tracer;
  Scheduler scheduler;
  std::unique_ptr<Medium> medium;
  std::unique_ptr<ToneChannel> rbt;
  std::unique_ptr<ToneChannel> abt;
  DeliveryStats delivery;
  LossLedger ledger;
  NodeWrappers wrappers;  // declared before nodes: outlives them
  std::vector<Node> nodes;

  explicit TracedWorld(const NetworkConfig& cfg) : config{cfg}, wrappers{cfg.num_nodes} {
    ledger.set_node_count(config.num_nodes);
    Rng master{config.seed};
    Rng placement_rng = master.fork(Rng::hash_label("placement"));
    Rng medium_rng = master.fork(Rng::hash_label("medium"));
    medium = std::make_unique<TimedMedium>(scheduler, config.phy, medium_rng, &tracer);
    rbt = std::make_unique<ToneChannel>(scheduler, medium->params(), "RBT", &tracer);
    abt = std::make_unique<ToneChannel>(scheduler, medium->params(), "ABT", &tracer);
    const std::vector<Vec2> placement = draw_network_placement(config, placement_rng);
    const NodeBuildEnv env{scheduler, *medium, *rbt, *abt, &tracer, delivery, ledger};
    nodes.reserve(config.num_nodes);
    for (NodeId i = 0; i < config.num_nodes; ++i) {
      nodes.push_back(build_node_stack(config, i, placement[i], master.fork(0x1000 + i), env));
      wrappers.install(i, nodes.back());
    }
  }
};

// What a serial run needs from either world.
struct SerialParts {
  Scheduler& scheduler;
  std::vector<Node>& nodes;
  NodeId root;
  DeliveryStats& delivery;
  LossLedger& ledger;
};
SerialParts parts_of(Network& n) {
  return {n.scheduler(), n.nodes(), n.config().root, n.delivery(), n.ledger()};
}
SerialParts parts_of(TracedWorld& w) {
  return {w.scheduler, w.nodes, w.config.root, w.delivery, w.ledger};
}

void sweep_pending(std::vector<Node>& nodes, LossLedger& ledger) {
  for (Node& n : nodes) {
    n.mac->for_each_pending_reliable(
        [&ledger](const AppPacketPtr& packet, const std::vector<NodeId>& receivers) {
          if (packet != nullptr && packet->kind == AppPacket::Kind::kData) {
            ledger.sweep_end_of_run(packet->journey, receivers);
          }
        });
  }
}

constexpr SimTime kChunkSpan = SimTime::ms(100);
constexpr std::uint64_t kBarriersPerChunk = 1024;

// Run (from, to] in kChunkSpan steps, appending each step's wall time.
// Stepping run_until executes the same events in the same order.
void run_chunked(Scheduler& sched, SimTime from, SimTime to, std::vector<double>& chunks) {
  for (SimTime t = from; t < to;) {
    t = std::min(t + kChunkSpan, to);
    const auto t0 = Clock::now();
    sched.run_until(t);
    chunks.push_back(seconds_since(t0));
  }
}

// Warm-up, traffic, drain — the run_experiment schedule.  `prof` (traced
// runs) is attached for the simulated span only, under one root span, so
// every other span nests in it.
CellResult run_serial(const SerialParts& w, const ExperimentConfig& c, Profiler* prof) {
  CellResult r;
  if (prof != nullptr) prof->attach();
  const auto t0 = Clock::now();
  {
    const ProfScope root{sections().run};  // a no-op when no profiler is attached
    for (Node& n : w.nodes) n.tree->start();
    run_chunked(w.scheduler, SimTime::zero(), c.warmup, r.chunk_s);
    w.nodes[w.root].app->start_source();
    run_chunked(w.scheduler, c.warmup, run_end_of(c), r.chunk_s);
  }
  r.wall_s = seconds_since(t0);
  if (prof != nullptr) Profiler::detach();
  sweep_pending(w.nodes, w.ledger);
  r.events = w.scheduler.executed_count();
  r.delivered = w.delivery.delivered_receptions();
  r.expected = w.delivery.expected_receptions();
  r.ledger = w.ledger.finalize();
  return r;
}

// Per-shard wrappers plus one profiler per pool thread (attached through the
// engine's per-window worker hook).
struct ShardTrace {
  std::optional<NodeWrappers> wrappers;
  std::vector<Profiler> worker_profilers;
  Profiler main_profiler;
};

struct ShardedWorld {
  std::unique_ptr<ShardTrace> trace;   // declared before net: outlives it
  std::unique_ptr<ShardedNetwork> net;

  ShardedWorld(const NetworkConfig& cfg, bool traced) {
    net = std::make_unique<ShardedNetwork>(cfg);
    if (!traced) return;
    trace = std::make_unique<ShardTrace>();
    net->enable_window_telemetry();
    std::size_t total = 0;
    for (std::size_t s = 0; s < net->shard_count(); ++s) total += net->shard(s).nodes.size();
    trace->wrappers.emplace(total);
    std::size_t slot = 0;
    for (std::size_t s = 0; s < net->shard_count(); ++s) {
      for (Node& n : net->shard(s).nodes) trace->wrappers->install(slot++, n);
    }
    const unsigned threads = cfg.shard_threads == 0 ? static_cast<unsigned>(net->shard_count())
                                                    : cfg.shard_threads;
    trace->worker_profilers = std::vector<Profiler>(threads);
    ShardTrace* t = trace.get();
    net->set_worker_hook([t](unsigned w) { t->worker_profilers[w].attach(); });
  }
};

CellResult run_sharded_world(ShardedWorld& w, const ExperimentConfig& c) {
  ShardedNetwork& net = *w.net;
  CellResult r;
  // The plan phase calls the hook once per barrier; the barrier sequence is
  // deterministic, so slice k covers the same windows on every repeat.
  std::uint64_t barriers = 0;
  auto chunk_start = Clock::now();
  net.set_barrier_hook([&] {
    if (++barriers % kBarriersPerChunk != 0) return;
    const auto now = Clock::now();
    r.chunk_s.push_back(std::chrono::duration<double>(now - chunk_start).count());
    chunk_start = now;
  });
  if (w.trace) w.trace->main_profiler.attach();
  const auto t0 = Clock::now();
  chunk_start = t0;
  {
    const ProfScope root{sections().run};  // a no-op when no profiler is attached
    net.start_routing();
    net.run_until(c.warmup);
    net.start_source();
    net.run_until(run_end_of(c));
  }
  r.chunk_s.push_back(seconds_since(chunk_start));
  r.wall_s = seconds_since(t0);
  net.set_barrier_hook({});
  if (w.trace) Profiler::detach();
  for (std::size_t s = 0; s < net.shard_count(); ++s) {
    sweep_pending(net.shard(s).nodes, net.shard_ledger(s));
  }
  net.finalize_ledger();
  DeliveryStats delivery;
  for (std::size_t s = 0; s < net.shard_count(); ++s) delivery.merge_from(net.shard(s).delivery);
  r.events = net.events_executed();
  r.delivered = delivery.delivered_receptions();
  r.expected = delivery.expected_receptions();
  r.ledger = net.ledger().finalize();
  r.clamped = net.clamped();
  r.windows = net.windows_run();
  r.messages = net.messages_exchanged();
  r.mirrors = net.remote_mirrors();
  return r;
}

CellResult from_experiment(const ExperimentResult& e) {
  CellResult r;
  r.events = e.events_executed;
  r.delivered = e.delivered;
  r.expected = e.expected;
  r.ledger = e.ledger;
  r.clamped = e.shard.clamped;
  return r;
}

// The CPUs this process may run on, and pinning the calling thread to one.
std::vector<std::size_t> allowed_cpus() {
  std::vector<std::size_t> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to(const std::vector<std::size_t>& cpus, std::size_t i) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void unpin(const std::vector<std::size_t>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const std::size_t c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  std::vector<ExperimentConfig> cells;  // one pass
  // Cells of the traced pass (indices into `cells`): all of them, except on
  // the campaign, where the first seed of each protocol x mobility stands in.
  std::vector<std::size_t> traced_cells;
  bool sharded{false};
  bool campaign{false};
  CampaignSpec spec;  // campaign workloads
  unsigned setup_reps{1};
  // Wall of one timed pass on the host the benchmark was sized on (4 vCPUs,
  // Release + LTO).  The repeat count is --seconds / nominal_pass_s, fixed
  // per workload: a faster or slower revision repeats the same number of
  // times, so lower envelopes compare like with like.
  double nominal_pass_s{1.0};
};

std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t i) { return seed * 1000 + i; }

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  ExperimentConfig base;
  base.payload_bytes = 500;
  base.rate_pps = 20.0;
  if (name == "paper_rmac") {
    // The paper's cell (§4.1.2): 75 nodes on 500 x 300 m, speed2 waypoint.
    base.mobility = MobilityScenario::kSpeed2;
    base.num_packets = tiny ? 5 : 50;
    const unsigned cells = tiny ? 2 : 16;
    for (unsigned i = 0; i < cells; ++i) {
      base.seed = cell_seed(seed, i);
      w.cells.push_back(base);
    }
    w.setup_reps = 120;
    w.nominal_pass_s = 2.5;
  } else if (name == "large_static") {
    // Paper density (75 nodes / 500 x 300 m) scaled to 2 km x 2 km.
    base.num_nodes = tiny ? 200 : 2000;
    base.area = tiny ? Rect{632.0, 632.0} : Rect{2000.0, 2000.0};
    base.rate_pps = 10.0;
    base.num_packets = tiny ? 2 : 20;
    base.seed = cell_seed(seed, 0);
    w.cells.push_back(base);
    w.setup_reps = 15;
    w.nominal_pass_s = 3.0;
  } else if (name == "sharded_exact") {
    // Strict windows (floor 0): the only sharded mode that reproduces serial.
    // A short warm-up (the stationary tree forms within a few hello periods)
    // and drain keep a cell near 1.5 s.  Across seeds, the barrier count of
    // four placements varies by a few percent; the wall's spread between
    // runs comes from the host's thread wake-up latency, not the seed.
    base.num_packets = tiny ? 2 : 10;
    base.shards = 2;
    base.shard_threads = 2;
    base.shard_lookahead_floor = SimTime::zero();
    base.warmup = SimTime::sec(2);
    base.drain = SimTime::sec(1);
    for (unsigned i = 0; i < (tiny ? 1U : 4U); ++i) {
      base.seed = cell_seed(seed, i);
      w.cells.push_back(base);
    }
    w.sharded = true;
    w.setup_reps = 60;
    w.nominal_pass_s = 6.0;
  } else if (name == "campaign_mix") {
    w.campaign = true;
    w.spec.protocols = tiny ? std::vector<Protocol>{Protocol::kRmac, Protocol::kDcf}
                            : std::vector<Protocol>{Protocol::kRmac, Protocol::kBmmm,
                                                    Protocol::kDcf, Protocol::kBmw,
                                                    Protocol::kMx, Protocol::kLamm};
    w.spec.mobilities = {MobilityScenario::kStationary, MobilityScenario::kSpeed2};
    w.spec.rates = {base.rate_pps};
    const unsigned seeds = tiny ? 1 : 10;
    w.spec.seeds.clear();
    for (unsigned i = 0; i < seeds; ++i) w.spec.seeds.push_back(cell_seed(seed, i));
    // Ten seeds of 30 packets rather than five of 60: a few cells per seed
    // set (contention collapse on the CSMA MACs) carry much of the work, and
    // twice the placements halve the seed-to-seed spread of a pass's work.
    // Simulation, not process start-up, is still most of a cell's wall.
    base.num_packets = tiny ? 2 : 30;
    if (tiny) base.warmup = SimTime::sec(3);
    w.spec.base = base;
    for (const CampaignCell& c : expand_cells(w.spec, build_revision())) {
      if (c.config.seed == w.spec.seeds.front()) w.traced_cells.push_back(w.cells.size());
      w.cells.push_back(c.config);
    }
    w.setup_reps = 400;
    w.nominal_pass_s = 4.2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (w.traced_cells.empty()) {
    for (std::size_t i = 0; i < w.cells.size(); ++i) w.traced_cells.push_back(i);
  }
  return w;
}

// ---------------------------------------------------------------------------
// JSON output helpers.

struct Json {
  std::string s;
  bool first{true};
  void key(const char* k) {
    s += first ? "" : ",";
    first = false;
    s += "\"";
    s += k;
    s += "\":";
  }
  void num(const char* k, double v) {
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += buf;
  }
  void u64(const char* k, std::uint64_t v) {
    key(k);
    s += std::to_string(v);
  }
  void boolean(const char* k, bool v) {
    key(k);
    s += v ? "true" : "false";
  }
  void str(const char* k, const std::string& v) {
    key(k);
    s += "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') s += '\\';
      if (static_cast<unsigned char>(ch) < 0x20) continue;
      s += ch;
    }
    s += "\"";
  }
  void list(const char* k, const std::vector<double>& v) {
    key(k);
    s += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", v[i]);
      s += buf;
    }
    s += "]";
  }
  void raw(const char* k, const std::string& v) {
    key(k);
    s += v;
  }
  [[nodiscard]] std::string done() const { return "{" + s + "}"; }
};

// ---------------------------------------------------------------------------
// Measurement.

struct Failures {
  std::uint64_t count{0};
  std::vector<std::string> notes;
  void add(const std::string& why) {
    ++count;
    if (notes.size() < 8) notes.push_back(why);
  }
};

struct Fingerprint {
  std::uint64_t events{0};
  std::uint64_t delivered{0};
  std::uint64_t expected{0};
  std::uint64_t ledger_expected{0};
  std::uint64_t ledger_delivered{0};
  std::uint64_t ledger_dropped{0};
  std::uint64_t xsum{0};  // sum of per-cell order-independent trace digests

  void add(const CellResult& r, std::uint64_t cell_xsum) {
    events += r.events;
    delivered += r.delivered;
    expected += r.expected;
    ledger_expected += r.ledger.expected;
    ledger_delivered += r.ledger.delivered;
    ledger_dropped += r.ledger.total_dropped();
    xsum += cell_xsum;
  }
  [[nodiscard]] std::string json() const {
    Json j;
    j.u64("events", events);
    j.u64("delivered", delivered);
    j.u64("expected", expected);
    j.u64("ledger_expected", ledger_expected);
    j.u64("ledger_delivered", ledger_delivered);
    j.u64("ledger_dropped", ledger_dropped);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, xsum);
    j.str("xsum", buf);
    return j.done();
  }
};

std::string describe(const CellResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "events %" PRIu64 " delivered %" PRIu64 "/%" PRIu64 " ledger %" PRIu64
                "=%" PRIu64 "+%" PRIu64 " clamped %" PRIu64,
                r.events, r.delivered, r.expected, r.ledger.expected, r.ledger.delivered,
                r.ledger.total_dropped(), r.clamped);
  return buf;
}

// Self time per profiler section, merged over several profilers.
struct SectionTotals {
  std::map<std::string, Profiler::SectionStats> by_name;
  void add(const Profiler& p) {
    for (const Profiler::SectionStats& s : p.report().sections) {
      Profiler::SectionStats& t = by_name[s.name];
      t.name = s.name;
      t.calls += s.calls;
      t.total_ns += s.total_ns;
      t.self_ns += s.self_ns;
    }
  }
  [[nodiscard]] std::uint64_t calls(const std::string& n) const {
    const auto it = by_name.find(n);
    return it == by_name.end() ? 0 : it->second.calls;
  }
  [[nodiscard]] double self_ns(const std::string& n) const {
    const auto it = by_name.find(n);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  }
};

double per_call(double ns, std::uint64_t calls) {
  return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
}

// Σ self time over every section of one profiler.
double self_sum_ns(const Profiler::Report& rep) {
  double sum = 0.0;
  for (const Profiler::SectionStats& s : rep.sections) sum += static_cast<double>(s.self_ns);
  return sum;
}

// Raw material for the per-layer metrics of one traced pass.
struct LayerInputs {
  SectionTotals sections;
  double thread_wall_ns{0.0};  // wall x profiled threads
  // Accounting checks, independent of how self time is split into layers.
  // Rooted profilers (the thread driving each run) open every span inside
  // the "bench.run" root, so Σ self over their sections must equal the
  // root's total, and the root's total must fit in the driver-clocked wall
  // of those runs.  Pool-thread profilers have no root; their Σ self must
  // fit in the run's wall.
  double rooted_self_ns{0.0};
  double root_total_ns{0.0};
  double root_wall_ns{0.0};
  bool workers_fit{true};
  void add_rooted(const Profiler& p) {
    const Profiler::Report rep = p.report();
    rooted_self_ns += self_sum_ns(rep);
    for (const Profiler::SectionStats& s : rep.sections) {
      if (s.name == "bench.run") root_total_ns += static_cast<double>(s.total_ns);
    }
    sections.add(p);
  }
  void add_worker(const Profiler& p, double wall_ns) {
    if (self_sum_ns(p.report()) > wall_ns) workers_fit = false;
    sections.add(p);
  }
  std::uint64_t events{0};
  std::uint64_t medium_tx_started{0};
  std::uint64_t medium_rx_delivered{0};
  // Sharded engine: window telemetry, summed or per cell.
  double worker_stall_ns{0.0};
  double worker_ns{0.0};
  std::vector<double> imbalance_events;
  std::vector<double> speedup_bound_events;
};

struct Runner {
  Workload wl;
  double seconds{10.0};
  std::string worker_bin;
  std::string work_dir;
  unsigned campaign_workers{1};

  Failures failures;
  std::uint64_t cells_run{0};
  std::vector<double> setup_s;
  std::vector<double> placement_s;
  std::vector<double> build_s;
  std::vector<double> pass_wall_s;
  std::vector<std::vector<CellResult>> passes;  // outcomes per pass, per cell
  std::vector<std::size_t> all_cells_;
  std::vector<std::size_t> cpus_ = allowed_cpus();
  Json layers;
  Json observer;
  Fingerprint fingerprint;

  // --- set-up --------------------------------------------------------------
  // One cell's set-up with seed offset `rep`: the construction of the world
  // the timed passes run (Network, or ShardedNetwork), which places the nodes
  // and builds their stacks.  Placement is timed on its own by a separate
  // draw_network_placement on the engine's placement stream; the world's
  // teardown is not timed.
  struct CellSetup {
    double setup_s{0.0};
    double placement_s{0.0};
  };
  [[nodiscard]] CellSetup time_cell_setup(const ExperimentConfig& c, unsigned rep) const {
    NetworkConfig nc = network_config(c);
    nc.seed += 50 * static_cast<std::uint64_t>(rep);
    CellSetup out;
    const auto tp = Clock::now();
    Rng master{nc.seed};
    Rng placement_rng = master.fork(Rng::hash_label("placement"));
    (void)draw_network_placement(nc, placement_rng);
    out.placement_s = seconds_since(tp);
    std::optional<Network> net;
    std::optional<ShardedNetwork> sharded;
    const auto t0 = Clock::now();
    if (wl.sharded) {
      sharded.emplace(nc);
    } else {
      net.emplace(nc);
    }
    out.setup_s = seconds_since(t0);
    return out;
  }

  // Set-up of every cell in one pass, repeated; the median is reported.
  // Each repetition draws fresh placements (cell seed + 50 x rep): the
  // connectivity check's attempt count varies with the placement, and the
  // median over many keeps one unlucky draw out of setup_s.  For the
  // campaign, one repetition is spec expansion plus store open.  The
  // repetitions are spread over the run, a round before each timed pass, so
  // one slow spell of the host cannot hold all of them; single-threaded
  // ones rotate over the CPUs like the timed passes.
  void setup_round(unsigned first, unsigned count) {
    for (unsigned i = first; i < first + count; ++i) {
      if (!wl.sharded) pin_to(cpus_, i);
      if (wl.campaign) {
        const std::string dir = work_dir + "/setup_store";
        const auto t0 = Clock::now();
        const std::vector<CampaignCell> cells = expand_cells(wl.spec, build_revision());
        std::filesystem::create_directories(dir);
        const ResultStore store{dir};
        if (store.contains(cells.front().key)) failures.add("setup: fresh store has a record");
        setup_s.push_back(seconds_since(t0));
        std::filesystem::remove_all(dir);
        continue;
      }
      double setup = 0.0;
      double placement = 0.0;
      for (const ExperimentConfig& c : wl.cells) {
        const CellSetup t = time_cell_setup(c, i);
        setup += t.setup_s;
        placement += t.placement_s;
      }
      setup_s.push_back(setup);
      placement_s.push_back(placement);
      build_s.push_back(std::max(0.0, setup - placement));
    }
    unpin(cpus_);
  }

  // The campaign's scenario layer: placement and build of the in-process
  // cells of its traced pass.
  static constexpr unsigned kCampaignScenarioReps = 5;
  void campaign_scenario() {
    for (unsigned i = 0; i < kCampaignScenarioReps; ++i) {
      pin_to(cpus_, i);
      for (const std::size_t idx : wl.traced_cells) {
        const CellSetup t = time_cell_setup(wl.cells[idx], i);
        placement_s.push_back(t.placement_s);
        build_s.push_back(std::max(0.0, t.setup_s - t.placement_s));
      }
    }
    unpin(cpus_);
  }

  // --- one pass over (some of) the workload's cells --------------------------
  std::vector<CellResult> run_pass(const std::vector<std::size_t>& which, bool traced,
                                   LayerInputs* li) {
    std::vector<CellResult> out;
    std::optional<Profiler> prof;
    if (traced) prof.emplace();
    for (const std::size_t idx : which) {
      const ExperimentConfig& c = wl.cells[idx];
      ++cells_run;
      try {
        if (wl.sharded) {
          ShardedWorld w{network_config(c), traced};
          out.push_back(run_sharded_world(w, c));
          if (traced) collect_shard_layers(w, out.back(), *li);
        } else if (traced) {
          TracedWorld w{network_config(c)};
          out.push_back(run_serial(parts_of(w), c, &*prof));
          li->medium_tx_started += w.medium->transmissions_started();
          li->medium_rx_delivered += w.medium->counters().rx_delivered;
          li->thread_wall_ns += out.back().wall_s * 1e9;
          li->root_wall_ns += out.back().wall_s * 1e9;
        } else {
          Network net{network_config(c)};
          out.push_back(run_serial(parts_of(net), c, nullptr));
        }
      } catch (const std::exception& e) {
        failures.add(c.label() + ": " + e.what());
        out.push_back(CellResult{});
      }
      if (!out.back().ledger.conservation_ok()) {
        failures.add(c.label() + ": loss ledger not conserved");
      }
    }
    if (traced && !wl.sharded) li->add_rooted(*prof);
    return out;
  }

  void collect_shard_layers(ShardedWorld& w, const CellResult& r, LayerInputs& li) {
    li.add_rooted(w.trace->main_profiler);
    li.root_wall_ns += r.wall_s * 1e9;
    for (const Profiler& p : w.trace->worker_profilers) li.add_worker(p, r.wall_s * 1e9);
    li.thread_wall_ns +=
        r.wall_s * 1e9 * static_cast<double>(1 + w.trace->worker_profilers.size());
    for (std::size_t s = 0; s < w.net->shard_count(); ++s) {
      li.medium_tx_started += w.net->shard(s).medium->transmissions_started();
      li.medium_rx_delivered += w.net->shard(s).medium->counters().rx_delivered;
    }
    const WindowTelemetry& t = *w.net->window_telemetry();
    for (unsigned k = 0; k < t.workers(); ++k) {
      li.worker_stall_ns += static_cast<double>(t.worker_stall_ns(k));
      li.worker_ns += static_cast<double>(t.worker_execute_ns(k) + t.worker_stall_ns(k) +
                                          t.worker_wait_ns());
    }
    li.imbalance_events.push_back(t.imbalance_events());
    li.speedup_bound_events.push_back(t.speedup_bound_events());
  }

  // --- campaign pass: fresh store, then the same spec fully cached ----------
  struct CampaignPass {
    std::vector<CellResult> cells;  // from the stored records
    double fresh_wall_s{0.0};
    double cached_wall_s{0.0};
    std::vector<double> cell_wall_s;  // coordinator-observed
    std::uint64_t events{0};
    std::vector<std::uint64_t> xsums;
  };
  unsigned campaign_passes_{0};
  CampaignPass campaign_pass() {
    CampaignPass p;
    const std::vector<CampaignCell> cells = expand_cells(wl.spec, build_revision());
    CampaignOptions opt;
    opt.workers = campaign_workers;
    opt.store_dir = work_dir + "/store_" + std::to_string(campaign_passes_++);
    opt.out_dir = work_dir + "/campaign_out";
    opt.worker_binary = worker_bin;
    std::filesystem::remove_all(opt.store_dir);
    cells_run += cells.size();

    auto t0 = Clock::now();
    const CampaignResult fresh = run_campaign(cells, opt);
    p.fresh_wall_s = seconds_since(t0);
    t0 = Clock::now();
    const CampaignResult cached = run_campaign(cells, opt);
    p.cached_wall_s = seconds_since(t0);

    if (!fresh.error.empty()) failures.add("campaign: " + fresh.error);
    if (fresh.failed != 0 || fresh.ran != cells.size()) {
      failures.add("campaign: fresh pass ran " + std::to_string(fresh.ran) + " failed " +
                   std::to_string(fresh.failed) + " of " + std::to_string(cells.size()));
    }
    if (cached.cached != cells.size() || cached.ran != 0 || cached.events != fresh.events ||
        cached.ledger.delivered != fresh.ledger.delivered ||
        cached.ledger.expected != fresh.ledger.expected) {
      failures.add("campaign: cached pass does not reproduce the fresh pass");
    }
    p.events = fresh.events;
    const ResultStore store{opt.store_dir};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellOutcome& o = i < fresh.cells.size() ? fresh.cells[i] : CellOutcome{};
      p.cell_wall_s.push_back(o.wall_s);
      CellRecord rec;
      std::string err;
      CellResult r;
      if (!store.load(cells[i].key, rec, &err)) {
        failures.add(cells[i].label + ": no stored record (" + err + ")");
      } else {
        r = from_experiment(rec.result);
        if (!o.conservation_ok || !r.ledger.conservation_ok()) {
          failures.add(cells[i].label + ": loss ledger not conserved");
        }
        if (r.events != o.events) failures.add(cells[i].label + ": record/outcome event skew");
      }
      p.cells.push_back(r);
      p.xsums.push_back(rec.result.trace_digest_xsum);
    }
    std::filesystem::remove_all(opt.store_dir);
    return p;
  }

  // --- timed phase --------------------------------------------------------
  // Repeats passes over the same cells, a fixed number of times per
  // workload (Workload::nominal_pass_s).  Host speed on shared machines drifts
  // in bursts of seconds, so each reported time is a lower envelope over the
  // repeats: every slice of deterministic work (CellResult::chunk_s) counts
  // at its fastest repeat.  A change to the work itself moves every slice;
  // a transient slowdown of the host moves only some repeats of it.
  //
  // The slowdowns are independent per CPU, so single-threaded passes rotate
  // over the CPUs the process may use: repeats of a slice then sample
  // different CPUs rather than one CPU's slow spell.
  [[nodiscard]] std::size_t repeats() const {
    return static_cast<std::size_t>(std::max(1.0, std::round(seconds / wl.nominal_pass_s)));
  }
  void timed_phase() {
    std::vector<std::vector<double>> best_chunks(wl.cells.size());
    const bool rotate = !wl.sharded && !wl.campaign;
    const std::size_t n_passes = repeats();
    const auto setup_per_round =
        static_cast<unsigned>((wl.setup_reps + n_passes - 1) / n_passes);
    while (passes.size() < n_passes) {
      setup_round(static_cast<unsigned>(passes.size()) * setup_per_round, setup_per_round);
      double this_pass = 0.0;
      if (wl.campaign) {
        CampaignPass p = campaign_pass();
        this_pass = p.fresh_wall_s + p.cached_wall_s;
        campaign_cell_s_.insert(campaign_cell_s_.end(), p.cell_wall_s.begin(), p.cell_wall_s.end());
        campaign_cached_s_.push_back(p.cached_wall_s);
        campaign_fresh_s_.push_back(p.fresh_wall_s);
        if (campaign_xsums_.empty()) campaign_xsums_ = p.xsums;
        passes.push_back(std::move(p.cells));
      } else {
        if (rotate) pin_to(cpus_, passes.size());
        std::vector<CellResult> r = run_pass(all_cells_, false, nullptr);
        for (std::size_t i = 0; i < r.size(); ++i) {
          this_pass += r[i].wall_s;
          std::vector<double>& best = best_chunks[i];
          if (best.empty()) {
            best = r[i].chunk_s;
          } else if (best.size() != r[i].chunk_s.size()) {
            failures.add(wl.cells[i].label() + ": repeats cut into different slices");
          } else {
            for (std::size_t k = 0; k < best.size(); ++k) {
              best[k] = std::min(best[k], r[i].chunk_s[k]);
            }
          }
        }
        passes.push_back(std::move(r));
      }
      pass_wall_s.push_back(this_pass);
    }
    if (rotate) unpin(cpus_);
    // Every pass runs the same cells: outcomes must repeat exactly.
    for (std::size_t p = 1; p < passes.size(); ++p) {
      for (std::size_t i = 0; i < passes[p].size(); ++i) {
        if (!same_outcome(passes[p][i], passes[0][i])) {
          failures.add(wl.cells[i].label() + ": pass " + std::to_string(p) +
                       " differs from pass 0");
        }
      }
    }

    std::uint64_t events = 0;
    for (const CellResult& c : passes.front()) events += c.events;
    const double ncells = static_cast<double>(wl.cells.size());
    std::vector<double> per_cell;  // each cell's fastest wall
    double pass_wall = 0.0;        // the pass's lower envelope
    double cell_phase_wall = 0.0;  // the phase cells_per_s counts
    if (wl.campaign) {
      const std::size_t n = wl.cells.size();
      for (std::size_t i = 0; i < n; ++i) {
        double m = campaign_cell_s_[i];
        for (std::size_t k = i; k < campaign_cell_s_.size(); k += n) m = std::min(m, campaign_cell_s_[k]);
        per_cell.push_back(m);
      }
      pass_wall = *std::min_element(pass_wall_s.begin(), pass_wall_s.end());
      cell_phase_wall = *std::min_element(campaign_fresh_s_.begin(), campaign_fresh_s_.end());
    } else {
      for (const std::vector<double>& b : best_chunks) {
        double sum = 0.0;
        for (const double x : b) sum += x;
        per_cell.push_back(sum);
        pass_wall += sum;
      }
      cell_phase_wall = pass_wall;
    }
    e2e_wall_s = pass_wall;
    e2e_events_per_s = static_cast<double>(events) / cell_phase_wall;
    e2e_cells_per_s = ncells / cell_phase_wall;
    std::sort(per_cell.begin(), per_cell.end());
    const auto rank = [&per_cell](double pct) {
      const auto k = static_cast<std::size_t>(
          std::ceil(pct / 100.0 * static_cast<double>(per_cell.size())));
      return per_cell[std::max<std::size_t>(k, 1) - 1];
    };
    e2e_cell_p50_s = rank(50.0);
    e2e_cell_p80_s = rank(80.0);
  }
  double e2e_wall_s{0.0};
  double e2e_events_per_s{0.0};
  double e2e_cells_per_s{0.0};
  double e2e_cell_p50_s{0.0};
  double e2e_cell_p80_s{0.0};
  std::vector<double> campaign_cell_s_;  // coordinator-observed, all passes
  std::vector<double> campaign_cached_s_;
  std::vector<double> campaign_fresh_s_;
  std::vector<std::uint64_t> campaign_xsums_;

  // --- check pass: the program's own run_experiment, with digests -----------
  // Runs before the timed phase, so it also warms the allocator and caches
  // the timed passes would otherwise pay for on their first repeat.
  std::vector<std::optional<CellResult>> reference_;
  std::vector<std::uint64_t> reference_xsum_;
  void check_pass() {
    if (wl.campaign) return;  // workers run run_experiment with digests themselves
    for (const ExperimentConfig& cell : wl.cells) {
      ExperimentConfig c = cell;
      c.trace_digest = true;
      reference_.emplace_back();
      reference_xsum_.push_back(0);
      ++cells_run;
      try {
        const ExperimentResult ref = run_experiment(c);
        const CellResult r = from_experiment(ref);
        if (!ref.ledger.conservation_ok()) failures.add(c.label() + ": check ledger");
        if (wl.sharded) {
          ExperimentConfig sc = c;
          sc.shards = 1;
          ++cells_run;
          const ExperimentResult serial = run_experiment(sc);
          const CellResult s = from_experiment(serial);
          const bool exact = s.delivered == r.delivered && s.expected == r.expected &&
                             s.ledger.delivered == r.ledger.delivered &&
                             s.ledger.expected == r.ledger.expected &&
                             s.ledger.dropped == r.ledger.dropped &&
                             serial.trace_digest_xsum == ref.trace_digest_xsum;
          if (!exact) {
            failures.add(c.label() + ": sharded (" + describe(r) + ") differs from serial (" +
                         describe(s) + ")");
          }
          if (r.clamped != 0) failures.add(c.label() + ": clamped receptions (check pass)");
        }
        reference_.back() = r;
        reference_xsum_.back() = ref.trace_digest_xsum;
      } catch (const std::exception& e) {
        failures.add(c.label() + ": check pass: " + e.what());
      }
    }
  }

  // The timed outcomes against the check pass; builds the fingerprint.
  void compare_with_reference() {
    const std::vector<CellResult>& timed = passes.front();
    for (std::size_t i = 0; i < wl.cells.size(); ++i) {
      if (wl.campaign) {
        fingerprint.add(timed[i], campaign_xsums_[i]);
        continue;
      }
      if (timed[i].clamped != 0) {
        failures.add(wl.cells[i].label() + ": clamped receptions on the exact engine");
      }
      if (!reference_[i].has_value()) continue;  // already counted as failed
      if (!same_outcome(timed[i], *reference_[i])) {
        failures.add(wl.cells[i].label() + ": timed run (" + describe(timed[i]) +
                     ") differs from run_experiment (" + describe(*reference_[i]) + ")");
      }
      fingerprint.add(timed[i], reference_xsum_[i]);
    }
  }

  // --- traced pass ---------------------------------------------------------
  void traced_pass() {
    LayerInputs li;
    std::vector<CellResult> untraced_ref;
    double untraced_wall = 0.0;
    if (wl.campaign) {
      // Workers are other processes: attribute layers on an in-process run
      // of the same cells, untraced then traced.
      untraced_ref = run_pass(wl.traced_cells, false, nullptr);
      for (std::size_t k = 0; k < untraced_ref.size(); ++k) {
        const std::size_t i = wl.traced_cells[k];
        untraced_wall += untraced_ref[k].wall_s;
        if (!same_outcome(untraced_ref[k], passes.front()[i])) {
          failures.add(wl.cells[i].label() + ": in-process run differs from campaign worker");
        }
      }
    } else {
      untraced_ref = passes.front();
      untraced_wall = median(pass_wall_s);
    }
    const std::vector<CellResult> traced = run_pass(wl.traced_cells, true, &li);
    double traced_wall = 0.0;
    bool same = traced.size() == untraced_ref.size();
    for (std::size_t i = 0; same && i < traced.size(); ++i) {
      traced_wall += traced[i].wall_s;
      li.events += traced[i].events;
      same = same_outcome(traced[i], untraced_ref[i]);
    }

    const SectionTotals& st = li.sections;
    std::map<std::string, double> layer_self;
    double accounted = 0.0;  // self time inside some layer span
    for (const auto& [name, stats] : st.by_name) {
      if (name == "bench.run") continue;  // the root's self time is residual
      const auto it = layer_of_section().find(name);
      const std::string layer = it == layer_of_section().end() ? "other" : it->second;
      layer_self[layer] += static_cast<double>(stats.self_ns);
      accounted += static_cast<double>(stats.self_ns);
    }
    const double denom = li.thread_wall_ns;
    const double residual = denom - accounted;
    const auto share = [denom](double ns) { return denom > 0.0 ? ns / denom : 0.0; };
    // Wrapper coverage: the driver's spans saw every call the program's own
    // counters recorded.
    const std::uint64_t tx_calls = st.calls("phy.begin_transmission");
    const std::uint64_t rx_calls = st.calls("bench.mac.rx");
    const bool coverage = tx_calls == li.medium_tx_started && rx_calls == li.medium_rx_delivered &&
                          (wl.sharded || st.calls("bench.phy.tx") == tx_calls);
    // Accounting: every span nests in the root (Σ self = root total, exact
    // in integer nanoseconds), the root fits in the driver-clocked wall,
    // and pool threads' self times fit in theirs.  Then the layer self
    // times plus the residual are the whole of the profiled threads' wall,
    // with the residual non-negative.  Self time in a program scope the
    // driver does not map to a layer ("other") counts toward that total
    // but toward no printed share.
    const bool nested = li.root_total_ns > 0.0 && li.rooted_self_ns == li.root_total_ns;
    const bool root_fits = li.root_total_ns <= li.root_wall_ns;
    const bool accounted_ok = nested && root_fits && li.workers_fit && residual >= 0.0;
    observer.boolean("ok", same && coverage && accounted_ok);
    observer.boolean("outcomes_equal", same);
    observer.boolean("wrapper_coverage", coverage);
    observer.boolean("spans_nest_in_root", nested);
    observer.boolean("root_within_wall", root_fits);
    observer.boolean("pool_threads_within_wall", li.workers_fit);
    observer.num("root_wall_share", li.root_wall_ns > 0.0 ? li.root_total_ns / li.root_wall_ns : 0.0);
    observer.num("residual_share", share(residual));
    if (!same) failures.add("observer effect: traced run changed the simulated outcome");
    if (!coverage) failures.add("observer effect: layer spans missed calls");
    if (!accounted_ok) failures.add("observer effect: span times do not account for traced wall");

    const double tx_self = st.self_ns("bench.phy.tx") + st.self_ns("bench.phy.abort") +
                           st.self_ns("phy.begin_transmission");
    const double net_self = st.self_ns("bench.net.deliver") + st.self_ns("app.mac_deliver");
    Json& j = layers;
    j.u64("sim.events", li.events);
    j.num("sim.residual_share", share(residual));
    j.u64("phy.tx.calls", tx_calls);
    j.num("phy.tx.self_ns_per_call",
          per_call(tx_self, tx_calls + st.calls("bench.phy.abort")));
    j.num("phy.signal_end.ns_per_call",
          per_call(st.self_ns("phy.signal_end"), st.calls("phy.signal_end")));
    j.u64("phy.tone.set_tone.calls", st.calls("tone.set_tone"));
    j.num("phy.tone.set_tone.ns_per_call",
          per_call(st.self_ns("tone.set_tone"), st.calls("tone.set_tone")));
    j.num("phy.share", share(layer_self["phy"]));
    j.u64("mac.rx.calls", rx_calls);
    j.num("mac.rx.self_ns_per_call", per_call(st.self_ns("bench.mac.rx"), rx_calls));
    j.num("mac.share", share(layer_self["mac"]));
    j.u64("net.deliver.calls", st.calls("bench.net.deliver"));
    j.num("net.deliver.self_ns_per_call", per_call(net_self, st.calls("bench.net.deliver")));
    j.num("net.share", share(layer_self["net"]));
    j.num("scenario.placement_s", median(placement_s));
    j.num("scenario.build_s", median(build_s));
    CellResult shard;  // totals over the traced cells
    for (const CellResult& c : traced) {
      shard.windows += c.windows;
      shard.messages += c.messages;
      shard.mirrors += c.mirrors;
      shard.clamped += c.clamped;
    }
    const std::uint64_t windows = shard.windows;
    j.u64("shard.windows", windows);
    // Barrier cost on the untraced engine (the window count is deterministic).
    j.num("shard.ns_per_window",
          windows == 0 ? 0.0 : e2e_wall_s * 1e9 / static_cast<double>(windows));
    j.num("shard.stall_share", li.worker_ns > 0.0 ? li.worker_stall_ns / li.worker_ns : 0.0);
    j.u64("shard.messages", shard.messages);
    j.u64("shard.mirrors", shard.mirrors);
    j.u64("shard.clamped", shard.clamped);
    j.num("shard.imbalance_events", median(li.imbalance_events));
    j.num("shard.speedup_bound_events", median(li.speedup_bound_events));
    campaign_layers(j, untraced_ref);
    j.num("trace.overhead_ratio", untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0);
  }

  void campaign_layers(Json& j, const std::vector<CellResult>& in_process) {
    if (!wl.campaign) {
      j.num("campaign.cell_overhead_ms", 0.0);
      j.num("campaign.worker_busy_share", 0.0);
      j.num("campaign.cached_ms_per_cell", 0.0);
      return;
    }
    // Coordinator-observed wall minus the same cell's simulation wall run
    // in-process (fork/exec, frame streaming, store write), per cell.
    std::vector<double> overhead;
    const std::size_t n = wl.cells.size();
    for (std::size_t k = 0; k < wl.traced_cells.size(); ++k) {
      for (std::size_t p = wl.traced_cells[k]; p < campaign_cell_s_.size(); p += n) {
        overhead.push_back((campaign_cell_s_[p] - in_process[k].wall_s) * 1e3);
      }
    }
    double busy = 0.0;
    for (const double w : campaign_cell_s_) busy += w;
    double fresh = 0.0;
    for (const double w : campaign_fresh_s_) fresh += w;
    j.num("campaign.cell_overhead_ms", median(overhead));
    j.num("campaign.worker_busy_share",
          busy / (fresh * static_cast<double>(campaign_workers)));
    j.num("campaign.cached_ms_per_cell",
          median(campaign_cached_s_) * 1e3 / static_cast<double>(n));
  }

  static double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  }
};

std::uint64_t peak_rss_kb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--worker-bin PATH --work-dir DIR [--scale full|tiny]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string worker_bin;
  std::string work_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = v == "1";
    } else if (a == "--scale") {
      tiny = v == "tiny";
    } else if (a == "--worker-bin") {
      worker_bin = v;
    } else if (a == "--work-dir") {
      work_dir = v;
    } else {
      usage(argv[0]);
    }
  }
  if (workload.empty() || work_dir.empty() || worker_bin.empty()) usage(argv[0]);

  Runner r;
  try {
    r.wl = make_workload(workload, seed, tiny);
    for (std::size_t i = 0; i < r.wl.cells.size(); ++i) r.all_cells_.push_back(i);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  r.seconds = seconds;
  r.worker_bin = worker_bin;
  r.work_dir = work_dir;
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  // One CPU stays free for the coordinator and the driver.
  r.campaign_workers = static_cast<unsigned>(std::clamp<long>(ncpu - 1, 1, 4));
  std::filesystem::create_directories(work_dir);

  if (r.wl.campaign) r.campaign_scenario();
  r.check_pass();
  r.timed_phase();
  r.compare_with_reference();
  if (trace) r.traced_pass();

  const std::uint64_t self_kb = peak_rss_kb(RUSAGE_SELF);
  const std::uint64_t child_kb = peak_rss_kb(RUSAGE_CHILDREN);
  // Campaign: the coordinator plus `workers` concurrent workers, each
  // bounded by the largest worker seen.
  const std::uint64_t peak_kb =
      r.wl.campaign ? self_kb + child_kb * r.campaign_workers : self_kb;

  Json out;
  out.str("workload", workload);
  out.u64("seed", seed);
  out.boolean("trace", trace);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.boolean("lto", PERFBENCH_LTO != 0);
#ifdef NDEBUG
  out.boolean("ndebug", true);
#else
  out.boolean("ndebug", false);
#endif
  out.str("revision", build_revision());
  out.num("nproc", static_cast<double>(ncpu));
  out.num("l1d_cache_kb", static_cast<double>(sysconf(_SC_LEVEL1_DCACHE_SIZE)) / 1024.0);
  out.num("l2_cache_kb", static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)) / 1024.0);
  out.num("l3_cache_kb", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1024.0);
  out.u64("campaign_workers", r.wl.campaign ? r.campaign_workers : 0);
  out.u64("cells_per_pass", r.wl.cells.size());
  out.u64("cells_run", r.cells_run);
  out.u64("cells_failed", r.failures.count);
  {
    std::string notes = "[";
    for (std::size_t i = 0; i < r.failures.notes.size(); ++i) {
      Json n;
      n.str("why", r.failures.notes[i]);
      notes += (i == 0 ? "" : ",") + n.done();
    }
    out.raw("failures", notes + "]");
  }
  out.list("setup_s", r.setup_s);
  out.list("pass_wall_s", r.pass_wall_s);
  {
    Json e;
    e.num("wall_s", r.e2e_wall_s);
    e.num("events_per_s", r.e2e_events_per_s);
    e.num("setup_s", Runner::median(r.setup_s));
    e.num("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0);
    e.num("cells_per_s", r.e2e_cells_per_s);
    e.num("cell_p50_s", r.e2e_cell_p50_s);
    e.num("cell_p80_s", r.e2e_cell_p80_s);
    out.raw("end_to_end", e.done());
  }
  out.raw("fingerprint", r.fingerprint.json());
  if (trace) {
    out.raw("layers", r.layers.done());
    out.raw("observer", r.observer.done());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}
