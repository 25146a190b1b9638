// Narrow-bandwidth busy-tone channel (one instance per tone: RBT, ABT).
//
// A tone is a sine on its own out-of-band channel: it carries no bits, never
// collides, and can only be sensed present / not present (paper §3.1).  The
// channel keeps a short on/off interval history per source so protocol
// timers can ask, after the fact, "was a foreign tone present at me for at
// least lambda within this window?" — exactly the semantics of the paper's
// T_wf_rbt and T_wf_abt checks.
//
// Instantaneous presence (sensed_at, sampled once per backoff slot) walks
// the short *sounding set*: the sources whose tone is on or dropped less
// than one full-range propagation delay ago — no other source can be heard
// now.  Window queries and the edge fan-out look back further, so they go
// through a uniform-grid SpatialIndex and iterate only the sources within
// range of the listener.  Edge-subscriber notifications are scheduled in
// ascending NodeId order so equal-latency callbacks fire in a
// platform-independent order.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mobility/mobility.hpp"
#include "mobility/spatial_index.hpp"
#include "phy/node_soa.hpp"
#include "phy/params.hpp"
#include "sim/ids.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

class ToneChannel {
public:
  ToneChannel(Scheduler& scheduler, const PhyParams& params, std::string name,
              Tracer* tracer = nullptr);
  ToneChannel(const ToneChannel&) = delete;
  ToneChannel& operator=(const ToneChannel&) = delete;

  void attach(NodeId id, MobilityModel& mobility);
  void detach(NodeId id) noexcept;

  // Turn this node's tone on/off.  Idempotent.
  void set_tone(NodeId id, bool on);
  [[nodiscard]] bool my_tone_on(NodeId id) const noexcept;

  // Cross-shard seam (scenario/sharded_network.*): invoked on every local
  // tone transition (never on set_remote_tone), so the engine can forward
  // the edge to neighbouring shards as a typed message.
  using EdgeHook = std::function<void(NodeId source, bool on)>;
  void set_edge_hook(EdgeHook hook) { edge_hook_ = std::move(hook); }

  // Record a tone edge of a source that lives in another shard (attached
  // here as a pinned phantom).  `when` is the source shard's emission time
  // and may precede now() by up to one lookahead window: the history
  // interval is backdated so sensed_at / detected_in_window keep exact
  // semantics, while the edge-subscriber fan-out clamps to the future.
  // Raise/on-time metrics and trace records stay with the source shard.
  void set_remote_tone(NodeId id, bool on, SimTime when);

  // Scripted-PHY fault hook (tests): while suppressed, a source's tone is
  // corrupted on the air — invisible to sensing, window detection, and edge
  // subscribers — although the source itself still believes it is on.
  // Evaluated at query/emission time, so toggling it at a chosen instant
  // corrupts exactly the remainder of the tone.
  void set_suppressed(NodeId id, bool suppressed);
  [[nodiscard]] bool suppressed(NodeId id) const noexcept;

  // Instantaneous presence: is a foreign tone's signal on the air at
  // `listener` right now (leading edge arrived, trailing edge not yet)?
  [[nodiscard]] bool sensed_at(NodeId listener) const;

  // Detection semantics: was a foreign tone present at `listener` for at
  // least the CCA time (lambda) within [from, to]?
  [[nodiscard]] bool detected_in_window(NodeId listener, SimTime from, SimTime to) const;

  // Leading-edge subscription: `cb(source)` fires lambda after a foreign
  // tone's leading edge reaches the subscribed listener (detection latency —
  // this is what makes MRTS abortion rare, §3.3.2 note 3).
  using EdgeCallback = std::function<void(NodeId source)>;
  void subscribe_edges(NodeId listener, EdgeCallback cb);
  void unsubscribe_edges(NodeId listener) noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const PhyParams& params() const noexcept { return params_; }

  // Metrics: lifetime raise count and summed tone on-time (across all
  // sources; still-on tones contribute when they drop).  Divide on-time by
  // (sim duration × node count) for the duty cycle.
  [[nodiscard]] std::uint64_t raises() const noexcept { return raises_; }
  [[nodiscard]] std::uint64_t suppressed_raises() const noexcept { return suppressed_raises_; }
  [[nodiscard]] SimTime on_time_total() const noexcept { return on_time_total_; }

  // Retained history intervals for a source (diagnostics/tests: stale
  // history is pruned on queries as well as on tone transitions).
  [[nodiscard]] std::size_t history_size(NodeId id) const noexcept;

private:
  struct Interval {
    SimTime on;
    SimTime off;  // SimTime::max() while still on
  };
  struct Source {
    MobilityModel* mobility;
    bool on{false};
    bool suppressed{false};  // scripted corruption: tone inaudible while set
    mutable bool sounding{false};  // listed in sounding_
    // mutable: const queries prune expired intervals as they walk sources,
    // so an idle source's history cannot linger past kHistoryKeep.
    mutable std::deque<Interval> history;
  };

  void prune(const Source& s) const;
  // Enter `s` in the sounding set on a raise (no-op if already listed).
  void start_sounding(NodeId id, Source& s);
  // Bring the SoA mirror up to date with the index and re-seed the per-lane
  // tone flags after a rebuild.  kFlagActive means "this source could be
  // audible": tone on now, or history not yet pruned empty.  The bit decays
  // lazily — window queries clear it when they find a pruned-empty history —
  // so the SoA sweeps prefilter silent sources without walking their deques.
  void sync_soa(SimTime t) const;
  [[nodiscard]] static std::uint8_t source_flags(const Source& s) noexcept {
    std::uint8_t f = 0;
    if (s.on || !s.history.empty()) f |= NodeSoa::kFlagActive;
    if (s.suppressed) f |= NodeSoa::kFlagSuppressed;
    return f;
  }

  Scheduler& scheduler_;
  const PhyParams& params_;
  std::string name_;
  std::uint32_t tone_kind_;  // kToneKind* derived from name, for trace records
  Tracer* tracer_;
  // Shared tail of set_tone / set_remote_tone: notify in-range edge
  // subscribers of `id`'s leading edge emitted at `when` (never earlier
  // than now for the scheduler).
  void fan_out_edge(NodeId id, const Source& s, SimTime when);

  std::unordered_map<NodeId, Source> sources_;
  std::unordered_map<NodeId, EdgeCallback> edge_subs_;
  // Sources that may still be heard somewhere: tone on, or dropped less than
  // propagation_delay(range_m) ago.  Entered on raises, left on detach;
  // sensed_at drops the stale entries it walks over.  Unordered.
  mutable std::vector<std::pair<NodeId, Source*>> sounding_;
  EdgeHook edge_hook_;
  mutable SpatialIndex index_;
  mutable NodeSoa soa_;                             // packed mirror of index_
  std::vector<std::pair<NodeId, double>> scratch_;  // set_tone edge fan-out
  std::uint64_t raises_{0};
  std::uint64_t suppressed_raises_{0};
  SimTime on_time_total_{SimTime::zero()};
};

}  // namespace rmacsim
