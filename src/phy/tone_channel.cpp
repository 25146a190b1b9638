#include "phy/tone_channel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include "metrics/profiler.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {
// History older than this is irrelevant to any protocol timer (longest
// window is the ABT scan of a 20-receiver MRTS: 20 * 17 us = 340 us).
constexpr SimTime kHistoryKeep = SimTime::ms(10);
}  // namespace

ToneChannel::ToneChannel(Scheduler& scheduler, const PhyParams& params, std::string name,
                         Tracer* tracer)
    : scheduler_{scheduler},
      params_{params},
      name_{std::move(name)},
      tone_kind_{name_ == "RBT" ? kToneKindRbt
                                : name_ == "ABT" ? kToneKindAbt : kToneKindOther},
      tracer_{tracer},
      index_{params.range_m} {}

void ToneChannel::attach(NodeId id, MobilityModel& mobility) {
  const auto [it, inserted] = sources_.emplace(id, Source{&mobility, false, false, false, {}});
  if (!inserted) it->second.mobility = &mobility;
  // unordered_map nodes are pointer-stable, so the payload stays valid.
  index_.insert(id, mobility, &it->second);
}

void ToneChannel::detach(NodeId id) noexcept {
  const auto it = sources_.find(id);
  if (it != sources_.end() && it->second.sounding) {
    std::erase_if(sounding_, [id](const auto& e) { return e.first == id; });
  }
  index_.remove(id);
  sources_.erase(id);
  edge_subs_.erase(id);
}

void ToneChannel::prune(const Source& s) const {
  const SimTime cutoff = scheduler_.now() - kHistoryKeep;
  while (!s.history.empty() && s.history.front().off < cutoff) s.history.pop_front();
}

void ToneChannel::start_sounding(NodeId id, Source& s) {
  if (s.sounding) return;
  s.sounding = true;
  sounding_.emplace_back(id, &s);
}

void ToneChannel::sync_soa(SimTime t) const {
  index_.prepare(t);
  if (soa_.sync(index_)) {
    // Rebuild wiped the owner bits; re-seed from the authoritative sources.
    std::uint8_t* fl = soa_.flags();
    for (std::uint32_t k = 0; k < soa_.size(); ++k) {
      fl[k] |= source_flags(*static_cast<const Source*>(soa_.payloads()[k]));
    }
  }
}

std::size_t ToneChannel::history_size(NodeId id) const noexcept {
  const auto it = sources_.find(id);
  return it == sources_.end() ? 0 : it->second.history.size();
}

void ToneChannel::set_tone(NodeId id, bool on) {
  RMAC_PROF_SCOPE("tone.set_tone");
  auto it = sources_.find(id);
  assert(it != sources_.end() && "set_tone on unattached node");
  Source& s = it->second;
  if (s.on == on) return;
  const SimTime now = scheduler_.now();
  s.on = on;
  if (on) {
    ++raises_;
    if (s.suppressed) ++suppressed_raises_;
    s.history.push_back(Interval{now, SimTime::max()});
    prune(s);
    start_sounding(id, s);
    soa_.set_flag(id, NodeSoa::kFlagActive, true);
    if (!edge_subs_.empty() && !s.suppressed) fan_out_edge(id, s, now);
  } else {
    assert(!s.history.empty());
    on_time_total_ += now - s.history.back().on;
    s.history.back().off = now;
    prune(s);
  }
  if (tracer_ != nullptr && tracer_->wants(TraceCategory::kTone)) {
    TraceRecord r{now, TraceCategory::kTone, id, {}};
    r.event = on ? TraceEvent::kToneOn : TraceEvent::kToneOff;
    r.aux = tone_kind_;
    r.flag = s.suppressed;
    tracer_->emit(std::move(r), [&] { return cat(name_, on ? " on" : " off"); });
  }
  if (edge_hook_) edge_hook_(id, on);
}

void ToneChannel::fan_out_edge(NodeId id, const Source& s, SimTime when) {
  // Notify in-range edge subscribers after propagation plus the lambda
  // detection latency.  Geometry is evaluated at `when` — the instant the
  // tone actually flipped — not now(): a remote edge replayed by the sharded
  // engine may be up to one window old, and using the emission-time positions
  // keeps the receiving shard's fan-out identical to the serial engine's
  // (local edges have when == now, so the serial path is unchanged).  The SoA
  // sweep's visit order is unspecified, so collect and sort by NodeId:
  // equal-latency callbacks must fire in a deterministic,
  // platform-independent order.
  const SimTime now = scheduler_.now();
  const Vec2 src_pos = s.mobility->position(when);
  scratch_.clear();
  sync_soa(when);
  soa_.for_each_in_disk(index_, src_pos, params_.range_m, when,
                        [&](std::uint32_t k, double d2) {
                          const NodeId nid = soa_.ids()[k];
                          if (nid != id) scratch_.emplace_back(nid, d2);
                        });
  std::sort(scratch_.begin(), scratch_.end());
  for (const auto& [listener, d2] : scratch_) {
    const auto sub = edge_subs_.find(listener);
    if (sub == edge_subs_.end()) continue;
    const SimTime at = when + params_.propagation_delay(std::sqrt(d2)) + params_.cca;
    // Copy the callback: the subscription may change before delivery.
    scheduler_.schedule_at(std::max(at, now), [cb = sub->second, id] { cb(id); });
  }
}

void ToneChannel::set_remote_tone(NodeId id, bool on, SimTime when) {
  auto it = sources_.find(id);
  assert(it != sources_.end() && "set_remote_tone on unattached phantom");
  Source& s = it->second;
  if (s.on == on) return;
  s.on = on;
  if (on) {
    s.history.push_back(Interval{when, SimTime::max()});
    prune(s);
    start_sounding(id, s);
    soa_.set_flag(id, NodeSoa::kFlagActive, true);
    if (!edge_subs_.empty() && !s.suppressed) fan_out_edge(id, s, when);
  } else {
    if (s.history.empty()) return;  // raise predates the phantom's attach
    s.history.back().off = when;
    prune(s);
  }
}

void ToneChannel::set_suppressed(NodeId id, bool suppressed) {
  auto it = sources_.find(id);
  assert(it != sources_.end() && "set_suppressed on unattached node");
  it->second.suppressed = suppressed;
  soa_.set_flag(id, NodeSoa::kFlagSuppressed, suppressed);
}

bool ToneChannel::suppressed(NodeId id) const noexcept {
  const auto it = sources_.find(id);
  return it != sources_.end() && it->second.suppressed;
}

bool ToneChannel::my_tone_on(NodeId id) const noexcept {
  const auto it = sources_.find(id);
  return it != sources_.end() && it->second.on;
}

bool ToneChannel::sensed_at(NodeId listener) const {
  if (sounding_.empty()) return false;  // most backoff slots: nothing to hear
  const auto lit = sources_.find(listener);
  if (lit == sources_.end()) return false;
  const SimTime now = scheduler_.now();
  // A trailing edge emitted at or before `quiet` has passed every listener
  // in range, so a source off since then cannot be heard again until it
  // raises (which lists it anew).
  const SimTime quiet = now - params_.propagation_delay(params_.range_m);
  const double r2 = params_.range_m * params_.range_m;
  const Vec2 at = lit->second.mobility->position(now);
  for (std::size_t i = 0; i < sounding_.size();) {
    const auto [id, src] = sounding_[i];
    const Source& s = *src;
    if (!s.on && (s.history.empty() || s.history.back().off <= quiet)) {
      s.sounding = false;
      prune(s);
      sounding_[i] = sounding_.back();
      sounding_.pop_back();
      continue;
    }
    ++i;
    if (id == listener || s.suppressed) continue;
    // The same exact disk test and distance as the SoA sweep's.
    const double d2 = distance_sq(at, s.mobility->position(now));
    if (d2 > r2) continue;
    // The signal present at the listener now left the source `prop` ago.
    const SimTime src_time = now - params_.propagation_delay(std::sqrt(d2));
    for (const Interval& iv : s.history) {
      if (iv.on <= src_time && src_time < iv.off) return true;
    }
  }
  return false;
}

bool ToneChannel::detected_in_window(NodeId listener, SimTime from, SimTime to) const {
  const auto lit = sources_.find(listener);
  if (lit == sources_.end()) return false;
  const SimTime now = scheduler_.now();
  const Vec2 at = lit->second.mobility->position(now);
  sync_soa(now);
  bool detected = false;
  soa_.for_each_in_disk<NodeSoa::kFlagActive>(
      index_, at, params_.range_m, now, [&](std::uint32_t k, double d2) -> bool {
        if (soa_.ids()[k] == listener) return true;
        if ((soa_.flags()[k] & NodeSoa::kFlagSuppressed) != 0) return true;
        const Source& s = *static_cast<const Source*>(soa_.payloads()[k]);
        prune(s);
        if (s.history.empty()) {
          soa_.flags()[k] &= static_cast<std::uint8_t>(~NodeSoa::kFlagActive);
          return true;
        }
        const SimTime prop = params_.propagation_delay(std::sqrt(d2));
        for (const Interval& iv : s.history) {
          // Tone present at the listener during [on + prop, off + prop).
          const SimTime lo = std::max(iv.on + prop, from);
          const SimTime hi = iv.off == SimTime::max() ? to : std::min(iv.off + prop, to);
          if (hi - lo >= params_.cca) {
            detected = true;
            return false;  // stop the walk
          }
        }
        return true;
      });
  return detected;
}

void ToneChannel::subscribe_edges(NodeId listener, EdgeCallback cb) {
  edge_subs_[listener] = std::move(cb);
}

void ToneChannel::unsubscribe_edges(NodeId listener) noexcept { edge_subs_.erase(listener); }

}  // namespace rmacsim
