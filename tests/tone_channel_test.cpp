#include "phy/tone_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;

class ToneTest : public ::testing::Test {
protected:
  ToneTest() : chan_{sched_, phy_, "RBT"} {}

  void add(NodeId id, Vec2 pos) {
    mobs_.push_back(std::make_unique<StationaryMobility>(pos));
    chan_.attach(id, *mobs_.back());
  }

  Scheduler sched_;
  PhyParams phy_;
  ToneChannel chan_;
  std::vector<std::unique_ptr<StationaryMobility>> mobs_;
};

TEST_F(ToneTest, MyToneTracksSetTone) {
  add(0, {0, 0});
  EXPECT_FALSE(chan_.my_tone_on(0));
  chan_.set_tone(0, true);
  EXPECT_TRUE(chan_.my_tone_on(0));
  chan_.set_tone(0, false);
  EXPECT_FALSE(chan_.my_tone_on(0));
}

TEST_F(ToneTest, SetToneIsIdempotent) {
  add(0, {0, 0});
  chan_.set_tone(0, true);
  chan_.set_tone(0, true);
  chan_.set_tone(0, false);
  chan_.set_tone(0, false);
  EXPECT_FALSE(chan_.my_tone_on(0));
}

TEST_F(ToneTest, SensedInRangeAfterPropagation) {
  add(0, {0, 0});
  add(1, {60, 0});
  chan_.set_tone(0, true);
  // Leading edge needs 200 ns to cover 60 m.
  EXPECT_FALSE(chan_.sensed_at(1));
  sched_.run_until(1_us);
  EXPECT_TRUE(chan_.sensed_at(1));
}

TEST_F(ToneTest, NotSensedOutOfRange) {
  add(0, {0, 0});
  add(1, {80, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  EXPECT_FALSE(chan_.sensed_at(1));
}

TEST_F(ToneTest, OwnToneNotSensedAsForeign) {
  add(0, {0, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  EXPECT_FALSE(chan_.sensed_at(0));
}

TEST_F(ToneTest, SensedClearsAfterToneOff) {
  add(0, {0, 0});
  add(1, {60, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  chan_.set_tone(0, false);
  sched_.run_until(20_us);
  EXPECT_FALSE(chan_.sensed_at(1));
}

// Detection semantics: presence >= lambda (15 us) within the window.
TEST_F(ToneTest, WindowDetectsLongEnoughOverlap) {
  add(0, {0, 0});
  add(1, {30, 0});
  sched_.run_until(100_us);
  chan_.set_tone(0, true);
  sched_.run_until(120_us);
  chan_.set_tone(0, false);
  // Tone on at listener ~[100.0001, 120.0001] us: a [100, 117] window sees
  // ~17 us of it -> detected.
  EXPECT_TRUE(chan_.detected_in_window(1, 100_us, 117_us));
}

TEST_F(ToneTest, WindowRejectsTooShortOverlap) {
  add(0, {0, 0});
  add(1, {30, 0});
  sched_.run_until(100_us);
  chan_.set_tone(0, true);
  sched_.run_until(110_us);
  chan_.set_tone(0, false);
  // Only 10 us of tone < 15 us CCA.
  EXPECT_FALSE(chan_.detected_in_window(1, 100_us, 120_us));
}

TEST_F(ToneTest, WindowRejectsToneOutsideWindow) {
  add(0, {0, 0});
  add(1, {30, 0});
  chan_.set_tone(0, true);
  sched_.run_until(50_us);
  chan_.set_tone(0, false);
  sched_.run_until(200_us);
  EXPECT_FALSE(chan_.detected_in_window(1, 100_us, 150_us));
}

TEST_F(ToneTest, StillOnToneDetectedInOpenWindow) {
  add(0, {0, 0});
  add(1, {30, 0});
  chan_.set_tone(0, true);
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.detected_in_window(1, 50_us, 100_us));
}

TEST_F(ToneTest, WindowDetectionIsPerListenerRange) {
  add(0, {0, 0});
  add(1, {30, 0});
  add(2, {200, 0});
  chan_.set_tone(0, true);
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.detected_in_window(1, 0_us, 100_us));
  EXPECT_FALSE(chan_.detected_in_window(2, 0_us, 100_us));
}

TEST_F(ToneTest, MultipleSourcesAnyDetected) {
  add(0, {0, 0});
  add(1, {30, 0});
  add(2, {30, 30});
  chan_.set_tone(2, true);
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.sensed_at(1));
  EXPECT_TRUE(chan_.detected_in_window(1, 50_us, 100_us));
}

// The mixed-up ABT phenomenon (Fig. 5): a listener cannot attribute a tone —
// any in-range source's tone satisfies the window check.
TEST_F(ToneTest, ToneSourcesAreIndistinguishable) {
  add(0, {0, 0});   // sender S
  add(1, {50, 0});  // S's receiver
  add(2, {0, 50});  // V: another exchange's receiver, in range of S
  chan_.set_tone(2, true);  // V's tone, not node 1's
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.detected_in_window(0, 50_us, 100_us));
}

TEST_F(ToneTest, EdgeSubscriptionFiresWithDetectionLatency) {
  add(0, {0, 0});
  add(1, {60, 0});
  std::vector<SimTime> fired;
  chan_.subscribe_edges(1, [&](NodeId src) {
    EXPECT_EQ(src, 0u);
    fired.push_back(sched_.now());
  });
  sched_.run_until(10_us);
  chan_.set_tone(0, true);
  sched_.run();
  ASSERT_EQ(fired.size(), 1u);
  // prop(60 m) = 200 ns, + lambda 15 us.
  EXPECT_EQ(fired[0], 10_us + 200_ns + 15_us);
}

TEST_F(ToneTest, EdgeSubscriptionIgnoresOutOfRange) {
  add(0, {0, 0});
  add(1, {100, 0});
  int fired = 0;
  chan_.subscribe_edges(1, [&](NodeId) { ++fired; });
  chan_.set_tone(0, true);
  sched_.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ToneTest, EdgeSubscriptionIgnoresOwnTone) {
  add(0, {0, 0});
  int fired = 0;
  chan_.subscribe_edges(0, [&](NodeId) { ++fired; });
  chan_.set_tone(0, true);
  sched_.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ToneTest, UnsubscribeStopsFutureEdges) {
  add(0, {0, 0});
  add(1, {30, 0});
  int fired = 0;
  chan_.subscribe_edges(1, [&](NodeId) { ++fired; });
  chan_.unsubscribe_edges(1);
  chan_.set_tone(0, true);
  sched_.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ToneTest, HistoryPruningKeepsRecentIntervalsQueryable) {
  add(0, {0, 0});
  add(1, {30, 0});
  // Many on/off cycles over a long horizon; only recent ones must matter.
  for (int i = 0; i < 1'000; ++i) {
    chan_.set_tone(0, true);
    sched_.run_until(sched_.now() + 20_us);
    chan_.set_tone(0, false);
    sched_.run_until(sched_.now() + 80_us);
  }
  const SimTime t = sched_.now();
  // Last interval: [t-100us, t-80us] at the source.
  EXPECT_TRUE(chan_.detected_in_window(1, t - 100_us, t - 80_us));
  EXPECT_FALSE(chan_.detected_in_window(1, t - 70_us, t - 10_us));
}

TEST_F(ToneTest, IdleSourceHistoryIsPrunedByQueries) {
  // A source that toggles off and then goes idle must not keep stale history
  // forever: queries prune expired intervals even without another set_tone.
  add(0, {0, 0});
  add(1, {30, 0});
  for (int i = 0; i < 50; ++i) {
    chan_.set_tone(0, true);
    sched_.run_until(sched_.now() + 20_us);
    chan_.set_tone(0, false);
    sched_.run_until(sched_.now() + 20_us);
  }
  EXPECT_GT(chan_.history_size(0), 0u);
  // Source 0 stays idle far past the 10 ms retention horizon...
  sched_.run_until(sched_.now() + 1_s);
  // ...and a mere query (from an in-range listener) drops the stale history.
  EXPECT_FALSE(chan_.sensed_at(1));
  EXPECT_EQ(chan_.history_size(0), 0u);
}

TEST_F(ToneTest, EdgeNotificationsFireInAscendingListenerOrder) {
  // Equal-latency edge callbacks must run in sorted NodeId order, not in
  // hash-map iteration order: two listeners equidistant from the source.
  add(0, {0, 0});
  add(5, {0, 30});
  add(3, {30, 0});
  add(9, {0, -30});
  std::vector<NodeId> order;
  for (NodeId id : {NodeId{5}, NodeId{3}, NodeId{9}}) {
    chan_.subscribe_edges(id, [&order, id](NodeId) { order.push_back(id); });
  }
  chan_.set_tone(0, true);
  sched_.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<NodeId>{3, 5, 9}));
}

TEST_F(ToneTest, DetachRemovesSource) {
  add(0, {0, 0});
  add(1, {30, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  EXPECT_TRUE(chan_.sensed_at(1));
  chan_.detach(0);
  EXPECT_FALSE(chan_.sensed_at(1));
}


TEST_F(ToneTest, MobileSourceLeavesSensingRange) {
  // A tone stays on while its source walks out of range: sensed_at follows
  // the geometry at query time.
  add(0, {0, 0});
  ScriptedMobility walker{{
      {SimTime::zero(), {30.0, 0.0}},
      {10_s, {30.0, 0.0}},
      {20_s, {200.0, 0.0}},
  }};
  chan_.attach(1, walker);
  chan_.set_tone(1, true);
  sched_.run_until(5_s);
  EXPECT_TRUE(chan_.sensed_at(0));
  sched_.run_until(25_s);
  EXPECT_FALSE(chan_.sensed_at(0));
  EXPECT_TRUE(chan_.my_tone_on(1));  // still on, just far away
}

TEST_F(ToneTest, WindowQueryUsesCurrentGeometry) {
  add(0, {0, 0});
  ScriptedMobility walker{{
      {SimTime::zero(), {30.0, 0.0}},
      {10_s, {30.0, 0.0}},
      {20_s, {200.0, 0.0}},
  }};
  chan_.attach(1, walker);
  // A 100 us burst while in range...
  sched_.run_until(5_s);
  chan_.set_tone(1, true);
  sched_.run_until(5_s + 100_us);
  chan_.set_tone(1, false);
  // ...is detectable while the source is still nearby...
  EXPECT_TRUE(chan_.detected_in_window(0, 5_s, 5_s + 100_us));
  // ...but once the source has left, the same interval no longer registers
  // (range is evaluated at query time — a deliberate simplification, see
  // docs/simulator_internals.md).
  sched_.run_until(25_s);
  EXPECT_FALSE(chan_.detected_in_window(0, 5_s, 5_s + 100_us));
}

TEST_F(ToneTest, SensedAtEdgesAtExactlyFullRange) {
  // A listener at exactly range_m hears the tone from on + prop(range_m) up
  // to, but not including, off + prop(range_m); a hair farther, never.
  add(0, {0, 0});
  add(1, {phy_.range_m, 0});
  add(2, {-std::nextafter(phy_.range_m, 1e9), 0});
  const SimTime edge = phy_.propagation_delay(phy_.range_m);
  sched_.run_until(1_us);
  chan_.set_tone(0, true);
  const SimTime on = sched_.now();
  sched_.run_until(on + edge - SimTime::ns(1));
  EXPECT_FALSE(chan_.sensed_at(1));
  sched_.run_until(on + edge);
  EXPECT_TRUE(chan_.sensed_at(1));
  sched_.run_until(on + 10_us);
  EXPECT_FALSE(chan_.sensed_at(2));
  chan_.set_tone(0, false);
  const SimTime off = sched_.now();
  sched_.run_until(off + edge - SimTime::ns(1));
  EXPECT_TRUE(chan_.sensed_at(1));
  sched_.run_until(off + edge);  // off == now - propagation_delay(range_m)
  EXPECT_FALSE(chan_.sensed_at(1));
  // The silent source raises again: heard again after the same delay.
  chan_.set_tone(0, true);
  sched_.run_until(sched_.now() + edge);
  EXPECT_TRUE(chan_.sensed_at(1));
}

// sensed_at against a brute-force reference the test keeps itself: every
// attached source, exact positions from its mobility model, and the interval
// rule — a tone on during [on, off) at the source is heard at distance
// d <= range_m during [on + prop(d), off + prop(d)).  Nothing is pruned.
struct RefSource {
  MobilityModel* mobility{nullptr};  // null while detached
  bool remote{false};                // driven by set_remote_tone (a phantom)
  bool on{false};
  bool suppressed{false};
  SimTime last_edge{SimTime::zero()};
  std::vector<std::pair<SimTime, SimTime>> intervals;  // [on, off)
};

bool reference_sensed(const std::vector<RefSource>& ref, NodeId listener, SimTime now,
                      const PhyParams& phy) {
  if (ref[listener].mobility == nullptr) return false;
  const Vec2 at = ref[listener].mobility->position(now);
  for (NodeId id = 0; id < ref.size(); ++id) {
    const RefSource& s = ref[id];
    if (id == listener || s.mobility == nullptr || s.suppressed) continue;
    const double d2 = distance_sq(at, s.mobility->position(now));
    if (d2 > phy.range_m * phy.range_m) continue;
    const SimTime emitted = now - phy.propagation_delay(std::sqrt(d2));
    for (const auto& [on, off] : s.intervals) {
      if (on <= emitted && emitted < off) return true;
    }
  }
  return false;
}

TEST(ToneProperty, SensedAtMatchesBruteForceReference) {
  constexpr NodeId kNodes = 16;
  std::uint64_t heard = 0;
  std::uint64_t silent = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(test::seed_trace(seed));
    Rng rng{seed};
    Scheduler sched;
    PhyParams phy;
    ToneChannel chan{sched, phy, "RBT"};
    // 0..5 stationary, 6..11 random waypoint, 12..15 phantoms fed by
    // backdated set_remote_tone, half of them moving.  Nodes 0..3 form a
    // rhombus of 3-4-5 triangles with four pairs exactly range_m = 75 m
    // apart.  The area is about two ranges wide, so mobile pairs keep
    // crossing the range boundary.
    ASSERT_EQ(phy.range_m, 75.0);
    const Vec2 rhombus[] = {{10.0, 20.0}, {85.0, 20.0}, {55.0, 80.0}, {130.0, 80.0}};
    const RandomWaypointParams rwp{Rect{160.0, 100.0}, 5.0, 40.0, SimTime::zero()};
    std::vector<std::unique_ptr<MobilityModel>> mobs;
    std::vector<RefSource> ref(kNodes);
    for (NodeId id = 0; id < kNodes; ++id) {
      const Vec2 start =
          id < 4 ? rhombus[id] : Vec2{rng.uniform(0.0, 160.0), rng.uniform(0.0, 100.0)};
      if (id < 6 || (id >= 12 && id % 2 == 0)) {
        mobs.push_back(std::make_unique<StationaryMobility>(start));
      } else {
        mobs.push_back(std::make_unique<RandomWaypointMobility>(start, rwp, rng.fork(id)));
      }
      ref[id].mobility = mobs.back().get();
      ref[id].remote = id >= 12;
      chan.attach(id, *mobs.back());
    }
    const auto pick = [&](auto&& want) -> NodeId {
      for (int tries = 0; tries < 64; ++tries) {
        const auto id = static_cast<NodeId>(rng.uniform_int(std::uint64_t{kNodes}));
        if (want(ref[id])) return id;
      }
      return kNodes;
    };
    SimTime last_drop = SimTime::max();
    for (int step = 0; step < 3000; ++step) {
      const SimTime now = sched.now();
      const std::uint64_t op = rng.uniform_int(std::uint64_t{100});
      if (op < 30) {
        const NodeId id = pick([](const RefSource& s) { return s.mobility && !s.remote; });
        if (id == kNodes) continue;
        RefSource& s = ref[id];
        s.on = !s.on;
        chan.set_tone(id, s.on);
        if (s.on) {
          s.intervals.emplace_back(now, SimTime::max());
        } else {
          s.intervals.back().second = now;
          last_drop = now;
        }
      } else if (op < 45) {
        const NodeId id = pick([](const RefSource& s) { return s.mobility && s.remote; });
        if (id == kNodes) continue;
        RefSource& s = ref[id];
        const std::int64_t slack = std::min<std::int64_t>(2000, (now - s.last_edge).nanoseconds());
        const SimTime when = now - SimTime::ns(rng.uniform_int(std::int64_t{0}, slack));
        s.on = !s.on;
        s.last_edge = when;
        chan.set_remote_tone(id, s.on, when);
        if (s.on) {
          s.intervals.emplace_back(when, SimTime::max());
        } else {
          s.intervals.back().second = when;
          last_drop = when;
        }
      } else if (op < 50) {
        const NodeId id = pick([](const RefSource& s) { return s.mobility != nullptr; });
        if (id == kNodes) continue;
        ref[id].suppressed = !ref[id].suppressed;
        chan.set_suppressed(id, ref[id].suppressed);
      } else if (op < 54) {
        const NodeId id = pick([](const RefSource& s) { return s.mobility != nullptr; });
        if (id == kNodes) continue;
        chan.detach(id);
        ref[id] = RefSource{nullptr, ref[id].remote, false, false, now, {}};
      } else if (op < 60) {
        const NodeId id = pick([](const RefSource& s) { return s.mobility == nullptr; });
        if (id == kNodes) continue;
        ref[id].mobility = mobs[id].get();
        chan.attach(id, *mobs[id]);
      } else {
        // Mostly sub-microsecond steps across the propagation edges, some
        // longer, a few long enough for the walkers to move; and queries
        // exactly at (or 1 ns before) the last drop's full-range edge.
        const std::uint64_t kind = rng.uniform_int(std::uint64_t{50});
        const SimTime edge = last_drop == SimTime::max()
                                 ? now
                                 : last_drop + phy.propagation_delay(phy.range_m);
        SimTime next = now + SimTime::ns(rng.uniform_int(std::int64_t{1}, std::int64_t{400}));
        if (kind == 0) next = now + SimTime::ns(rng.uniform_int(std::int64_t{1}, 300'000'000));
        if (kind >= 1 && kind < 6) next = now + SimTime::ns(rng.uniform_int(std::int64_t{1}, 50'000));
        if (kind >= 6 && kind < 20 && edge - SimTime::ns(kind % 2) > now) {
          next = edge - SimTime::ns(kind % 2);
        }
        sched.run_until(next);
      }
      for (NodeId listener = 0; listener <= kNodes; ++listener) {
        const bool expected =
            listener < kNodes && reference_sensed(ref, listener, sched.now(), phy);
        ASSERT_EQ(chan.sensed_at(listener), expected)
            << "listener " << listener << " at " << sched.now().nanoseconds() << " ns, step "
            << step;
        ++(expected ? heard : silent);
      }
    }
  }
  // Both outcomes are exercised, not just the trivial one.
  EXPECT_GT(heard, 10'000u);
  EXPECT_GT(silent, 10'000u);
}

}  // namespace
}  // namespace rmacsim
