// WindowExecutor (src/sim/window_exec.hpp) on its own, without a simulator:
// every shard advances exactly once per window to the published barrier on a
// fixed owner thread, worker 0 is the caller, a throw ends the run after its
// window with the lowest failing shard's exception, and the pool survives
// failures, parking (idle longer than the spin budget), oversubscription and
// destruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/window_exec.hpp"

namespace rmacsim {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kShards = 5;  // uneven over 2 and 3 workers
constexpr unsigned kWindows = 200;

// Per shard: the barrier of every advance() call and the thread that made
// it.  A shard's slots are written only by its owning worker; the plan phase
// and the caller read them, ordered by the barrier handshake.
struct Recorder {
  explicit Recorder(std::size_t shards) : until(shards), thread(shards) {}
  std::vector<std::vector<SimTime>> until;
  std::vector<std::vector<std::thread::id>> thread;

  void advance(std::size_t s, SimTime t) {
    until[s].push_back(t);
    thread[s].push_back(std::this_thread::get_id());
  }
  void clear() {
    for (auto& v : until) v.clear();
    for (auto& v : thread) v.clear();
  }
};

// Publishes barriers 1, 2, ..., n ms, then stops; `k` counts the windows.
WindowExecutor::PlanFn count_to(unsigned n, unsigned& k) {
  return [n, &k] { return k < n ? SimTime::ms(++k) : SimTime::max(); };
}

TEST(WindowExec, AdvancesEveryShardOncePerWindowToTheBarrier) {
  for (const unsigned threads : {1u, 2u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Recorder rec(kShards);
    unsigned k = 0;
    unsigned lagging = 0;
    const WindowExecutor::PlanFn next = count_to(kWindows, k);
    WindowExecutor exec(
        kShards, threads,
        [&] {
          // Every shard has reached the previous barrier before the plan runs.
          for (const auto& u : rec.until) lagging += u.size() != k;
          return next();
        },
        [&rec](std::size_t s, SimTime t) { rec.advance(s, t); });
    ASSERT_EQ(exec.threads(), threads);
    exec.run();
    EXPECT_EQ(exec.windows(), kWindows);
    EXPECT_EQ(lagging, 0u);

    std::vector<std::thread::id> owner(threads);
    for (std::size_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(rec.until[s].size(), kWindows);
      for (unsigned i = 0; i < kWindows; ++i) {
        ASSERT_EQ(rec.until[s][i], SimTime::ms(i + 1));
      }
      // One thread per shard for the whole run: worker s % threads.
      const std::thread::id first = rec.thread[s].front();
      EXPECT_TRUE(std::all_of(rec.thread[s].begin(), rec.thread[s].end(),
                              [first](std::thread::id id) { return id == first; }));
      if (s < threads) {
        owner[s] = first;
      } else {
        EXPECT_EQ(first, owner[s % threads]);
      }
    }
    EXPECT_EQ(owner[0], std::this_thread::get_id());  // worker 0 is the caller
    std::sort(owner.begin(), owner.end());
    EXPECT_EQ(std::unique(owner.begin(), owner.end()), owner.end());
  }
}

TEST(WindowExec, ThrowEndsTheRunAfterItsWindowAndRethrowsTheLowestShard) {
  for (const unsigned threads : {1u, 2u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Recorder rec(kShards);
    unsigned k = 0;
    bool armed = true;
    WindowExecutor exec(kShards, threads, count_to(kWindows, k),
                        [&](std::size_t s, SimTime t) {
                          rec.advance(s, t);
                          if (armed && t == SimTime::ms(3) && (s == 3 || s == 1)) {
                            throw std::runtime_error("shard " + std::to_string(s));
                          }
                        });
    try {
      exec.run();
      ADD_FAILURE() << "run() returned despite a failing shard";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1");
    }
    // The failing window completed on every shard; none ran past it.
    EXPECT_EQ(exec.windows(), 3u);
    for (std::size_t s = 0; s < kShards; ++s) EXPECT_EQ(rec.until[s].size(), 3u);

    // The same executor and pool run again cleanly.
    armed = false;
    k = 0;
    rec.clear();
    exec.run();
    EXPECT_EQ(exec.windows(), 3u + kWindows);
    for (std::size_t s = 0; s < kShards; ++s) EXPECT_EQ(rec.until[s].size(), kWindows);
  }
}

TEST(WindowExec, ParkedThreadsWakeForTheNextWindow) {
  static_assert(std::chrono::nanoseconds(WindowExecutor::kSpinNs) < 50ms);
  Recorder rec(4);
  unsigned k = 0;
  WindowExecutor exec(4, 3, count_to(5, k), [&rec](std::size_t s, SimTime t) {
    rec.advance(s, t);
    // A slow pool worker: the caller outlasts its spin and parks on arrivals.
    if (s == 1 && t == SimTime::ms(2)) std::this_thread::sleep_for(50ms);
  });
  exec.run();
  // An idle pool outlasts its spin and parks on the generation.
  std::this_thread::sleep_for(50ms);
  k = 0;
  exec.run();
  EXPECT_EQ(exec.windows(), 10u);
  for (const auto& u : rec.until) EXPECT_EQ(u.size(), 10u);
}

TEST(WindowExec, OversubscribedPoolStaysCorrect) {
  // More workers than usable CPUs: waiters park at once instead of spinning.
  const unsigned cpus = WindowExecutor::usable_cpus();
  if (cpus > 15) GTEST_SKIP() << "keeps the pool small on wide hosts";
  const unsigned threads = cpus + 1;
  Recorder rec(threads + 1);
  unsigned k = 0;
  WindowExecutor exec(threads + 1, threads, count_to(kWindows, k),
                      [&rec](std::size_t s, SimTime t) { rec.advance(s, t); });
  ASSERT_EQ(exec.threads(), threads);
  exec.run();
  for (const auto& u : rec.until) EXPECT_EQ(u.size(), kWindows);
}

TEST(WindowExec, DestructorReturnsWithParkedWorkers) {
  {
    unsigned k = 0;
    WindowExecutor exec(3, 3, count_to(1, k), [](std::size_t, SimTime) {});
    exec.run();
    std::this_thread::sleep_for(50ms);  // past the spin budget: parked
  }
  {
    WindowExecutor never_ran(3, 3, [] { return SimTime::max(); }, [](std::size_t, SimTime) {});
  }
  SUCCEED();
}

TEST(WindowExec, ZeroThreadsMeansOnePerShardUpToTheUsableCpus) {
  const unsigned cpus = WindowExecutor::usable_cpus();
  ASSERT_GE(cpus, 1u);
  // Constructed but never run, so no thread is spawned.
  const WindowExecutor wide(2000, 0, [] { return SimTime::max(); },
                            [](std::size_t, SimTime) {});
  EXPECT_EQ(wide.threads(), std::min(2000u, cpus));
  EXPECT_EQ(WindowExecutor::resolve_threads(2, 0), std::min(2u, cpus));
  EXPECT_EQ(WindowExecutor::resolve_threads(1, 0), 1u);
  // Explicit counts are kept as requested, up to one per shard.
  EXPECT_EQ(WindowExecutor::resolve_threads(2000, 7), 7u);
  EXPECT_EQ(WindowExecutor::resolve_threads(5, 7), 5u);
}

}  // namespace
}  // namespace rmacsim
