// Conservative window-barrier executor for spatially sharded simulations.
//
// The engine alternates two phases:
//
//   plan    (serial)   — exchange cross-shard messages accumulated during
//                        the previous window and pick the next barrier time;
//   advance (parallel) — every shard runs its own Scheduler to the barrier.
//
// The caller owns all sharding semantics (message routing, merge order,
// lookahead); this class owns only the thread pool and the barrier protocol,
// so it can be tested in isolation and reused by any shard-shaped workload.
//
// The thread calling run() plans every window and is worker 0: it publishes
// the barrier, advances its own shards, then waits for the other T−1
// workers.  The pool therefore holds T−1 threads, spawned once (lazily, on
// the first run with T > 1) and kept across windows and across run() calls
// — the sharded engine calls run() once per run_until() span (warmup,
// measurement, drain) against the same pool.
//
// Barrier: two atomic words, no lock.  The planner publishes a window by
// bumping a generation counter; each pool worker counts itself into an
// arrival counter when its shards reach the barrier.  A waiting thread —
// worker on the generation, planner on the arrivals — spins for a fixed
// budget (kSpinNs of `pause`) and then parks in std::atomic::wait, so a run
// of tens of thousands of microsecond windows pays a few cache-line
// transfers per window, while an idle pool (between runs, or behind a long
// serial plan phase) sleeps in the kernel.  When T exceeds the CPUs the
// process may use, a spinner would only steal the core of the thread it
// waits for: the spin budget is then 0 and waiters park at once.
//
// Determinism: shards — not threads — are the unit of work.  Worker w always
// owns shards {w, w+T, w+2T, ...} and shards never share mutable state, so
// the thread count can only change wall-clock time, never results.  The
// shard→worker map is fixed at construction, which keeps each shard's
// working set resident on the same core (and NUMA node, when pinned) across
// every window of the run.
//
// Exceptions: a throw from advance() stops the run after the current window;
// the first failure in shard-index order is rethrown from run() after the
// window barrier.  The pool survives a throw and can run again.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace rmacsim {

class WindowExecutor {
public:
  // `plan` returns the next barrier time, or SimTime::max() to stop.
  // `advance(shard, until)` advances one shard; called concurrently for
  // distinct shards, never concurrently for the same shard.
  using PlanFn = std::function<SimTime()>;
  using AdvanceFn = std::function<void(std::size_t shard, SimTime until)>;
  // Runs on worker w's thread at the start of every window, before any of
  // its advance() calls — the seam for per-thread setup such as profiler
  // attachment (idempotent; a thread-local store per window is noise next to
  // advancing a shard).  Worker 0 is the thread that called run().
  using WorkerHook = std::function<void(unsigned worker)>;

  // How long a waiting thread spins before it parks.
  static constexpr std::uint64_t kSpinNs = 50'000;

  // `threads` is a request, resolved by resolve_threads(); threads()
  // reports the resolution.  `pin_workers` requests best-effort CPU affinity
  // for the pool (worker w → CPU w % hardware_concurrency on Linux; a no-op
  // elsewhere or on failure; worker 0 is the caller and stays unpinned),
  // keeping the shard→worker→core placement stable for cache and NUMA
  // locality.
  WindowExecutor(std::size_t shards, unsigned threads, PlanFn plan, AdvanceFn advance,
                 bool pin_workers = false);
  ~WindowExecutor();

  WindowExecutor(const WindowExecutor&) = delete;
  WindowExecutor& operator=(const WindowExecutor&) = delete;

  // The effective worker count for a request: 0 means one per shard, up to
  // the usable CPUs; an explicit count is kept, clamped to [1, shards].
  [[nodiscard]] static unsigned resolve_threads(std::size_t shards, unsigned requested);
  // CPUs this process may run on (its affinity mask on Linux, else
  // hardware_concurrency), at least 1.
  [[nodiscard]] static unsigned usable_cpus();

  // Install/replace the per-window worker hook.  Call only between runs.
  void set_worker_hook(WorkerHook hook) { hook_ = std::move(hook); }

  // Per-window wall-clock timing (window telemetry).  When enabled, the
  // executor records for the most recent window: each worker's execute span
  // (work publication to its barrier arrival), its barrier stall (arrival to
  // the last worker's arrival), and the uniform span before the window (the
  // serial plan phase).  Totals live in WindowTelemetry; this class only
  // keeps the last window so the plan phase of window k+1 can read window
  // k's spans — the barrier handshake orders those reads.  Costs a few
  // steady_clock reads per window; off by default.  Call only between runs.
  void set_collect_timing(bool on) noexcept { collect_ = on; }
  [[nodiscard]] const std::vector<std::uint64_t>& last_execute_ns() const noexcept {
    return last_exec_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& last_stall_ns() const noexcept {
    return last_stall_;
  }
  [[nodiscard]] std::uint64_t last_wait_ns() const noexcept { return last_wait_ns_; }

  void run();

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] bool pinning_requested() const noexcept { return pin_; }

private:
  void start_pool();
  void worker_main(unsigned w, std::uint32_t seen);
  void advance_owned(unsigned w, SimTime until);
  void dispatch_window(SimTime barrier);

  std::size_t shards_;
  unsigned threads_;
  std::uint64_t spin_ns_;
  PlanFn plan_;
  AdvanceFn advance_;
  WorkerHook hook_;
  bool pin_;
  bool collect_{false};
  std::uint64_t windows_{0};

  // Timing state (valid only while collect_): per-worker spans of the last
  // window plus the wall instant the previous window (or run) ended.
  // Workers write arrive_ns_[w] before counting themselves into arrived_;
  // the planner reads after seeing the full count, which orders every pair.
  std::vector<std::uint64_t> arrive_ns_;
  std::vector<std::uint64_t> last_exec_;
  std::vector<std::uint64_t> last_stall_;
  std::uint64_t last_wait_ns_{0};
  std::uint64_t idle_from_ns_{0};

  // The barrier.  The planner writes barrier_time_ (and stop_), resets
  // arrived_, then bumps generation_ with release order; a worker's acquire
  // load of the new generation makes those writes visible.  Each pool
  // worker's acq_rel increment of arrived_ publishes its shards' state and
  // error slots to the planner.  Zero allocations and no lock per window.
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> arrived_{0};
  bool stop_{false};
  SimTime barrier_time_{SimTime::zero()};
  // One slot per shard: a worker never writes another worker's slots, and
  // the arrival handshake orders every write against the planner's reads.
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> pool_;
};

}  // namespace rmacsim
